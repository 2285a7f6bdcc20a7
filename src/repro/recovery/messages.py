"""Recovery protocol messages.

Two message groups:

* the **rejoin handshake** — a :class:`RejoinPetition` travels through the
  Group Manager's ordering exactly like Figure 3's ``open_request``, but is
  additionally *signed* with the element's registered RSA key and carries a
  monotone nonce, so the GM can check that the petitioner controls the
  element identity and that an old petition is not being replayed;
* **catch-up** — point-to-point
  :class:`QueueStateRequest`/:class:`QueueStateResponse`, the one message
  pair behind both a rejoining core element and a lagging read-tier
  element (:mod:`repro.recovery.fetch` drives the round). The response
  bundles the peer's live ``MessageQueue.snapshot()``, its rolling append
  chain, the servant state that belongs to that queue position, and its
  stable PBFT checkpoint (snapshot + 2f+1 certificate) so a core joiner
  can anchor the fetched state to the BFT layer before adopting.

All three register with :func:`repro.schema.message` at import; the
petition's ``kind=`` is what lets ``parse_payload`` decode it without this
package being a dependency of :mod:`repro.itdos.messages`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes
from repro.schema import message


def petition_body(element: str, domain_id: str, fresh_keys: bool, nonce: int) -> bytes:
    """The exact bytes a rejoin petitioner signs."""
    return canonical_bytes(
        {
            "purpose": "rejoin",
            "element": element,
            "domain": domain_id,
            "fresh_keys": bool(fresh_keys),
            "nonce": nonce,
        }
    )


@message(kind="rejoin_petition")
@dataclass(frozen=True)
class RejoinPetition:
    """Signed request to re-enter (or key-refresh) a replication domain.

    ``fresh_keys`` distinguishes the proactive-recovery case: an element in
    good standing that just restarted asks for a key-epoch rotation even
    though it was never expelled, so any keys exfiltrated before the
    restart die with the old epoch.
    """

    element: str
    domain_id: str
    fresh_keys: bool
    nonce: int
    signature: bytes

    def body(self) -> bytes:
        return petition_body(self.element, self.domain_id, self.fresh_keys, self.nonce)

    def trace_label(self) -> str:
        return f"rejoin_petition({self.element},fresh={self.fresh_keys})"


@message
@dataclass(frozen=True)
class QueueStateRequest:
    """Ask a core element of our domain for its current queue state."""

    requester: str
    domain_id: str
    attempt: int

    def trace_label(self) -> str:
        return f"queue_state_request({self.requester},attempt={self.attempt})"


@message
@dataclass(frozen=True)
class QueueStateResponse:
    """One peer's view of the replicated queue, anchored to its checkpoint.

    ``checkpoint_proof`` is the 2f+1 :class:`~repro.bft.messages.CheckpointMsg`
    certificate for ``(stable_seq, checkpoint_snapshot)`` — the recovery
    "checkpoint fetch RPC". Proof *contents* differ per peer (different
    quorum subsets), so :meth:`fingerprint` covers everything except it.

    ``app_state`` is the canonical ``{"app": app_state_fn()}`` of the
    servants *at* ``snapshot``'s processed position: the queue snapshot
    only holds the unprocessed suffix, so an adopter that missed any
    processed payload needs the state those payloads produced.
    """

    sender: str
    domain_id: str
    attempt: int
    appended: int  # payloads ever ordered into the queue
    chain: bytes  # rolling digest of the ordered history
    snapshot: bytes  # MessageQueue.snapshot()
    last_executed: int  # the peer's BFT execution position
    stable_seq: int
    checkpoint_snapshot: bytes
    app_state: bytes
    checkpoint_proof: tuple = ()

    def fingerprint(self) -> bytes:
        """Digest used to cross-validate responses across peers."""
        return digest(
            canonical_bytes(
                {
                    "appended": self.appended,
                    "chain": self.chain,
                    "snapshot": digest(self.snapshot),
                    "last_executed": self.last_executed,
                    "stable_seq": self.stable_seq,
                    "checkpoint": digest(self.checkpoint_snapshot),
                    "app": digest(self.app_state),
                }
            )
        )

    def wire_size(self) -> int:
        return (
            96
            + len(self.snapshot)
            + len(self.checkpoint_snapshot)
            + len(self.app_state)
        )

    def trace_label(self) -> str:
        return (
            f"queue_state_response(i={self.sender},exec={self.last_executed},"
            f"{len(self.snapshot)}B)"
        )
