"""ITDOS transport-level messages and their payload serialisation.

The Castro–Liskov layer carries opaque byte payloads; ITDOS defines what is
inside them. Every envelope serialises with the canonical encoding
(:mod:`repro.crypto.encoding`), giving deterministic bytes — two client
domain elements producing the same logical request produce *identical*
payload bytes (given the shared connection key and request-id-derived
nonce), which is what lets the server-side voter collate copies.

Message kinds:

* ``smiop_request`` / ``smiop_reply`` — encrypted GIOP traffic (§3.3);
  replies carry the sending element's signature over the *plaintext* GIOP
  reply, making them transferable expulsion proof (§3.6).
* ``open_request`` / ``change_request`` — connection management traffic to
  the Group Manager (Figure 3 step 1; §3.6).
* ``coin_commit`` / ``coin_reveal`` — the GM's distributed randomness
  bootstrap (§3.5).
* :class:`GmShareEnvelope` — point-to-point delivery of one Group Manager
  element's communication-key share (Figure 3 steps 2–3), encrypted under
  the pairwise key shared at registration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.digests import hmac_digest
from repro.crypto.dleq import DleqProof
from repro.crypto.dprf import KeyShare
from repro.crypto.encoding import parse_canonical
from repro.schema import encode_payload, from_payload, message


class PayloadError(Exception):
    """Malformed ITDOS payload."""


def decode_payload(raw: bytes) -> dict[str, Any]:
    try:
        value = parse_canonical(raw)
    except ValueError as exc:
        raise PayloadError(str(exc)) from exc
    if not isinstance(value, dict) or "kind" not in value:
        raise PayloadError("payload is not a tagged dict")
    return value


# -- SMIOP traffic ---------------------------------------------------------------


@message(kind="smiop_request")
@dataclass(frozen=True)
class SmiopRequest:
    """One encrypted GIOP request travelling into a server domain."""

    conn_id: int
    request_id: int
    key_id: int
    ciphertext: bytes
    sender: str


@message(kind="smiop_reply")
@dataclass(frozen=True)
class SmiopReply:
    """One element's encrypted GIOP reply, signed over the plaintext.

    ``signature`` covers the *decrypted* GIOP reply bytes so that the reply
    is verifiable by third parties given the plaintext — the Group Manager
    verifies exactly this when judging expulsion proof (§3.6).

    When ``is_digest`` is set (EXTENSION for §4's large-object problem) the
    ciphertext encrypts only a 32-byte *value digest* of the result; the
    client votes digests and fetches the body once via
    :class:`BodyRequest`/:class:`BodyReply`.
    """

    conn_id: int
    request_id: int
    key_id: int
    ciphertext: bytes
    sender: str
    signature: bytes
    is_digest: bool = False

    def wire_size(self) -> int:
        return 64 + len(self.ciphertext) + len(self.signature)


@message
@dataclass(frozen=True)
class BodyRequest:
    """EXTENSION (§4 large objects): fetch the full reply body once.

    Sent point-to-point by a client after its *digest vote* decided; any
    supporter of the voted digest can serve the body, which the client
    verifies against the voted digest — a Byzantine server cannot swap it.
    """

    conn_id: int
    request_id: int
    requester: str


@message
@dataclass(frozen=True)
class BodyReply:
    """The (encrypted) full reply body answering a :class:`BodyRequest`."""

    conn_id: int
    request_id: int
    key_id: int
    ciphertext: bytes
    sender: str

    def wire_size(self) -> int:
        return 64 + len(self.ciphertext)


# -- read fast path (Castro–Liskov read-only optimization) -----------------------


@message
@dataclass(frozen=True)
class ReadRequest:
    """One encrypted read-only GIOP request, sent point-to-point.

    Bypasses BFT ordering entirely: the client fans it out to every element
    (core and read tier) of the target domain, which executes it
    *tentatively* against its last-committed state. Read ids live in their
    own per-connection counter space — they never consume ordered request
    ids, so the §3.6 strictly-increasing discipline of the ordered path is
    untouched by any number of reads.
    """

    conn_id: int
    read_id: int
    key_id: int
    ciphertext: bytes
    sender: str

    def wire_size(self) -> int:
        return 64 + len(self.ciphertext)


@message
@dataclass(frozen=True)
class ReadReply:
    """One element's tentative reply to a :class:`ReadRequest`.

    ``watermark`` is the element's committed-prefix position (count of
    processed ordered payloads) at execution time; the client only accepts
    2f+1 replies matching on *(watermark, value)*, so replies computed
    against divergent prefixes can never be mixed into one decision.
    ``mac`` (:func:`read_reply_mac`, under the key the client shares with
    ``sender`` alone) binds every field but ``key_id``: no element can
    re-label, replay or speak for a peer. It proves nothing to a third party,
    and need not: the read voter accuses no one (§3.6 proof is signed).
    ``tier`` distinguishes core elements ("core") from non-voting read-tier
    elements ("read"); read-tier replies are observability-only at the
    client and never count toward the quorum.
    """

    conn_id: int
    read_id: int
    key_id: int
    ciphertext: bytes
    sender: str
    mac: bytes
    watermark: int
    tier: str = "core"  # "core" | "read"

    def wire_size(self) -> int:
        return 72 + len(self.ciphertext) + len(self.mac)


def read_reply_mac(
    key: bytes, conn_id: int, read_id: int, sender: str, tier: str,
    watermark: int, ciphertext: bytes,
) -> bytes:
    """HMAC-SHA-256 of a :class:`ReadReply` in one layout that parses one way
    only: integers in decimal, strings after their length, ciphertext last."""
    head = f"{conn_id}:{read_id}:{watermark}:{len(sender)}:{sender}{len(tier)}:{tier}"
    return hmac_digest(key, head.encode(), ciphertext)


@message
@dataclass(frozen=True)
class CommitFeed:
    """One committed ordered payload, streamed to the read tier.

    Core elements emit one per payload they append to the replicated
    message queue, carrying the queue position (``index`` = the appending
    element's ``total_appended`` after the append). A read-tier element
    applies an index once it has f+1 byte-identical feeds for it from
    distinct core elements — at least one honest, so the reader's queue is
    always a prefix of the committed order.
    """

    sender: str
    domain_id: str
    index: int  # 1-based position in the committed payload stream
    payload: bytes

    def wire_size(self) -> int:
        return 48 + len(self.payload)


# -- Group Manager traffic ----------------------------------------------------------


@message(kind="open_request")
@dataclass(frozen=True)
class OpenRequest:
    """Figure 3 step 1: ask the Group Manager to establish a connection."""

    requester: str
    requester_kind: str  # "singleton" | "domain"
    requester_domain: str  # "" for singletons
    target_domain: str

    def __post_init__(self) -> None:
        if self.requester_kind not in ("singleton", "domain"):
            raise ValueError(f"bad requester_kind {self.requester_kind!r}")


@message
@dataclass(frozen=True)
class ProofItem:
    """One signed plaintext reply inside a change_request proof."""

    sender: str
    plaintext: bytes  # the GIOP reply wire bytes the element signed
    signature: bytes


@message(kind="change_request")
@dataclass(frozen=True)
class ChangeRequest:
    """§3.6: ask the Group Manager to expel faulty element(s).

    From a singleton requester the ``proof`` must demonstrate the fault
    (signed replies re-votable by the GM's marshalling engine); from a
    replication domain, ``f+1`` matching change_requests replace proof.
    """

    requester: str
    requester_kind: str  # "singleton" | "domain"
    requester_domain: str
    accused_domain: str
    accused: tuple[str, ...]
    request_id: int  # the request on which the fault was observed
    proof: tuple[ProofItem, ...] = ()


@message(kind="rekey_tick")
@dataclass(frozen=True)
class RekeyTick:
    """EXTENSION (§3.5 "periodically re-initialize"): epoch rekey trigger.

    Every GM element submits a tick per epoch through the GM's own
    ordering; the first ordered tick of an epoch rotates every connection's
    communication key, so even an *undetected* compromise only exposes a
    bounded window of traffic.
    """

    pid: str
    epoch: int


@message
@dataclass(frozen=True)
class CoinMessage:
    """Commit or reveal in the GM's distributed randomness bootstrap."""

    phase: str  # "commit" | "reveal"
    pid: str
    value: bytes  # commitment digest or revealed coin

    # The one hand-written ordered form: the kind tag *is* the ``phase`` field.
    KIND_COMMIT = "coin_commit"
    KIND_REVEAL = "coin_reveal"

    def to_payload(self) -> bytes:
        kind = self.KIND_COMMIT if self.phase == "commit" else self.KIND_REVEAL
        return encode_payload(kind, {"pid": self.pid, "value": self.value})

    @staticmethod
    def from_fields(kind: str, fields: dict[str, Any]) -> "CoinMessage":
        phase = "commit" if kind == CoinMessage.KIND_COMMIT else "reveal"
        return CoinMessage(phase=phase, pid=fields["pid"], value=fields["value"])


def parse_payload(raw: bytes) -> Any:
    """Decode a BFT payload into its typed ITDOS message.

    Raises :class:`PayloadError` for *any* malformed input — a truncated,
    bit-flipped or hostile wire image must never leak a raw ``KeyError``/
    ``TypeError`` into a replica's dispatch loop (corrupted retransmissions
    reach this parser before any envelope decryption can reject them).
    """
    fields = decode_payload(raw)
    kind = fields["kind"]
    try:
        if kind in (CoinMessage.KIND_COMMIT, CoinMessage.KIND_REVEAL):
            return CoinMessage.from_fields(kind, fields)
        return from_payload(fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadError(f"malformed {kind!r} payload: {exc}") from exc


# -- key share delivery ----------------------------------------------------------------


# Hand-written: a KeyShare is a crypto value object, not a message, and it
# travels flattened together with its nonce.
def key_share_to_dict(nonce: bytes, share: KeyShare) -> dict[str, Any]:
    return {
        "nonce": nonce,
        "index": share.index,
        "value": share.value,
        "challenge": share.proof.challenge,
        "response": share.proof.response,
    }


def key_share_from_dict(fields: dict[str, Any]) -> tuple[bytes, KeyShare]:
    share = KeyShare(
        index=fields["index"],
        value=fields["value"],
        proof=DleqProof(
            challenge=fields["challenge"], response=fields["response"]
        ),
    )
    return fields["nonce"], share


@message
@dataclass(frozen=True)
class GmShareEnvelope:
    """One GM element's key share for one (connection, key generation).

    Sent point-to-point to each participant; the share itself is encrypted
    under the pairwise key the GM element shares with the recipient
    (footnote 2 of the paper). Connection metadata travels in the clear and
    is bound to nothing: receivers act on it only once ``f_gm + 1`` elements
    with verified shares agree (:meth:`~repro.itdos.keys.KeyStore.offer_envelope`).
    """

    gm_element: str
    recipient: str
    conn_id: int
    key_id: int
    client: str
    client_kind: str  # "singleton" | "domain"
    client_domain: str
    target_domain: str
    ciphertext: bytes  # encrypt(pairwise, canonical(key_share_to_dict(...)))
    # Membership epoch this generation was issued under, and the oldest
    # epoch still acceptable. Every membership change (expulsion or
    # readmission, §3.6) advances the epoch; a readmission or fresh-keys
    # refresh also raises the fence floor, making receivers drop every
    # generation from before it — a formerly compromised element's
    # pre-expulsion keys are useless after rejoin. Plain expulsions leave
    # the floor alone so in-flight traffic survives back-to-back rekeys.
    epoch: int = 0
    fence_floor: int = 0

    def wire_size(self) -> int:
        return 96 + len(self.ciphertext)
