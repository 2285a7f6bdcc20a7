"""The rejoin handshake.

A :class:`RejoinPetition` travels through the Group Manager's ordering
exactly like Figure 3's ``open_request``, but is additionally *signed* with
the element's registered RSA key and carries a monotone nonce, so the GM can
check that the petitioner controls the element identity and that an old
petition is not being replayed. It registers with
:func:`repro.schema.message` at import; its ``kind=`` is what lets
``parse_payload`` decode it without this package being a dependency of
:mod:`repro.itdos.messages`. Catch-up, the state a joiner adopts after the
verdict, is the one round of :mod:`repro.bft.catchup`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
