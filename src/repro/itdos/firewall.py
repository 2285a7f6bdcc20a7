"""The IT-CORBA firewall proxy at the enclave boundary.

Figure 1 places a firewall + IT-CORBA proxy in front of the client and each
server element; the paper defers details "for reasons of brevity". We
implement the behaviour the figure implies: the proxy monitors BFTM/SMIOP
traffic crossing its enclave boundary and drops anything that is not
well-formed protocol traffic. It is realised as a network transmission
filter (in-path, like a transparent inline proxy), plus counters.
"""

from __future__ import annotations

from typing import Any

from repro.bft.messages import (
    BftReply,
    CheckpointMsg,
    ClientRequest,
    CommitMsg,
    NewViewMsg,
    PrepareMsg,
    PrePrepareMsg,
    StateRequestMsg,
    StateResponseMsg,
    ViewChangeMsg,
)
from repro.itdos.messages import GmShareEnvelope, PayloadError, SmiopReply, parse_payload
from repro.sim.network import Network

_PROTOCOL_TYPES = (
    ClientRequest,
    PrePrepareMsg,
    PrepareMsg,
    CommitMsg,
    BftReply,
    CheckpointMsg,
    ViewChangeMsg,
    NewViewMsg,
    StateRequestMsg,
    StateResponseMsg,
    GmShareEnvelope,
    SmiopReply,
)


class EnclaveFirewall:
    """An inline proxy protecting one enclave (a set of process ids).

    Only well-formed ITDOS/BFT protocol messages may cross the boundary in
    either direction. ``ClientRequest`` payloads must additionally parse as
    SMIOP/GM payloads — opaque blobs are not let through.
    """

    def __init__(self, name: str, enclave: set[str]) -> None:
        self.name = name
        self.enclave = set(enclave)
        self.passed = 0
        self.blocked = 0
        self.blocked_samples: list[tuple[str, str, str]] = []

    def crosses_boundary(self, src: str, dst: str) -> bool:
        return (src in self.enclave) != (dst in self.enclave)

    def admit(self, src: str, dst: str, payload: Any) -> bool:
        """Network filter hook: returns False to drop the message."""
        if not self.crosses_boundary(src, dst):
            return True
        if self._well_formed(payload):
            self.passed += 1
            return True
        self.blocked += 1
        if len(self.blocked_samples) < 100:
            self.blocked_samples.append((src, dst, type(payload).__name__))
        return False

    def _well_formed(self, payload: Any) -> bool:
        if not isinstance(payload, _PROTOCOL_TYPES):
            return False
        if isinstance(payload, ClientRequest):
            try:
                parse_payload(payload.payload)
            except PayloadError:
                return False
        return True

    def install(self, network: Network) -> "EnclaveFirewall":
        network.add_filter(self.admit)
        return self
