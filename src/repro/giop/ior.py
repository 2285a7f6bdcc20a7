"""Interoperable object references.

An :class:`ObjectRef` is what a CORBA client holds: enough information to
find and invoke an object. In ITDOS "the object reference contains the
address of the replication domain in which that service is located" (§3.3) —
so the profile names a *domain*, not a host, and the transport kind selects
the pluggable protocol (SMIOP for replicated ITDOS servers, plain IIOP for
the unreplicated baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.encoding import canonical_bytes

TRANSPORT_SMIOP = "smiop"
TRANSPORT_IIOP = "iiop"
_TRANSPORTS = (TRANSPORT_SMIOP, TRANSPORT_IIOP)


@dataclass(frozen=True)
class ObjectRef:
    """A reference to one CORBA object hosted by a replication domain."""

    interface_name: str
    domain_id: str
    object_key: bytes
    transport: str = TRANSPORT_SMIOP

    def __post_init__(self) -> None:
        if not self.interface_name:
            raise ValueError("interface_name must be non-empty")
        if not self.domain_id:
            raise ValueError("domain_id must be non-empty")
        if self.transport not in _TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")

    def canonical_fields(self) -> dict:  # hand-written: a value object, not a message
        return {
            "interface_name": self.interface_name,
            "domain_id": self.domain_id,
            "object_key": self.object_key,
            "transport": self.transport,
        }

    def stringify(self) -> str:
        """`IOR:`-style stringified reference (hex of canonical encoding)."""
        return "IOR:" + canonical_bytes(self.canonical_fields()).hex()

    @staticmethod
    def destringify(text: str) -> "ObjectRef":
        """Parse a stringified reference produced by :meth:`stringify`."""
        if not text.startswith("IOR:"):
            raise ValueError("not a stringified object reference")
        try:
            raw = bytes.fromhex(text[4:])
        except ValueError as exc:
            raise ValueError("invalid hex in stringified reference") from exc
        from repro.crypto.encoding import parse_canonical

        fields = parse_canonical(raw)
        if not isinstance(fields, dict):
            raise ValueError("stringified reference is not a dict")
        return ObjectRef(
            interface_name=fields["interface_name"],
            domain_id=fields["domain_id"],
            object_key=fields["object_key"],
            transport=fields["transport"],
        )
