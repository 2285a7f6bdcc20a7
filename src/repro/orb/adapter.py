"""The object adapter: object keys to servants.

Plays the POA's role. Per §3.4, ITDOS replicates at *server* granularity —
a replication domain hosts the adapter's full servant census identically on
every element — so the adapter also enumerates its objects for domain
registration.
"""

from __future__ import annotations

from repro.giop.ior import ObjectRef
from repro.orb.errors import ObjectNotExist
from repro.orb.servant import Servant


class ObjectAdapter:
    """Maps object keys to active servants within one server."""

    def __init__(self) -> None:
        self._servants: dict[bytes, Servant] = {}

    def activate(self, object_key: bytes, servant: Servant) -> bytes:
        """Register ``servant`` under ``object_key``."""
        if not object_key:
            raise ValueError("object key must be non-empty")
        if object_key in self._servants:
            raise ValueError(f"object key {object_key!r} already active")
        self._servants[object_key] = servant
        return object_key

    def deactivate(self, object_key: bytes) -> None:
        if object_key not in self._servants:
            raise ObjectNotExist(f"no servant under key {object_key!r}")
        del self._servants[object_key]

    def servant_for(self, object_key: bytes) -> Servant:
        servant = self._servants.get(object_key)
        if servant is None:
            raise ObjectNotExist(f"no servant under key {object_key!r}")
        return servant

    def object_keys(self) -> list[bytes]:
        return sorted(self._servants)

    def make_ref(
        self, object_key: bytes, domain_id: str, transport: str = "smiop"
    ) -> ObjectRef:
        """Create the object reference clients will hold."""
        servant = self.servant_for(object_key)
        return ObjectRef(
            interface_name=servant.interface.name,
            domain_id=domain_id,
            object_key=object_key,
            transport=transport,
        )

    def __len__(self) -> int:
        return len(self._servants)
