"""IP-multicast group emulation.

The paper's transport stack bottoms out at IP multicast (Figure 2). A
:class:`MulticastGroup` is an address plus a membership set; a send to the
address fans out to every current member with an independently drawn delay,
mirroring real multicast where per-receiver delivery times differ.

The simulator also tracks how many distinct group addresses have been
allocated — §3.4 argues process-granularity replication "conserves multicast
address allocation", which experiment E2 measures.
"""

from __future__ import annotations

from repro.sim.process import ProcessId


class MulticastGroup:
    """A named multicast address with a mutable membership set."""

    def __init__(self, address: str) -> None:
        if not address:
            raise ValueError("multicast address must be non-empty")
        self.address = address
        self.members: set[ProcessId] = set()
        self._ordered: tuple[ProcessId, ...] | None = None

    def join(self, pid: ProcessId) -> None:
        """Add ``pid`` to the group (idempotent, like IGMP join)."""
        self.members.add(pid)
        self._ordered = None

    def leave(self, pid: ProcessId) -> None:
        """Remove ``pid``; leaving a group one is not in is a no-op."""
        self.members.discard(pid)
        self._ordered = None

    def ordered(self) -> tuple[ProcessId, ...]:
        """The members in fan-out (sorted) order, kept until a join or leave."""
        self._ordered = self._ordered or tuple(sorted(self.members))
        return self._ordered

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"<MulticastGroup {self.address} members={sorted(self.members)}>"
