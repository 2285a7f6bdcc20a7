"""Process actors.

A :class:`Process` is a deterministic state machine driven entirely by
message deliveries and timer callbacks — the execution model the paper
requires of every replication domain element ("each replication domain
element employs a single-threaded execution model", §2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.obs.telemetry import NOOP_TELEMETRY
from repro.sim.scheduler import TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.network import Network

ProcessId = str


class _Detached:
    """:attr:`Process.network` until :meth:`Process.attach`: the shared no-op
    telemetry, and on any other use an error saying what is missing — so an
    attached process pays no check per send."""

    telemetry = NOOP_TELEMETRY

    def __getattr__(self, name: str) -> Any:
        raise RuntimeError("process is not attached to a network")


class Process:
    """Base class for every simulated process.

    Subclasses implement :meth:`on_message`. Processes send messages through
    the network they are attached to and may set deterministic timers.

    A crashed process silently drops deliveries; this is the *crash* half of
    the fault model. A timer that falls due during a crash is held and fires
    on :meth:`recover`, so no periodic chain dies with a crash. Byzantine
    behaviour is implemented by subclassing (see :mod:`repro.itdos.faults`),
    never by flags scattered through correct-process code.
    """

    def __init__(self, pid: ProcessId) -> None:
        if not pid:
            raise ValueError("process id must be non-empty")
        self.pid: ProcessId = pid
        self.network: Network = _Detached()  # type: ignore[assignment]
        self.crashed: bool = False
        self._timers: set[TimerHandle] = set()
        self._overdue: list[Callable[[], None]] = []

    # -- wiring -----------------------------------------------------------

    def attach(self, network: Network) -> None:
        """Called by :meth:`Network.add_process`; do not call directly."""
        self.network = network

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.scheduler.now

    @property
    def telemetry(self):
        """The world's telemetry facade (the shared no-op when unattached)."""
        return self.network.telemetry

    # -- messaging --------------------------------------------------------

    def send(self, dst: ProcessId, payload: Any) -> None:
        """Send ``payload`` point-to-point to process ``dst``."""
        if self.crashed:
            return
        self.network.send(self.pid, dst, payload)

    def multicast(self, group_addr: str, payload: Any) -> None:
        """Send ``payload`` to every member of an IP-multicast group."""
        if self.crashed:
            return
        self.network.multicast(self.pid, group_addr, payload)

    def deliver(self, src: ProcessId, payload: Any) -> None:
        """Entry point used by the network. Routes to :meth:`on_message`."""
        if self.crashed:
            return
        self.on_message(src, payload)

    def on_message(self, src: ProcessId, payload: Any) -> None:
        """Handle one delivered message. Subclasses override."""
        raise NotImplementedError

    # -- timers -----------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` simulated seconds, or on
        :meth:`recover` if the process is crashed when it falls due."""

        def guarded() -> None:
            self._timers.discard(handle)
            if self.crashed:
                self._overdue.append(callback)
            else:
                callback()

        handle = self.network.scheduler.schedule(delay, guarded)
        self._timers.add(handle)
        return handle

    def cancel_timer(self, handle: TimerHandle) -> bool:
        """Cancel a pending timer set by this process."""
        self._timers.discard(handle)
        return self.network.scheduler.cancel(handle)

    def cancel_all_timers(self) -> int:
        """Cancel every timer this process still has armed.

        The graceful-stop path: unlike :meth:`restart` it neither clears
        the crash flag nor resets subclass state, so a node can quiesce its
        scheduler before tearing the process down.
        """
        scheduler = self.network.scheduler
        cancelled = 0
        for handle in list(self._timers):
            if scheduler.cancel(handle):
                cancelled += 1
        self._timers.clear()
        self._overdue.clear()
        return cancelled

    # -- fault control ----------------------------------------------------

    def crash(self) -> None:
        """Silently stop: no more sends, deliveries, or timer callbacks."""
        self.crashed = True

    def recover(self) -> None:
        """Resume after a crash. State is whatever the subclass preserved;
        the timers that fell due during the crash fire now, in order."""
        self.crashed = False
        while self._overdue and not self.crashed:
            self._overdue.pop(0)()

    def restart(self) -> None:
        """Reboot the process: cancel every pending timer, clear the crash
        flag, and give the subclass its :meth:`on_restart` reset hook.

        Unlike :meth:`recover`, timers armed before the crash (overdue ones
        too) never fire — a rebooted process re-arms its own periodic work.
        """
        self.cancel_all_timers()
        self.crashed = False
        self.on_restart()

    def on_restart(self) -> None:
        """Reset volatile state after :meth:`restart`. Subclasses override."""

    def __repr__(self) -> str:
        status = " CRASHED" if self.crashed else ""
        return f"<{type(self).__name__} {self.pid}{status}>"
