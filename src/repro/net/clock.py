"""Wall-clock scheduler: the simulator's timer API over an asyncio loop.

Protocol objects arm timers through
:meth:`~repro.sim.process.Process.set_timer`, which talks to
``network.scheduler`` — a :class:`~repro.sim.scheduler.Scheduler` in the
simulation. This class presents the same surface (``now``, ``schedule``,
``cancel``, ``pending``) but fires callbacks on real elapsed time via
``loop.call_later`` — or, for a zero delay (an element's own copy of a
multicast), ``loop.call_soon``: still asynchronous, never in asyncio's
timer heap — so the exact same replica/voter/GM code runs unmodified in
a real process.

Handles are the simulator's :class:`TimerHandle` dataclass — processes
stash them in sets and hand them back for cancellation, so identity must
survive the trip.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.sim.scheduler import TimerHandle


class RealTimeScheduler:
    """Scheduler facade over one asyncio event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._t0 = loop.time()
        self._seq = 0
        self._live: dict[TimerHandle, asyncio.Handle] = {}
        self._events_executed = 0

    @property
    def now(self) -> float:
        """Seconds since this process's world began (monotonic)."""
        return self.loop.time() - self._t0

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        handle = TimerHandle(time=self.now + delay, seq=self._seq)
        self._seq += 1

        def fire() -> None:
            del self._live[handle]
            self._events_executed += 1
            callback()

        self._live[handle] = (
            self.loop.call_later(delay, fire) if delay else self.loop.call_soon(fire)
        )
        return handle

    def cancel(self, handle: TimerHandle) -> bool:
        timer = self._live.pop(handle, None)
        if timer is None:
            return False
        timer.cancel()
        return True

    def pending(self) -> int:
        return len(self._live)

    def cancel_all(self) -> int:
        """Shutdown path: cancel every armed timer so the loop can drain."""
        cancelled = len(self._live)
        for timer in self._live.values():
            timer.cancel()
        self._live.clear()
        return cancelled
