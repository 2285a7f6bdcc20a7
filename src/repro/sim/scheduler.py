"""Event scheduler: the heart of the deterministic simulation.

The scheduler is a priority queue of ``[time, sequence, callback]`` entries.
The ``sequence`` counter breaks ties between events scheduled for the same
instant, so execution order is a pure function of the schedule calls that
produced it — two runs with the same seed interleave identically. It is
unique, so ``heapq`` orders entries in C without ever comparing callbacks;
cancelling an entry clears its callback in place and the loop skips it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TimerHandle:
    """Opaque handle returned by :meth:`Scheduler.schedule`.

    Holding a handle allows the event to be cancelled before it fires.
    Handles compare by identity of their ``(time, seq)`` slot.
    """

    time: float
    seq: int


class Scheduler:
    """A deterministic discrete-event scheduler.

    Example::

        sched = Scheduler()
        sched.schedule(1.5, lambda: print("fires at t=1.5"))
        sched.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[list] = []
        self._live: dict[tuple[float, int], list] = {}
        self._events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (for budget checks)."""
        return self._events_executed

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback on the
        next scheduler step, after all previously scheduled same-time events.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time, seq = self._now + delay, self._seq
        self._seq += 1
        entry = [time, seq, callback]
        heapq.heappush(self._heap, entry)
        self._live[(time, seq)] = entry
        return TimerHandle(time=time, seq=seq)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` at an absolute simulated time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        return self.schedule(time - self._now, callback)

    def cancel(self, handle: TimerHandle) -> bool:
        """Cancel a pending event. Returns True if it had not yet fired."""
        entry = self._live.pop((handle.time, handle.seq), None)
        if entry is None:
            return False
        entry[2] = None
        return True

    def pending(self) -> int:
        """Number of events still waiting to fire."""
        return len(self._live)

    def step(self) -> bool:
        """Execute the single next event. Returns False if none remain."""
        while self._heap:
            time, seq, callback = heapq.heappop(self._heap)
            if callback is None:
                continue
            del self._live[(time, seq)]
            self._now = time
            self._events_executed += 1
            callback()
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Run events until exhaustion or a stopping condition.

        ``until``: stop before executing any event scheduled after this time
        (the clock is advanced to ``until``).
        ``max_events``: safety valve against runaway protocols.
        ``stop_when``: predicate checked after every event.
        """
        executed = 0
        while self._heap:
            # Peek (skipping cancelled entries) to honour the `until` bound
            # without consuming the event.
            while self._heap and self._heap[0][2] is None:
                heapq.heappop(self._heap)
            if not self._heap:
                break
            if until is not None and self._heap[0][0] > until:
                self._now = max(self._now, until)
                return
            if not self.step():
                break
            executed += 1
            if stop_when is not None and stop_when():
                return
            if max_events is not None and executed >= max_events:
                raise RuntimeError(
                    f"scheduler exceeded max_events={max_events}; "
                    "likely a livelocked protocol"
                )
        if until is not None:
            self._now = max(self._now, until)
