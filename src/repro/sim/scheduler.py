from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class TimerHandle:
    """Opaque handle returned by :meth:`Scheduler.schedule`.

    Holding a handle allows the event to be cancelled before it fires.
    Handles compare by identity of their ``(time, seq)`` slot.
    """

    time: float
    seq: int
    #: The simulator's heap entry; its callback slot is ``None`` once the
    #: event has fired or been cancelled.
    entry: Any = field(default=None, compare=False, repr=False)


class Scheduler:
    """A deterministic discrete-event scheduler.

    A heap of ``[time, seq, callback]`` entries. ``seq`` is unique and breaks
    ties between events of the same instant, so execution order is a pure
    function of the :meth:`schedule`/:meth:`post` calls that produced it and
    ``heapq`` never compares callbacks. Example::

        sched = Scheduler()
        sched.schedule(1.5, lambda: print("fires at t=1.5"))
        sched.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[list] = []
        self._events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (for budget checks)."""
        return self._events_executed

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Queue an event nobody can cancel (a message delivery): one heap
        entry, ordered with :meth:`schedule`'s by the same ``seq`` counter."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._heap, [self._now + delay, self._seq, callback])
        self._seq += 1

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback on the
        next scheduler step, after all previously scheduled same-time events.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        entry = [self._now + delay, self._seq, callback]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return TimerHandle(entry[0], entry[1], entry)

    def cancel(self, handle: TimerHandle) -> bool:
        """Cancel a pending event. Returns True if it had not yet fired."""
        entry = handle.entry
        if entry[2] is None:
            return False
        entry[2] = None
        return True

    def pending(self) -> int:
        """Number of events still waiting to fire."""
        return sum(entry[2] is not None for entry in self._heap)

    def step(self) -> bool:
        """Execute the single next event. Returns False if none remain."""
        before = self._events_executed
        self.run(stop_when=lambda: True)
        return self._events_executed != before

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
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap:
            entry = heap[0]
            callback = entry[2]
            if callback is None:
                heappop(heap)
                continue
            if until is not None and entry[0] > until:
                break  # honour the bound without consuming the event
            heappop(heap)
            entry[2] = None  # fired: a later cancel() of its handle says so
            self._now = entry[0]
            self._events_executed += 1
            callback()
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
