"""Unit tests for the discrete-event scheduler, and the model it is held to."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, lambda: fired.append("c"))
    sched.schedule(1.0, lambda: fired.append("a"))
    sched.schedule(2.0, lambda: fired.append("b"))
    sched.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.schedule(1.0, lambda n=name: fired.append(n))
    sched.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.schedule(2.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [2.5]
    assert sched.now == 2.5


def test_zero_delay_runs_after_earlier_same_time_events():
    sched = Scheduler()
    fired = []
    sched.schedule(0.0, lambda: fired.append(1))
    sched.schedule(0.0, lambda: fired.append(2))
    sched.run()
    assert fired == [1, 2]


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(ValueError):
        sched.schedule(-0.1, lambda: None)


def test_post_shares_the_tie_break_counter_with_schedule():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append("a"))
    assert sched.post(1.0, lambda: fired.append("b")) is None
    sched.schedule(1.0, lambda: fired.append("c"))
    sched.post(0.5, lambda: fired.append("first"))
    assert sched.pending() == 4
    sched.run()
    assert fired == ["first", "a", "b", "c"]
    assert (sched.events_executed, sched.pending()) == (4, 0)
    with pytest.raises(ValueError):
        sched.post(-0.1, lambda: None)


def test_cancel_prevents_firing():
    sched = Scheduler()
    fired = []
    handle = sched.schedule(1.0, lambda: fired.append("x"))
    assert sched.cancel(handle) is True
    sched.run()
    assert fired == []


def test_cancel_twice_returns_false():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    assert sched.cancel(handle) is True
    assert sched.cancel(handle) is False


def test_cancel_after_fire_returns_false():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.cancel(handle) is False


def test_stale_cancels_leave_pending_alone():
    """``Process.restart``/``cancel_all_timers`` cancel every handle they
    stashed, fired or not, and shutdown then asserts ``pending() == 0``: a
    cancel of a fired or already-cancelled event must not count again."""
    sched = Scheduler()
    fired = sched.schedule(1.0, lambda: None)
    sched.post(1.0, lambda: None)
    gone = sched.schedule(2.0, lambda: None)
    keep = sched.schedule(3.0, lambda: None)
    sched.run(until=1.5)
    assert sched.cancel(gone) is True
    assert sched.pending() == 1
    for _ in range(3):
        assert sched.cancel(fired) is False
        assert sched.cancel(gone) is False
        assert sched.pending() == 1
    # ... nor may a callback that cancels its own, already firing, event.
    own = []
    own.append(sched.schedule(0.5, lambda: own.append(sched.cancel(own[0]))))
    sched.run(until=2.5)
    assert own[1] is False and sched.pending() == 1
    assert sched.cancel(keep) is True
    assert sched.pending() == 0
    sched.run()
    assert sched.events_executed == 3


def test_cancelled_entries_never_outnumber_live_ones():
    """A timer re-armed on every event (a retransmission tick, a view-change
    timer) leaves a cancelled entry behind each time; the heap is rebuilt
    without them once they outnumber live entries, and nothing moves."""
    sched = Scheduler()
    fired = []
    timer = [sched.schedule(5.0, lambda: fired.append("timeout"))]

    def tick(i):
        fired.append(i)
        sched.cancel(timer[0])
        timer[0] = sched.schedule(5.0, lambda: fired.append("timeout"))
        assert len(sched._heap) <= 2 * sched.pending() + 1

    for i in range(1000):
        sched.post(0.001 * i, lambda i=i: tick(i))
    sched.run()
    assert fired == list(range(1000)) + ["timeout"]
    assert sched.pending() == 0 and sched._heap == []


def test_run_until_stops_before_later_events():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append("a"))
    sched.schedule(3.0, lambda: fired.append("b"))
    sched.run(until=2.0)
    assert fired == ["a"]
    assert sched.now == 2.0
    sched.run()
    assert fired == ["a", "b"]


def test_run_until_with_only_cancelled_pending():
    sched = Scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.cancel(handle)
    sched.run(until=5.0)
    assert sched.now == 5.0


def test_max_events_guard_raises():
    sched = Scheduler()

    def reschedule():
        sched.schedule(0.001, reschedule)

    sched.schedule(0.0, reschedule)
    with pytest.raises(RuntimeError, match="max_events"):
        sched.run(max_events=100)


def test_stop_when_predicate():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i + 1), lambda i=i: fired.append(i))
    sched.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_execute():
    sched = Scheduler()
    fired = []

    def first():
        fired.append("first")
        sched.schedule(1.0, lambda: fired.append("nested"))

    sched.schedule(1.0, first)
    sched.run()
    assert fired == ["first", "nested"]


def test_pending_count():
    sched = Scheduler()
    h1 = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    assert sched.pending() == 2
    sched.cancel(h1)
    assert sched.pending() == 1


def test_step_returns_false_when_empty():
    sched = Scheduler()
    assert sched.step() is False


def test_events_executed_counter():
    sched = Scheduler()
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    sched.run()
    assert sched.events_executed == 5


def _seeded_run(seed: int) -> list[tuple[float, int]]:
    """A busy schedule driven by ``seed``: events schedule more events at
    colliding times and cancel timers still pending, as protocol code does."""
    rng = random.Random(seed)
    sched = Scheduler()
    executed: list[tuple[float, int]] = []
    handles = []

    def arm(depth: int) -> None:
        # Coarse delays so many events share an instant and ties matter.
        handle = sched.schedule(rng.randrange(0, 5) * 0.25, lambda: fire(handle, depth))
        handles.append(handle)

    def fire(handle, depth: int) -> None:
        executed.append((handle.time, handle.seq))
        assert sched.now == handle.time
        if depth < 6:
            for _ in range(rng.randrange(0, 4)):
                arm(depth + 1)
        if handles and rng.random() < 0.5:
            sched.cancel(handles.pop(rng.randrange(len(handles))))

    for _ in range(20):
        arm(0)
    for victim in rng.sample(handles, 5):
        assert sched.cancel(victim) is True
    sched.run(until=1.0)
    sched.run()
    assert sched.pending() == 0
    assert sched.events_executed == len(executed)
    return executed


@pytest.mark.parametrize("seed", [0, 1, 2002])
def test_same_seed_executes_identical_time_seq_sequence(seed):
    first = _seeded_run(seed)
    assert len(first) > 50
    assert first == _seeded_run(seed)
    # (time, seq) order is the whole contract: nothing else is compared.
    assert first == sorted(first)
    assert len(set(first)) == len(first)


def test_callbacks_are_never_compared():
    class Uncomparable:
        def __call__(self):
            pass

        def __lt__(self, other):
            raise AssertionError("the heap compared two callbacks")

    sched = Scheduler()
    for _ in range(50):
        sched.schedule(1.0, Uncomparable())
    sched.run()
    assert sched.events_executed == 50


# -- the scheduler against a reference model ---------------------------------------


class Reference:
    """The scheduler's contract written the slow way: one sorted list of
    ``(time, seq, callback)``; a handle is its ``(time, seq)``."""

    def __init__(self):
        self.now, self.seq, self.queue, self.events_executed = 0.0, 0, [], 0

    def schedule(self, delay, callback):
        self.queue.append((self.now + delay, self.seq, callback))
        self.queue.sort(key=lambda entry: entry[:2])
        self.seq += 1
        return (self.now + delay, self.seq - 1)

    def post(self, delay, callback):
        self.schedule(delay, callback)

    def cancel(self, handle):
        live = [entry for entry in self.queue if entry[:2] == handle]
        self.queue = [entry for entry in self.queue if entry[:2] != handle]
        return bool(live)

    def cancel_all(self):
        cancelled, self.queue = len(self.queue), []
        return cancelled

    def pending(self):
        return len(self.queue)

    def step(self):
        if not self.queue:
            return False
        self.now, _seq, callback = self.queue.pop(0)
        self.events_executed += 1
        callback()
        return True

    def run(self, until=None, max_events=None, stop_when=None):
        executed = 0
        while self.queue and (until is None or self.queue[0][0] <= until):
            self.step()
            executed += 1
            if stop_when is not None and stop_when():
                return
            if max_events is not None and executed >= max_events:
                raise RuntimeError("max_events")
        if until is not None:
            self.now = max(self.now, until)


def programs(arms, delays, drivers):
    """Lists of operations: arm an event whose callback arms more (possibly at
    the same instant) and cancels others; cancel the k-th handle issued so far,
    be it live, fired or already cancelled; and whatever ``drivers`` adds."""
    arm, delay = st.sampled_from(arms), st.sampled_from(delays)
    cancel = st.tuples(st.just("cancel"), st.integers(0, 40))
    event = st.recursive(
        st.tuples(arm, delay, st.just(())),
        lambda inner: st.tuples(arm, delay, st.lists(inner | cancel, max_size=3).map(tuple)),
        max_leaves=8,
    )
    return st.lists(st.one_of(event, cancel, *drivers), max_size=30)


def play(sched, program, drive):
    """Run ``program`` on ``sched``; the trace is every firing and, after each
    operation, what the scheduler says about itself. ``drive(sched, op)``
    performs the operations that are not arm/cancel."""
    trace, handles, idents = [], [], iter(range(10**6))

    def do(op):
        if op[0] == "cancel":
            return bool(handles) and sched.cancel(handles[op[1] % len(handles)])
        if op[0] not in ("schedule", "post"):
            return drive(sched, op)
        kind, delay, children = op
        ident = next(idents)

        def fire():
            trace.append(("fired", ident))
            for child in children:
                do(child)

        handle = getattr(sched, kind)(delay, fire)
        if handle is not None:
            handles.append(handle)
        return None

    for op in program:
        result = do(op)
        trace.append((op[0], result, sched.now, sched.pending(), sched.events_executed))
    return trace


def _drive_sim(sched, op):
    if op[0] == "step":
        return sched.step()
    if op[0] == "until":
        sched.run(until=sched.now + op[1])
    elif op[0] == "stop_when":
        target = sched.events_executed + op[1]
        sched.run(stop_when=lambda: sched.events_executed >= target)
    else:
        try:
            sched.run(max_events=op[1])
        except RuntimeError:
            return "RuntimeError"
    return None


SIM_DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)
SIM_DRIVERS = (
    st.just(("step",)),
    st.tuples(st.just("until"), st.sampled_from(SIM_DELAYS)),
    st.tuples(st.just("stop_when"), st.integers(1, 4)),
    st.tuples(st.just("max_events"), st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(programs(("schedule", "post"), SIM_DELAYS, SIM_DRIVERS))
def test_scheduler_matches_the_reference_model(program):
    assert play(Scheduler(), program, _drive_sim) == play(Reference(), program, _drive_sim)
