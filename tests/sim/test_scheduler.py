"""Unit tests for the discrete-event scheduler."""

import random

import pytest

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


def test_schedule_at_absolute_time():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: sched.schedule_at(5.0, lambda: seen.append(sched.now)))
    sched.run()
    assert seen == [5.0]


def test_schedule_at_past_rejected():
    sched = Scheduler()
    sched.schedule(2.0, lambda: None)
    sched.run()
    with pytest.raises(ValueError):
        sched.schedule_at(1.0, lambda: None)


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
