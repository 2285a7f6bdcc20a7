"""RealTimeScheduler: the sim timer surface over real elapsed time."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.clock import RealTimeScheduler
from repro.sim.scheduler import TimerHandle
from tests.sim.test_scheduler import Reference, play, programs


def run(coro):
    return asyncio.run(coro)


def test_schedule_fires_and_counts():
    async def scenario():
        scheduler = RealTimeScheduler(asyncio.get_running_loop())
        fired = []
        scheduler.schedule(0.01, lambda: fired.append("a"))
        scheduler.schedule(0.02, lambda: fired.append("b"))
        await asyncio.sleep(0.1)
        return scheduler, fired

    scheduler, fired = run(scenario())
    assert fired == ["a", "b"]
    assert scheduler.events_executed == 2
    assert scheduler.pending() == 0


def test_handles_are_sim_timer_handles():
    async def scenario():
        scheduler = RealTimeScheduler(asyncio.get_running_loop())
        handle = scheduler.schedule(1.0, lambda: None)
        assert isinstance(handle, TimerHandle)
        # Identity survives the round trip through a process's timer set —
        # the contract Process.set_timer/cancel_timer relies on.
        assert scheduler.cancel(handle) is True
        assert scheduler.cancel(handle) is False

    run(scenario())


def test_cancel_prevents_firing():
    async def scenario():
        scheduler = RealTimeScheduler(asyncio.get_running_loop())
        fired = []
        handle = scheduler.schedule(0.01, lambda: fired.append("no"))
        assert scheduler.cancel(handle)
        await asyncio.sleep(0.05)
        return fired, scheduler

    fired, scheduler = run(scenario())
    assert fired == []
    assert scheduler.events_executed == 0


def test_cancel_all_disarms_everything():
    async def scenario():
        scheduler = RealTimeScheduler(asyncio.get_running_loop())
        fired = []
        for _ in range(5):
            scheduler.schedule(0.01, lambda: fired.append("x"))
        assert scheduler.pending() == 5
        assert scheduler.cancel_all() == 5
        assert scheduler.pending() == 0
        await asyncio.sleep(0.05)
        return fired

    assert run(scenario()) == []


def test_negative_delay_rejected():
    async def scenario():
        scheduler = RealTimeScheduler(asyncio.get_running_loop())
        with pytest.raises(ValueError):
            scheduler.schedule(-0.1, lambda: None)
        return scheduler.pending()

    assert run(scenario()) == 0


def test_zero_delay_is_call_soon_and_still_a_timer():
    """An element's own copy of a multicast: asynchronous (never inside the
    ``schedule`` call), ahead of asyncio's timer heap, and cancellable, counted
    and cancel-all-able like any other event."""

    async def scenario():
        loop = asyncio.get_running_loop()
        scheduler = RealTimeScheduler(loop)
        fired = []
        doomed = scheduler.schedule(0.0, lambda: fired.append("cancelled"))
        kept = scheduler.schedule(0.0, lambda: fired.append("kept"))
        assert fired == [] and scheduler.pending() == 2
        assert not loop._scheduled  # nothing went to the timer heap
        # Cancelled before the loop turns: it never fires and is not counted.
        assert scheduler.cancel(doomed) is True
        assert scheduler.cancel(doomed) is False
        assert scheduler.pending() == 1
        await asyncio.sleep(0)
        assert fired == ["kept"]
        assert (scheduler.pending(), scheduler.events_executed) == (0, 1)
        # Stale cancels, as Process.restart/cancel_all_timers issue them.
        assert scheduler.cancel(kept) is False and scheduler.cancel(doomed) is False
        assert scheduler.pending() == 0
        scheduler.schedule(0.0, lambda: fired.append("never"))
        scheduler.schedule(60.0, lambda: fired.append("never"))
        assert scheduler.cancel_all() == 2
        await asyncio.sleep(0)
        return fired, scheduler.pending(), scheduler.events_executed

    assert run(scenario()) == (["kept"], 0, 1)


# The simulator's model-based strategy (tests/sim/test_scheduler.py) minus
# ``step``/``run``/``post``, which this scheduler does not have: zero-delay
# events fire in schedule order whatever they arm or cancel on the way, and
# cancel/pending/cancel_all agree with the reference at every point. A
# one-minute timer stands for "armed, never fires".
WIRE_DRIVERS = (st.just(("turn",)), st.just(("cancel_all",)))


def _drive(sched, op):
    if op[0] == "cancel_all":
        return sched.cancel_all()
    if isinstance(sched, Reference):
        sched.run(until=sched.now)
    else:
        for _ in range(12):  # deeper than any program nests its events
            sched.loop.run_until_complete(asyncio.sleep(0))
    return None


@settings(max_examples=100, deadline=None)
@given(programs(("schedule",), (0.0, 0.0, 60.0), WIRE_DRIVERS))
def test_zero_delay_events_match_the_reference_model(program):
    loop = asyncio.new_event_loop()
    try:
        wire = play(RealTimeScheduler(loop), program, _drive)
    finally:
        loop.close()
    model = play(Reference(), program, _drive)
    # ``now`` is wall time on one side: compare everything but it.
    strip = lambda trace: [row if row[0] == "fired" else row[:2] + row[3:] for row in trace]
    assert strip(wire) == strip(model)


def test_now_advances_with_real_time():
    async def scenario():
        scheduler = RealTimeScheduler(asyncio.get_running_loop())
        before = scheduler.now
        await asyncio.sleep(0.02)
        return before, scheduler.now

    before, after = run(scenario())
    assert before >= 0.0
    assert after > before
