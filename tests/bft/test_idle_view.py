"""An idle group holds its view (Castro–Liskov's view-change timer rule).

A backup's view-change timer runs only while a view change is in flight or
a request it accepted is outstanding — one whose timestamp its client table
has not reached. Each test ends the same way: no traffic for a minute, and
no live replica may change view or sit in a view change.
"""

from repro.bft.messages import ClientRequest
from tests.bft.conftest import Harness
from tests.bft.test_safety_property import SLOW_HEAL, play

IDLE = 60.0


def assert_idle_minute_holds_view(harness):
    live = [r for r in harness.replicas if not r.crashed]
    views = {r.pid: r.view for r in live}
    harness.run(until=harness.network.now + IDLE, max_events=1_000_000)
    assert {r.pid: r.view for r in live} == views
    assert not any(r.in_view_change for r in live)


def test_slow_heal_then_idle_minute_holds_the_view():
    harness, completed, invoked = play(SLOW_HEAL, seed=0)
    assert len(completed) == invoked == 2
    assert_idle_minute_holds_view(harness)


def test_joined_view_change_leaves_no_timer_behind():
    """The f+1 join rule fires while the replica's own timer runs; once the
    new view is entered, that timer must not fire into it."""
    harness = Harness()
    primary, r1, r2, late = harness.replicas
    primary.crash()
    harness.network.partition({late.pid}, {"first", r1.pid, r2.pid})
    # "first" reaches r1 and r2 on its retry broadcast (t = 0.5); "late"
    # reaches every backup on its own (t = 0.6), after the heal.
    done = []
    harness.client("first").invoke(b"a", done.append)
    harness.run(until=0.1)
    harness.client("second").invoke(b"b", done.append)
    harness.run(until=0.55)
    harness.network.heal()
    harness.run(until=0.7)
    assert late._vc_timer is not None and not late.in_view_change
    # r1 and r2 time out at 0.75; their two view changes (f+1) pull `late`
    # into view 1 before its own timer expires.
    harness.run(until=0.8)
    assert late.view == 1 and not late.in_view_change
    harness.run_until(lambda: len(done) == 2)
    assert_idle_minute_holds_view(harness)


def test_superseded_request_is_not_outstanding(harness):
    """A backup accepted ts=1, which the group never orders; the client's
    ts=2 executes, so nothing of that client is outstanding any more."""
    primary, backup = harness.replicas[:2]
    client = harness.client()
    harness.network.partition({backup.pid}, {primary.pid})  # relay is lost
    client.send(
        backup.pid, ClientRequest(client_id=client.pid, timestamp=1, payload=b"lost")
    )
    harness.run(until=0.01)
    harness.network.heal()
    request = ClientRequest(client_id=client.pid, timestamp=2, payload=b"next")
    for replica in harness.replicas:
        client.send(replica.pid, request)
    harness.run_until(lambda: all(r.last_executed == 1 for r in harness.replicas))
    assert [ts for _, _, ts in harness.executions(backup)] == [2]
    assert not backup._awaiting
    assert_idle_minute_holds_view(harness)
