"""View changes: replacing a faulty primary while preserving committed work."""

from repro.chaos.byzantine import EquivocatingPrimaryReplica, StutteringPrimaryReplica
from tests.bft.conftest import Harness


def primary_id(harness, view=0):
    return harness.config.primary_of_view(view)


def test_crashed_primary_triggers_view_change_and_progress():
    harness = Harness()
    harness.replicas[0].crash()  # replica 0 is the view-0 primary
    results = harness.invoke_and_run([b"survive"])
    assert results == [b"ok:survive"]
    live = [r for r in harness.replicas if not r.crashed]
    assert all(r.view >= 1 for r in live)
    assert harness.config.primary_of_view(live[0].view) != harness.replicas[0].pid


def test_stuttering_primary_replaced():
    byzantine = {"grp-r0": StutteringPrimaryReplica}
    harness = Harness(byzantine=byzantine)
    results = harness.invoke_and_run([b"a", b"b"])
    assert results == [b"ok:a", b"ok:b"]
    assert harness.replicas[1].view >= 1


def test_equivocating_primary_cannot_fork_order():
    byzantine = {"grp-r0": EquivocatingPrimaryReplica}
    harness = Harness(byzantine=byzantine)
    results = harness.invoke_and_run([b"a", b"b", b"c"])
    assert sorted(results) == sorted([b"ok:a", b"ok:b", b"ok:c"])
    harness.run(until=harness.network.now + 2.0)
    # All correct replicas agree on one execution history.
    correct = harness.replicas[1:]
    histories = [harness.executions(r) for r in correct]
    assert all(h == histories[0] for h in histories)
    # No sequence number executed twice.
    seqs = [seq for seq, _, _ in histories[0]]
    assert len(seqs) == len(set(seqs))


def test_work_committed_before_view_change_survives():
    harness = Harness()
    results = harness.invoke_and_run([b"pre-1", b"pre-2"])
    assert len(results) == 2
    harness.replicas[0].crash()
    more = harness.invoke_and_run([b"post-1"], client_name="client2")
    assert more == [b"ok:post-1"]
    harness.run(until=harness.network.now + 2.0)
    live = [r for r in harness.replicas if not r.crashed]
    for replica in live:
        timestamps = [(c, t) for _, c, t in harness.executions(replica)]
        assert ("client", 1) in timestamps
        assert ("client", 2) in timestamps
        assert ("client2", 1) in timestamps


def test_successive_primary_failures():
    harness = Harness()
    harness.replicas[0].crash()
    harness.replicas[1].crash()  # next primary too; f=1 so this is the limit
    # With two crashed out of four, quorum of 3 is unreachable: no progress.
    client = harness.client()
    results = []
    client.invoke(b"x", results.append)
    harness.run(until=8.0)
    assert results == []


def test_view_change_then_normal_operation_continues():
    harness = Harness()
    harness.replicas[0].crash()
    first = harness.invoke_and_run([b"after-vc"])
    assert first == [b"ok:after-vc"]
    # Steady state in the new view: several more requests, same order.
    more = harness.invoke_and_run([f"steady-{i}".encode() for i in range(5)])
    assert more == [b"ok:steady-" + str(i).encode() for i in range(5)]
    live = [r for r in harness.replicas if not r.crashed]
    histories = [harness.executions(r) for r in live]
    assert all(h == histories[0] for h in histories)


def test_view_number_monotonic_per_replica():
    harness = Harness()
    harness.replicas[0].crash()
    harness.invoke_and_run([b"x"])
    views = [r.view for r in harness.replicas if not r.crashed]
    assert all(v >= 1 for v in views)
