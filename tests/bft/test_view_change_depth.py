"""Deeper view-change correctness: certificate carry-over and cascades."""

import pytest

from repro.bft.faults import StutteringPrimaryReplica
from tests.bft.conftest import Harness


def test_prepared_request_carries_into_new_view():
    """A request that PREPARED (but did not commit) before the view change
    must be re-proposed at the same sequence number in the new view."""
    harness = Harness()
    # Let one request fully commit so the log has a baseline.
    harness.invoke_and_run([b"committed"])
    harness.run(until=harness.network.now + 1.0)
    # Now inject a request and crash the primary after PREPARE quorum forms
    # but before COMMIT quorum: partition the primary from two backups
    # after it pre-prepares.
    client = harness.client("c2")
    results = []
    client.invoke(b"prepared-only", results.append)
    # Run just enough for pre-prepare + prepares to flow (fixed 1ms links:
    # request->primary 1ms, pre-prepare 1ms, prepares 1ms).
    harness.run(until=harness.network.now + 0.0035)
    harness.replicas[0].crash()
    harness.run_until(lambda: bool(results), max_events=500_000)
    assert results == [b"ok:prepared-only"]
    live = [r for r in harness.replicas if not r.crashed]
    # All live replicas executed it exactly once, at the same seq.
    seqs = set()
    for replica in live:
        matching = [
            seq
            for seq, client_id, ts in harness.executions(replica)
            if client_id == "c2"
        ]
        assert len(matching) == 1
        seqs.add(matching[0])
    assert len(seqs) == 1


def test_cascade_of_stuttering_primaries_f2():
    """f=2: the first two primaries stutter; the third view makes progress."""
    byzantine = {"grp-r0": StutteringPrimaryReplica, "grp-r1": StutteringPrimaryReplica}
    harness = Harness(f=2, byzantine=byzantine)
    results = harness.invoke_and_run([b"through"])
    assert results == [b"ok:through"]
    honest = [r for r in harness.replicas if r.pid not in byzantine]
    assert all(r.view >= 2 for r in honest)


def test_view_change_timeout_escalates_then_relaxes():
    harness = Harness()
    replica = harness.replicas[1]
    base = replica.config.view_change_timeout
    assert replica._vc_timeout == base
    replica._consecutive_view_changes = 3
    assert replica._vc_timeout == base * 8
    replica._consecutive_view_changes = 100
    assert replica._vc_timeout == base * 256  # capped
    # Normal traffic resets the escalation.
    harness.invoke_and_run([b"x"])
    harness.run(until=harness.network.now + 1.0)
    assert replica._consecutive_view_changes == 0


def test_client_learns_new_view_from_replies():
    harness = Harness()
    harness.replicas[0].crash()
    client = harness.client()
    results = []
    client.invoke(b"a", results.append)
    harness.run_until(lambda: bool(results))
    assert client.engine._view_estimate >= 1
    # The next request goes straight to the new primary (no broadcast).
    sent_before = harness.network.stats.messages_sent
    done = []
    client.invoke(b"b", done.append)
    harness.run_until(lambda: bool(done))
    assert done == [b"ok:b"]


def test_executed_requests_never_reexecuted_across_views():
    harness = Harness()
    results = harness.invoke_and_run([b"once-1", b"once-2"])
    harness.replicas[0].crash()
    more = harness.invoke_and_run([b"once-3"], client_name="c2")
    harness.run(until=harness.network.now + 2.0)
    for replica in harness.replicas[1:]:
        timestamps = [(c, t) for _, c, t in harness.executions(replica)]
        assert len(timestamps) == len(set(timestamps))  # no double execution
