"""PBFT normal-case operation: ordering, execution, replies."""

import pytest

from repro.bft.messages import ClientRequest
from tests.bft.conftest import Harness


def test_single_request_executes_on_all_replicas(harness):
    client = harness.client()
    results = []
    client.invoke(b"op-1", results.append)
    harness.run_until(lambda: results)
    assert results == [b"ok:op-1"]
    harness.run(until=harness.network.now + 1.0)
    for replica in harness.replicas:
        assert replica.last_executed == 1
        assert [e[0] for e in harness.executions(replica)] == [1]


def test_requests_execute_in_total_order(harness):
    payloads = [f"op-{i}".encode() for i in range(10)]
    results = harness.invoke_and_run(payloads)
    assert results == [b"ok:" + p for p in payloads]
    harness.run(until=harness.network.now + 1.0)
    orders = []
    for replica in harness.replicas:
        executed_payloads = [
            (seq, client, ts)
            for (seq, client, ts) in harness.executions(replica)
        ]
        orders.append(executed_payloads)
    assert all(order == orders[0] for order in orders)
    assert [seq for seq, _, _ in orders[0]] == list(range(1, 11))


def test_interleaved_clients_agree_on_order(harness):
    c1, c2 = harness.client("c1"), harness.client("c2")
    done = []
    for i in range(5):
        c1.invoke(f"a{i}".encode(), done.append)
        c2.invoke(f"b{i}".encode(), done.append)
    harness.run_until(lambda: len(done) == 10)
    harness.run(until=harness.network.now + 1.0)
    sequences = [
        [(seq, client, ts) for seq, client, ts in harness.executions(replica)]
        for replica in harness.replicas
    ]
    assert all(s == sequences[0] for s in sequences)
    assert len(sequences[0]) == 10


def test_client_needs_f_plus_1_matching_replies(harness):
    client = harness.client()
    results = []
    client.invoke(b"x", results.append)
    # With f=1, two matching replies suffice; run until done and check the
    # client did not wait for all four.
    harness.run_until(lambda: results)
    assert results == [b"ok:x"]


def test_duplicate_request_not_executed_twice(harness):
    client = harness.client()
    results = []
    client.invoke(b"only-once", results.append)
    harness.run_until(lambda: results)
    # Re-send the identical request (simulating a retransmission after the
    # reply was already accepted).
    request = ClientRequest(client_id=client.pid, timestamp=1, payload=b"only-once")
    for replica in harness.replicas:
        client.send(replica.pid, request)
    harness.run(until=harness.network.now + 1.0)
    for replica in harness.replicas:
        assert replica.last_executed == 1
        assert len(harness.executions(replica)) == 1


def test_retransmitted_request_gets_cached_reply(harness):
    client = harness.client()
    results = []
    client.invoke(b"cached", results.append)
    harness.run_until(lambda: results)
    # Forge the same pending op to force acceptance of a second reply set.
    replies_before = harness.network.stats.messages_sent
    request = ClientRequest(client_id=client.pid, timestamp=1, payload=b"cached")
    client.send(harness.replicas[0].pid, request)
    harness.run(until=harness.network.now + 1.0)
    assert harness.network.stats.messages_sent > replies_before  # reply resent


def test_message_counts_quadratic_in_group(harness):
    """The §3.2 premise: ordering costs O(n^2) messages per request."""
    harness.invoke_and_run([b"m"])
    harness.run(until=harness.network.now + 1.0)
    n = harness.config.n
    prepares = sum(r.messages_sent.get("PrepareMsg", 0) for r in harness.replicas)
    commits = sum(r.messages_sent.get("CommitMsg", 0) for r in harness.replicas)
    assert prepares == n - 1  # every backup
    assert commits == n  # every replica
    # Each multicast fans out to n receivers -> n*(n-1)+n^2 point deliveries.


def test_progress_with_one_crashed_backup(harness):
    backup = harness.replicas[2]
    backup.crash()
    results = harness.invoke_and_run([b"a", b"b", b"c"])
    assert results == [b"ok:a", b"ok:b", b"ok:c"]


def test_no_progress_with_f_plus_1_crashes(harness):
    harness.replicas[1].crash()
    harness.replicas[2].crash()
    client = harness.client()
    results = []
    client.invoke(b"stuck", results.append)
    harness.run(until=5.0)
    assert results == []  # cannot commit without a 2f+1 quorum


def test_f_zero_single_replica_group():
    harness = Harness(f=0)
    results = harness.invoke_and_run([b"solo"])
    assert results == [b"ok:solo"]


def test_f_two_group_of_seven():
    harness = Harness(f=2)
    results = harness.invoke_and_run([b"x", b"y"])
    assert results == [b"ok:x", b"ok:y"]
    harness.replicas[3].crash()
    harness.replicas[5].crash()
    assert harness.invoke_and_run([b"z"]) == [b"ok:z"]


def test_replies_come_from_distinct_replicas(harness):
    client = harness.client()
    seen = {}
    original = client.on_message

    def spy(src, payload):
        seen.setdefault(src, 0)
        seen[src] += 1
        original(src, payload)

    client.on_message = spy
    results = []
    client.invoke(b"q", results.append)
    harness.run_until(lambda: results)
    harness.run(until=harness.network.now + 1.0)
    assert len(seen) == harness.config.n  # all replicas replied eventually
