"""Request batching and watermark-window pipelining (Castro–Liskov style).

The primary accumulates client requests into one ``BatchMsg`` per sequence
number; prepare/commit run once per batch; execution unpacks the batch in
its recorded order on every replica. ``batch_size=1`` (the default) must
reproduce the unbatched protocol message for message.
"""

from repro.bft.messages import BatchMsg, ClientRequest, PrePrepareMsg
from tests.bft.conftest import Harness


def submit_many(harness, count, prefix=b"req", start=0):
    """One invoke from each of ``count`` distinct clients at the same tick."""
    results = {}
    for i in range(start, start + count):
        name = f"c{i}"
        client = harness.client(name)
        client.invoke(
            prefix + str(i).encode(),
            lambda r, name=name: results.setdefault(name, r),
        )
    return results


def test_full_batch_shares_one_sequence_number():
    harness = Harness(config_overrides={"batch_size": 4, "batch_delay": 0.05})
    results = submit_many(harness, 4)
    harness.run_until(lambda: len(results) == 4)
    primary = harness.replicas[0]
    # All four requests rode one pre-prepare / one sequence number.
    assert primary.next_seq == 1
    assert primary.messages_sent.get("PrePrepareMsg", 0) == 1
    assert [seq for seq, _, _ in harness.executions(primary)] == [1, 1, 1, 1]
    # ...and completed well before the batch delay would have fired.
    assert harness.network.now < 0.05
    for i in range(4):
        assert results[f"c{i}"] == b"ok:req" + str(i).encode()


def test_underfull_batch_flushes_after_delay():
    harness = Harness(config_overrides={"batch_size": 16, "batch_delay": 0.05})
    results = submit_many(harness, 3)
    harness.run_until(lambda: len(results) == 3)
    primary = harness.replicas[0]
    assert primary.next_seq == 1  # one under-full batch of 3
    assert harness.network.now >= 0.05  # the delay gated it


def test_zero_delay_still_coalesces_same_tick_arrivals():
    # batch_delay=0: the flush timer fires after every delivery already
    # scheduled for the same instant, so simultaneous arrivals share a batch.
    harness = Harness(config_overrides={"batch_size": 16, "batch_delay": 0.0})
    results = submit_many(harness, 6)
    harness.run_until(lambda: len(results) == 6)
    primary = harness.replicas[0]
    assert primary.next_seq == 1
    assert primary.messages_sent.get("PrePrepareMsg", 0) == 1


def test_batch_execution_order_is_deterministic_across_replicas():
    harness = Harness(config_overrides={"batch_size": 8, "batch_delay": 0.05})
    results = submit_many(harness, 8)
    harness.run_until(lambda: len(results) == 8)
    histories = [harness.executions(r) for r in harness.replicas]
    assert all(h == histories[0] for h in histories[1:])
    assert len(histories[0]) == 8


def test_batch_size_one_reproduces_unbatched_message_counts():
    """The regression guard for E1–E13: defaults must be message-for-message
    identical to the pre-batching protocol."""
    harness = Harness()  # batch_size=1, batch_delay=0, pipeline_window=0
    payloads = [f"p{i}".encode() for i in range(5)]
    harness.invoke_and_run(payloads)
    primary = harness.replicas[0]
    backup = harness.replicas[1]
    # One pre-prepare per request; every batch carries exactly one request.
    assert primary.messages_sent["PrePrepareMsg"] == 5
    assert primary.messages_sent["CommitMsg"] == 5
    assert backup.messages_sent["PrepareMsg"] == 5
    assert backup.messages_sent["CommitMsg"] == 5
    for replica in harness.replicas:
        for entry in replica.log.values():
            if entry.pre_prepare is not None:
                assert len(entry.pre_prepare.batch.requests) == 1


def test_pipeline_window_caps_inflight_sequence_numbers():
    # Long view-change timeout: the stall below must not demote the primary.
    harness = Harness(
        config_overrides={
            "batch_size": 1,
            "batch_delay": 0.0,
            "pipeline_window": 2,
            "view_change_timeout": 10.0,
        }
    )
    primary = harness.replicas[0]
    # Stall execution by cutting the primary off from all commit traffic:
    # nothing ever commits, so the window fills and stays full.
    others = {r.pid for r in harness.replicas[1:]}
    harness.network.partition({primary.pid}, others)
    results = submit_many(harness, 5)
    harness.run(until=0.2)
    assert primary.next_seq - primary.last_executed == 2
    assert len(primary._batch) == 3  # the rest wait for a free slot
    # Healing lets execution advance and the queued requests flush.
    harness.network.heal()
    harness.run_until(lambda: len(results) == 5, max_events=500_000)
    assert primary.next_seq == 5


def test_watermark_blocked_requests_flush_after_checkpoint():
    # The watermark window (2 x checkpoint_interval = 4 here) bounds
    # in-flight seqs even without a pipeline_window.
    harness = Harness(
        config_overrides={"checkpoint_interval": 2, "batch_size": 1}
    )
    results = submit_many(harness, 8)
    harness.run_until(lambda: len(results) == 8, max_events=500_000)
    primary = harness.replicas[0]
    assert primary.next_seq == 8
    assert primary.stable_seq >= 4  # checkpoints advanced the watermark


def test_view_change_reproposes_uncommitted_batch():
    """A batch that PREPARED but did not commit must be re-proposed intact
    (same requests, same sequence number) by the new primary."""
    harness = Harness(config_overrides={"batch_size": 2, "batch_delay": 0.05})
    primary = harness.replicas[0]
    # Keep the pre-prepare away from r3, then crash the primary before its
    # own commit goes out: r1/r2 reach PREPARED with only two commits —
    # short of the quorum of three — so only a view change can finish it.
    harness.network.partition({primary.pid}, {harness.replicas[3].pid})
    results = submit_many(harness, 2)
    harness.run(until=0.0025)
    assert primary.next_seq == 1  # the batch went out
    primary.crash()
    harness.run_until(lambda: len(results) == 2, max_events=500_000)
    live = [r for r in harness.replicas if not r.crashed]
    for replica in live:
        assert replica.view >= 1
        # Both requests executed exactly once, sharing one sequence number.
        seqs = [seq for seq, _, _ in harness.executions(replica)]
        assert len(seqs) == 2 and len(set(seqs)) == 1
        assert harness.executions(replica) == harness.executions(live[0])


def test_view_change_folds_unflushed_batch_into_pending():
    """Requests still accumulating in the primary's batch when a view
    change starts are returned to the pending list, not lost."""
    harness = Harness(config_overrides={"batch_size": 16, "batch_delay": 5.0})
    primary = harness.replicas[0]
    submit_many(harness, 3)
    harness.run(until=0.01)
    assert len(primary._batch) == 3  # accumulating, delay far away
    assert primary._batch_timer is not None
    primary._start_view_change(1)
    assert primary._batch == []
    assert len(primary.pending_requests) == 3
    assert primary._batch_timer is None


def test_retransmit_tick_force_flushes_stranded_batch():
    """Liveness guard: an under-full batch whose delay is absurdly long
    still flushes on the retransmission tick, so a misconfigured delay can
    slow the group down but never wedge it."""
    harness = Harness(config_overrides={"batch_size": 16, "batch_delay": 60.0})
    results = submit_many(harness, 3)
    harness.run_until(lambda: len(results) == 3, max_events=500_000)
    # Flushed by the tick (one view_change_timeout), far before batch_delay.
    assert harness.network.now < 1.0


def test_restart_clears_batch_timer():
    harness = Harness(config_overrides={"batch_size": 16, "batch_delay": 0.5})
    primary = harness.replicas[0]
    submit_many(harness, 1)
    harness.run(until=0.01)
    assert primary._batch_timer is not None
    primary.crash()
    primary.restart()
    assert primary._batch_timer is None
    # The retransmission tick force-flushes the stranded batch if the
    # request is re-delivered (client retry handles that path end to end).


def test_empty_batch_fills_view_change_gaps():
    batch = BatchMsg(requests=())
    assert batch.wire_size() > 0
    assert batch.content_digest() != BatchMsg(
        requests=(ClientRequest(client_id="c", timestamp=1, payload=b""),)
    ).content_digest()
    # Executing an empty batch is a no-op that still advances last_executed.
    harness = Harness()
    replica = harness.replicas[1]
    pre_prepare = PrePrepareMsg(
        view=0, seq=1, request_digest=batch.content_digest(),
        batch=batch, sender="grp-r0",
    )
    from repro.bft.messages import CommitMsg

    replica.deliver("grp-r0", pre_prepare)
    for sender in ("grp-r0", "grp-r2", "grp-r3"):
        replica.deliver(
            sender,
            CommitMsg(
                view=0, seq=1, request_digest=batch.content_digest(), sender=sender
            ),
        )
    # Needs 2f prepares too; feed them.
    from repro.bft.messages import PrepareMsg

    for sender in ("grp-r2", "grp-r3"):
        replica.deliver(
            sender,
            PrepareMsg(
                view=0, seq=1, request_digest=batch.content_digest(), sender=sender
            ),
        )
    assert replica.last_executed == 1
    assert harness.executions(replica) == []  # nothing application-visible ran


def test_client_max_outstanding_queues_and_drains():
    harness = Harness(config_overrides={"batch_size": 4, "batch_delay": 0.01})
    client = harness.client("cap")
    client.engine.max_outstanding = 1
    results = []
    for i in range(6):
        client.invoke(f"q{i}".encode(), results.append)
    assert client.engine.outstanding == 1
    assert client.engine.queued == 5
    harness.run_until(lambda: len(results) == 6, max_events=500_000)
    # One-outstanding discipline: completions arrive in submission order.
    assert results == [b"ok:q" + str(i).encode() for i in range(6)]
    assert client.engine.queued == 0
