"""Checkpointing, log garbage collection, and the watermark window."""

from tests.bft.conftest import Harness


def test_log_garbage_collected_after_checkpoint(harness):
    # checkpoint_interval=4: after 8 requests the stable point reaches 8.
    harness.invoke_and_run([f"op{i}".encode() for i in range(9)])
    harness.run(until=harness.network.now + 2.0)
    for replica in harness.replicas:
        assert replica.stable_seq == 8
        assert all(seq > 8 for seq in replica.log)


def test_checkpoint_quorum_required(harness):
    # Crash 2 replicas after initial agreement: remaining 2 < quorum of 3,
    # so no new checkpoint can stabilise.
    harness.invoke_and_run([b"a", b"b", b"c", b"d"])  # seq 4: checkpoint fires
    harness.run(until=harness.network.now + 2.0)
    assert harness.replicas[0].stable_seq == 4


def test_stable_proof_retained(harness):
    """What a replica keeps of a stable checkpoint is what it reads: the seq,
    and its own snapshot at it (the one a state request is answered from),
    the same on every replica; the quorum's checkpoint messages are dropped."""
    harness.invoke_and_run([f"{i}".encode() for i in range(4)])
    harness.run(until=harness.network.now + 2.0)
    checkpoints = [replica.stable_checkpoint() for replica in harness.replicas]
    assert {seq for seq, _ in checkpoints} == {4}
    assert len({snapshot for _, snapshot in checkpoints}) == 1 and checkpoints[0][1]
    for replica in harness.replicas:
        assert replica.stable_seq == 4 and list(replica._own_snapshots) == [4]
        assert all(seq > 4 for seq in replica._checkpoints)


def test_window_limits_in_flight_requests():
    # Small window: interval 2 -> window 4. Fire many requests at once; all
    # must still execute (buffered at the primary, drained as the window
    # slides).
    harness = Harness(config_overrides={"checkpoint_interval": 2})
    client = harness.client()
    results = []
    for i in range(12):
        client.invoke(f"b{i}".encode(), results.append)
    harness.run_until(lambda: len(results) == 12, max_events=500_000)
    assert len(results) == 12
    harness.run(until=harness.network.now + 2.0)
    for replica in harness.replicas:
        assert replica.last_executed == 12


def test_checkpoint_interval_one():
    harness = Harness(config_overrides={"checkpoint_interval": 1})
    harness.invoke_and_run([b"x", b"y"])
    harness.run(until=harness.network.now + 2.0)
    for replica in harness.replicas:
        assert replica.stable_seq == 2
        assert replica.last_executed == 2


def test_snapshots_pruned(harness):
    harness.invoke_and_run([f"{i}".encode() for i in range(9)])
    harness.run(until=harness.network.now + 2.0)
    replica = harness.replicas[0]
    assert set(replica._own_snapshots) == {8}
