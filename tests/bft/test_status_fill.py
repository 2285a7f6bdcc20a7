"""Status beacons and log fill: lagging replicas recover without a stable
checkpoint (the Castro–Liskov status/retransmission mechanism)."""

import pytest

from repro.bft.messages import BatchMsg, FillMsg, PrePrepareMsg, ClientRequest
from tests.bft.conftest import Harness


def test_lagging_replica_filled_before_any_checkpoint():
    """With checkpoint_interval large, a replica that missed traffic can
    only catch up via log fill — and it does."""
    harness = Harness(config_overrides={"checkpoint_interval": 1000})
    lagger = harness.replicas[3]
    others = {r.pid for r in harness.replicas[:3]}
    harness.network.partition({lagger.pid}, others)
    harness.invoke_and_run([f"op{i}".encode() for i in range(5)])
    assert lagger.last_executed == 0
    harness.network.heal()
    # Status beacons fire on the retransmit tick; give them time.
    harness.run(until=harness.network.now + 3.0)
    assert lagger.last_executed == 5
    assert harness.executions(lagger) == harness.executions(harness.replicas[0])


def evil_pre_prepare(request_digest=None):
    request = ClientRequest(client_id="c", timestamp=1, payload=b"evil")
    batch = BatchMsg(requests=(request,))
    return PrePrepareMsg(
        view=0, seq=1, request_digest=request_digest or batch.content_digest(),
        batch=batch, sender="grp-r0",
    )


def fill(replica, pre_prepare, *fillers):
    for filler in fillers:
        replica.deliver(filler, FillMsg(entries=(pre_prepare,), sender=filler))


def test_fill_rejects_inconsistent_certificate():
    """One filler is not enough; f+1 = 2 distinct fillers are."""
    harness = Harness()
    replica = harness.replicas[1]
    pre_prepare = evil_pre_prepare()
    fill(replica, pre_prepare, "grp-r0", "grp-r0")
    assert replica.last_executed == 0
    fill(replica, pre_prepare, "grp-r2")
    assert replica.last_executed == 1


def test_fill_rejects_digest_mismatch():
    """f+1 fillers of a pre-prepare whose digest is not its batch's are
    still not enough; f+1 fillers of the consistent one are."""
    harness = Harness()
    replica = harness.replicas[1]
    fill(replica, evil_pre_prepare(request_digest=b"\x00" * 32), "grp-r0", "grp-r2", "grp-r3")
    assert replica.last_executed == 0
    fill(replica, evil_pre_prepare(), "grp-r0", "grp-r2")
    assert replica.last_executed == 1


def test_fill_rejects_foreign_commit_senders():
    """Fillers outside the group vouch for nothing; f+1 replicas do."""
    harness = Harness()
    replica = harness.replicas[1]
    pre_prepare = evil_pre_prepare()
    fill(replica, pre_prepare, "grp-r0", "intruder-1", "intruder-2", "intruder-3")
    assert replica.last_executed == 0
    fill(replica, pre_prepare, "grp-r3")
    assert replica.last_executed == 1


def test_bft_progress_under_sustained_loss():
    """Raw BFT group under 15% loss: ordering still completes."""
    harness = Harness(seed=9)
    harness.network.config.drop_probability = 0.15
    results = harness.invoke_and_run(
        [f"lossy-{i}".encode() for i in range(8)], until=None
    )
    assert results == [b"ok:lossy-" + str(i).encode() for i in range(8)]
    harness.run(until=harness.network.now + 5.0)
    # Every live replica converges on a consistent history: a replica may
    # have jumped over a range via state transfer, but everything it DID
    # execute matches the full history at the same sequence numbers.
    histories = [harness.executions(r) for r in harness.replicas]
    lengths = [len(h) for h in histories]
    assert max(lengths) == 8
    full = {seq: (client, ts) for seq, client, ts in max(histories, key=len)}
    for history in histories:
        for seq, client, ts in history:
            assert full[seq] == (client, ts)
        # And each history is ordered by sequence number.
        seqs = [seq for seq, _, _ in history]
        assert seqs == sorted(seqs)


def test_duplicate_pre_prepare_triggers_prepare_resend():
    """A re-multicast pre-prepare makes backups re-contribute prepares —
    the loss-recovery path for lost prepare messages."""
    harness = Harness()
    harness.invoke_and_run([b"x"])
    harness.run(until=harness.network.now + 1.0)
    backup = harness.replicas[1]
    sent_before = backup.messages_sent.get("PrepareMsg", 0)
    primary = harness.replicas[0]
    entry = None
    # The entry is executed; duplicates of executed entries need no resend.
    # Instead check the in-flight case: inject a fresh pre-prepare twice.
    from repro.bft.messages import PrePrepareMsg, ClientRequest

    request = ClientRequest(client_id="cx", timestamp=1, payload=b"fresh")
    batch = BatchMsg(requests=(request,))
    pre_prepare = PrePrepareMsg(
        view=0, seq=2, request_digest=batch.content_digest(),
        batch=batch, sender=primary.pid,
    )
    backup.deliver(primary.pid, pre_prepare)
    first = backup.messages_sent.get("PrepareMsg", 0)
    backup.deliver(primary.pid, pre_prepare)
    second = backup.messages_sent.get("PrepareMsg", 0)
    assert first == sent_before + 1
    assert second == first + 1  # duplicate triggered a resend
