"""State transfer: a lagging or diverged replica catches up from peers."""

from repro.bft.messages import BftReply, ClientRequest
from tests.bft.conftest import Harness
from tests.equivalence import armed_timers


class CountingApp:
    """Tiny replicated application with snapshot/restore support."""

    def __init__(self):
        self.total = 0

    def execute(self, payload, seq, client_id, timestamp):
        self.total += int(payload or b"0")
        return str(self.total).encode()

    def snapshot(self):
        return str(self.total).encode()

    def restore(self, snapshot, seq):
        self.total = int(snapshot or b"0")


def make_app_harness():
    harness = Harness()
    apps = {}
    for replica in harness.replicas:
        app = CountingApp()
        apps[replica.pid] = app
        replica.execute_fn = app.execute
        replica.snapshot_fn = app.snapshot
        replica.restore_fn = app.restore
    return harness, apps


def test_partitioned_replica_catches_up_via_state_transfer():
    harness, apps = make_app_harness()
    lagger = harness.replicas[3]
    others = {r.pid for r in harness.replicas[:3]}
    harness.network.partition({lagger.pid}, others)
    # 8 increments -> two checkpoints (interval 4) while r3 is cut off.
    results = harness.invoke_and_run([b"1"] * 8)
    assert results[-1] == b"8"
    assert lagger.last_executed == 0
    harness.network.heal()
    # More traffic makes the healed replica see checkpoints beyond its state.
    harness.invoke_and_run([b"1"] * 4, client_name="client2")
    harness.run(until=harness.network.now + 3.0)
    assert lagger.last_executed >= 8
    assert apps[lagger.pid].total >= 8


def test_caught_up_replica_rejoins_protocol():
    harness, apps = make_app_harness()
    lagger = harness.replicas[3]
    others = {r.pid for r in harness.replicas[:3]}
    harness.network.partition({lagger.pid}, others)
    harness.invoke_and_run([b"2"] * 8)
    harness.network.heal()
    harness.invoke_and_run([b"2"] * 8, client_name="client2")
    harness.run(until=harness.network.now + 3.0)
    # The lagger participates again and its application state matches.
    totals = {pid: app.total for pid, app in apps.items()}
    assert totals[lagger.pid] == max(totals.values())


def test_state_response_with_bad_snapshot_ignored():
    harness, apps = make_app_harness()
    from repro.bft.messages import StateRequestMsg, StateResponseMsg, StatusMsg

    lagger = harness.replicas[3]
    others = {r.pid for r in harness.replicas[:3]}
    harness.network.partition({lagger.pid}, others)
    harness.invoke_and_run([b"1"] * 8)
    harness.network.heal()
    # The first candidate the lagger will ask never answers, and nobody
    # pushes state at it unasked (peers do that on a StatusMsg from a
    # replica behind their checkpoint) — only the pull can complete.
    harness.replicas[0]._handlers[StateRequestMsg] = lambda src, msg: None
    mcast = lagger._mcast
    lagger._mcast = lambda m: None if isinstance(m, StatusMsg) else mcast(m)
    harness.invoke_and_run([b"1"] * 4, client_name="client2")
    harness.run_until(lambda: lagger._state_transfer_pending)
    assert lagger.messages_sent["StateRequestMsg"] == 1

    forged = StateResponseMsg(
        stable_seq=100,
        snapshot=b"999999",
        checkpoint_proof=(),
        sender=harness.replicas[1].pid,
    )
    lagger.deliver(harness.replicas[1].pid, forged)
    assert lagger.last_executed == 0
    assert apps[lagger.pid].total == 0
    # Junk neither cancels the transfer nor the retry that rotates to the
    # next candidate, which completes it.
    assert lagger._state_transfer_pending
    harness.run(until=harness.network.now + 3.0)
    assert lagger.messages_sent["StateRequestMsg"] == 2
    assert not lagger._state_transfer_pending
    assert lagger.last_executed >= 8
    assert apps[lagger.pid].total >= 8


def test_state_response_with_insufficient_proof_ignored():
    harness, apps = make_app_harness()
    from repro.bft.messages import CheckpointMsg, StateResponseMsg
    from repro.crypto.digests import digest

    snapshot = b"424242"
    proof = (
        CheckpointMsg(seq=100, state_digest=digest(snapshot), sender="grp-r1"),
        CheckpointMsg(seq=100, state_digest=digest(snapshot), sender="grp-r2"),
    )  # only 2 < quorum of 3
    forged = StateResponseMsg(
        stable_seq=100,
        snapshot=snapshot,
        checkpoint_proof=proof,
        sender="grp-r1",
    )
    harness.replicas[0].deliver("grp-r1", forged)
    assert harness.replicas[0].last_executed == 0
    assert apps[harness.replicas[0].pid].total == 0


def test_state_response_from_foreign_senders_ignored():
    harness, apps = make_app_harness()
    from repro.bft.messages import CheckpointMsg, StateResponseMsg
    from repro.crypto.digests import digest

    snapshot = b"777"
    proof = tuple(
        CheckpointMsg(seq=50, state_digest=digest(snapshot), sender=f"intruder-{i}")
        for i in range(3)
    )
    forged = StateResponseMsg(
        stable_seq=50,
        snapshot=snapshot,
        checkpoint_proof=proof,
        sender="grp-r1",
    )
    harness.replicas[0].deliver("grp-r1", forged)
    assert harness.replicas[0].last_executed == 0


def test_state_transfer_carries_the_client_table():
    harness, _apps = make_app_harness()
    lagger = harness.replicas[3]
    others = {r.pid for r in harness.replicas[:3]}
    harness.network.partition({lagger.pid}, others)
    harness.invoke_and_run([b"1"] * 3, client_name="a")
    harness.invoke_and_run([b"1"] * 9, client_name="b")
    harness.network.heal()
    harness.run(until=harness.network.now + 5.0)
    assert all(r.last_executed == 12 for r in harness.replicas)
    assert all(r.client_table["a"][0] == 3 for r in harness.replicas[:3])
    assert lagger.client_table.get("a", (0, b""))[0] == 3
    # A retransmit of a's last request is a duplicate to the caught-up
    # replica too: it answers from its own pid with the peers' result and
    # does not count the request as outstanding.
    sent = []
    lagger._p2p = lambda dst, message: sent.append((dst, message))
    lagger.deliver("a", ClientRequest(client_id="a", timestamp=3, payload=b"1"))
    [(dst, reply)] = sent
    assert dst == "a" and isinstance(reply, BftReply)
    assert (reply.sender, reply.timestamp) == (lagger.pid, 3)
    assert reply.result == harness.replicas[0].client_table["a"][1]
    assert "_vc_timer" not in armed_timers(lagger)


def test_adopting_an_older_checkpoint_keeps_a_later_client_entry():
    harness, _apps = make_app_harness()
    harness.invoke_and_run([b"1"] * 2, client_name="a")
    harness.invoke_and_run([b"1"] * 2, client_name="b")
    harness.run(until=harness.network.now + 1.0)
    seq, snapshot, proof = harness.replicas[0].stable_checkpoint()
    assert seq == 4
    # A fresh replica of the same group whose application is already past
    # the checkpoint for client a, as after a recovery-level catch-up.
    fresh, _ = make_app_harness()
    joiner = fresh.replicas[3]
    joiner.client_table["a"] = (9, b"later")
    assert joiner.adopt_stable_checkpoint(seq, snapshot, proof)
    assert joiner.stable_seq == 4
    assert joiner.client_table["a"] == (9, b"later")
    assert joiner.client_table["b"] == harness.replicas[0].client_table["b"]
