"""Catch-up: a lagging or diverged replica fetches its way back from peers
in one round (:mod:`repro.bft.catchup`)."""

import dataclasses

from repro.bft.auth import HmacAuth
from repro.bft.messages import (
    BftReply,
    CatchUpRequest,
    CatchUpResponse,
    CheckpointMsg,
    ClientRequest,
)
from repro.bft.replica import build_group
from repro.crypto.signing import HmacAuthenticator
from repro.sim import FixedLatency, Network, NetworkConfig
from tests.bft.conftest import make_config
from tests.bft.conftest import Harness
from tests.equivalence import armed_timers, same_state, state_of


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
    lagger = harness.replicas[3]
    others = {r.pid for r in harness.replicas[:3]}
    harness.network.partition({lagger.pid}, others)
    harness.invoke_and_run([b"1"] * 8)
    harness.network.heal()
    # r0 never answers, so r1 and r2 are the only honest responders.
    harness.replicas[0]._handlers[CatchUpRequest] = lambda src, msg: None
    harness.invoke_and_run([b"1"] * 4, client_name="client2")
    harness.run_until(lambda: lagger.catch_up.active)
    assert lagger.messages_sent["CatchUpRequest"] == 3  # one attempt, every peer

    forged = CatchUpResponse(
        attempt=1, stable_seq=100, checkpoint=b"999999", blob=b"",
        sender=harness.replicas[1].pid,
    )
    lagger.deliver(harness.replicas[1].pid, forged)
    assert lagger.last_executed == 0
    assert apps[lagger.pid].total == 0
    # Junk neither ends the round nor the attempt: the honest answers that
    # follow (r1's replaces its junk) complete it.
    assert lagger.catch_up.active and lagger.catch_up.attempt == 1
    harness.run(until=harness.network.now + 3.0)
    assert lagger.messages_sent["CatchUpRequest"] == 3
    assert not lagger.catch_up.active
    assert lagger.last_executed >= 8
    assert apps[lagger.pid].total >= 8


def respond(replica, sender, checkpoint=b"424242", seq=100):
    replica.deliver(sender, CatchUpResponse(
        attempt=replica.catch_up.attempt, stable_seq=seq, checkpoint=checkpoint,
        blob=b"", sender=sender,
    ))


def test_state_response_with_insufficient_proof_ignored():
    """A response outside a round is nobody's answer; in a round, one
    responder is one voucher and the first attempts need 2f+1 = 3."""
    harness, apps = make_app_harness()
    replica = harness.replicas[0]
    respond(replica, "grp-r1")
    replica.catch_up.start()
    respond(replica, "grp-r1")
    assert replica.last_executed == 0
    assert apps[replica.pid].total == 0


def test_state_response_from_foreign_senders_ignored():
    """One response from a replica, the same from non-members: the
    non-members vouch for nothing, so the one response stays alone."""
    harness, apps = make_app_harness()
    replica = harness.replicas[0]
    replica.catch_up.start()
    for sender in ("grp-r1", "intruder-1", "intruder-2"):
        respond(replica, sender, checkpoint=b"777", seq=50)
    assert list(replica.catch_up._responses) == ["grp-r1"]
    assert replica.last_executed == 0


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
    seq, snapshot = harness.replicas[0].stable_checkpoint()
    assert seq == 4
    # A fresh replica of the same group whose application is already past
    # the checkpoint for client a, as after a recovery-level catch-up.
    fresh, _ = make_app_harness()
    joiner = fresh.replicas[3]
    joiner.client_table["a"] = (9, b"later")
    assert joiner.adopt_stable_checkpoint(seq, snapshot)
    assert joiner.stable_seq == 4
    assert joiner.client_table["a"] == (9, b"later")
    assert joiner.client_table["b"] == harness.replicas[0].client_table["b"]


def test_a_replica_wrong_at_an_executed_seq_restores_and_re_executes():
    """r3's application goes wrong after seq 2 and it sees the group's
    checkpoint at 4 only once it has executed 6: it restores the certified
    checkpoint and runs 5 and 6 again on top, instead of dropping it."""
    harness, apps = make_app_harness()
    wrong, peer = harness.replicas[3], harness.replicas[0]
    harness.invoke_and_run([b"1"] * 2)
    apps[wrong.pid].total += 100
    on_checkpoint = wrong._handlers[CheckpointMsg]
    wrong._handlers[CheckpointMsg] = lambda src, msg: None
    harness.invoke_and_run([b"1"] * 4)
    harness.run(until=harness.network.now + 1.0)
    assert wrong.last_executed == 6 and apps[wrong.pid].total == 106
    wrong._handlers[CheckpointMsg] = on_checkpoint
    harness.run(until=harness.network.now + 3.0)
    assert wrong.catch_up.rounds == 1 and not wrong.catch_up.active
    assert apps[wrong.pid].total == apps[peer.pid].total == 6
    assert same_state(wrong, peer), (state_of(wrong), state_of(peer))


def test_under_hmac_a_catch_up_request_needs_its_senders_mac():
    config = make_config(f=1, auth_mode="hmac")
    auths = HmacAuthenticator.bootstrap(list(config.replica_ids), seed=0)
    network = Network(NetworkConfig(seed=0, latency=FixedLatency(0.001)))
    replicas = build_group(network, config, auth_factory=lambda pid: HmacAuth(auths[pid]))
    asker, responder = replicas[3], replicas[0]
    request = asker.auth.stamp(CatchUpRequest(attempt=1, sender=asker.pid), (responder.pid,))
    forged = dataclasses.replace(
        request, auth={pid: bytes(32) for pid in request.auth}
    )
    responder.deliver(asker.pid, forged)
    assert "CatchUpResponse" not in responder.messages_sent
    responder.deliver(asker.pid, request)
    assert responder.messages_sent["CatchUpResponse"] == 1
