"""A certificate that arrives inside another message is never believed on
the sender names it lists.

Each test runs one :class:`~repro.bft.faults.CertificateForger` on the
n = 4 harness (``protocol_auth="none"``) and watches one of its lies: a
made-up checkpoint in a catch-up response (D1), a checkpoint claimed far ahead in a view change
(D2), a made-up batch filled at a lagger's next seq (D3) and a prepared
request 500 seqs past the log window (D4). The honest replicas must end as
the same correct state machine and answer every client.
"""

from __future__ import annotations

import dataclasses

from repro.bft.auth import HmacAuth
from repro.bft.faults import CertificateForger
from repro.bft.messages import CatchUpRequest, CatchUpResponse, NewViewMsg, ViewChangeMsg
from repro.bft.replica import build_group
from repro.crypto.digests import digest
from repro.crypto.signing import HmacAuthenticator
from repro.sim import Network, NetworkConfig
from tests.bft.conftest import Harness, make_config
from tests.bft.test_state_transfer import CountingApp


class StableSeqForger(CertificateForger):
    """D2 as found: every view change also claims a stable checkpoint at
    1000, which takes the forger's reports out of every count below it."""

    def _mcast(self, message):
        if isinstance(message, ViewChangeMsg):
            message = dataclasses.replace(
                message, stable_seq=1000, checkpoints=((1000, b"\x09" * 32),)
            )
        super()._mcast(message)


def app_harness(byzantine=None, **overrides):
    harness = Harness(byzantine=byzantine, config_overrides=overrides or None)
    apps = {}
    for replica in harness.replicas:
        app = apps[replica.pid] = CountingApp()
        replica.execute_fn = app.execute
        replica.snapshot_fn = app.snapshot
        replica.restore_fn = app.restore
    return harness, apps


def test_d1_a_forged_state_response_is_not_adopted():
    """r0 answers the lagger's catch-up request (it answers first) with a
    made-up checkpoint; r1 is muted for requests, so beside the forgery only
    r2's answer arrives: one answer, not a quorum, and it equals the
    checkpoint the lagger's group certified to the lagger itself."""
    harness, apps = app_harness(byzantine={"grp-r0": CertificateForger})
    lagger = harness.replicas[3]
    harness.network.partition({lagger.pid}, {r.pid for r in harness.replicas[:3]})
    harness.invoke_and_run([b"1"] * 8)
    harness.network.heal()
    harness.replicas[1]._handlers[CatchUpRequest] = lambda src, msg: None
    harness.invoke_and_run([b"1"] * 4, client_name="client2")
    harness.run(until=harness.network.now + 5.0)
    peers = harness.replicas[1:3]
    assert {apps[r.pid].total for r in peers} == {12}
    assert apps[lagger.pid].total == 12
    assert lagger.stable_seq == peers[0].stable_seq == 12


def test_a_malformed_pushed_snapshot_raises_nothing():
    harness, apps = app_harness()
    replica = harness.replicas[3]
    replica.catch_up.start()
    snapshot = b"\xff not a canonical encoding"
    # 2f+1 senders of the same bytes: a quorum, and still never adopted.
    for sender in ("grp-r0", "grp-r1", "grp-r2"):
        replica.on_message(sender, CatchUpResponse(
            attempt=1, stable_seq=4, checkpoint=snapshot, blob=b"", sender=sender
        ))
    assert replica.stable_seq == 0 and apps[replica.pid].total == 0
    assert replica.catch_up.active and replica.catch_up.attempt == 2


def test_d3_a_forged_fill_is_not_executed():
    """r0 fills the healed lagger with a made-up batch at its next seq; no
    checkpoint stabilises, so only the log fill can catch it up."""
    harness, apps = app_harness(
        byzantine={"grp-r0": CertificateForger}, checkpoint_interval=1000
    )
    lagger = harness.replicas[3]
    harness.network.partition({lagger.pid}, {r.pid for r in harness.replicas[:3]})
    harness.invoke_and_run([b"1"] * 8)
    harness.network.heal()
    harness.run(until=harness.network.now + 5.0)
    assert {apps[r.pid].total for r in harness.replicas[:3]} == {8}
    assert apps[lagger.pid].total == 8


def clients_under_a_primary_partition(forger, heal_at=5.0):
    """r0 (the view-0 primary) is cut off until ``heal_at``; r2 forges its
    view changes; three clients each send one request at t = 0. Returns
    the harness and each client's reply time."""
    harness = Harness(byzantine={"grp-r2": forger})
    primary = harness.replicas[0]
    names = ("c0", "c1", "c2")
    harness.network.partition(
        {primary.pid}, {r.pid for r in harness.replicas[1:]} | set(names)
    )
    answered = {}
    for name in names:
        harness.client(name).invoke(
            b"x", lambda _r, name=name: answered.setdefault(name, harness.network.now)
        )
    harness.run(until=heal_at, max_events=1_000_000)
    harness.network.heal()
    harness.network.run(
        until=heal_at + 30.0, max_events=1_000_000,
        stop_when=lambda: len(answered) == len(names),
    )
    return harness, answered


def backed_off(base, elapsed):
    """The timeout a doubling timer that starts at ``base`` is running once
    ``elapsed`` seconds of failures have passed."""
    timeout, spent = base, 0.0
    while spent + timeout < elapsed:
        spent, timeout = spent + timeout, 2 * timeout
    return timeout


def bounded_recovery_window(config, partition):
    """The bounded-recovery window after a partition of ``partition``
    seconds: one client retry plus one view-change timeout, each at the
    back-off the partition drove it to. For the harness and 5 s: 4 s + 4 s."""
    return backed_off(config.client_retry_timeout, partition) + backed_off(
        config.view_change_timeout, partition
    )


def test_d2_a_forged_stable_checkpoint_does_not_stop_the_group():
    heal_at = 5.0
    harness, answered = clients_under_a_primary_partition(StableSeqForger, heal_at)
    window = bounded_recovery_window(harness.config, heal_at)
    assert sorted(answered) == ["c0", "c1", "c2"]
    assert max(answered.values()) <= heal_at + window


def test_d4_a_prepared_certificate_past_the_window_is_ignored():
    """r2 is also view 2's primary: its NEW-VIEW carries a pre-prepare its
    view-change set does not decide, so the honest replicas move to view 3
    and never execute the forged request."""
    harness, answered = clients_under_a_primary_partition(CertificateForger)
    assert sorted(answered) == ["c0", "c1", "c2"]
    assert max(answered.values()) < 5.0
    honest = [r for r in harness.replicas if r.pid != "grp-r2"]
    assert all(client != "forged" for r in honest for _, client, _ in harness.executions(r))
    assert {r.view for r in honest if not r.pid.endswith("r0")} == {3}


def test_under_hmac_an_embedded_view_change_needs_its_senders_mac():
    """View 1's primary r1 sends a MACed NEW-VIEW. Its embedded view changes
    are believed only if each carries its own sender's MAC."""
    config = make_config(f=1, auth_mode="hmac")
    auths = HmacAuthenticator.bootstrap(list(config.replica_ids), seed=0)
    network = Network(NetworkConfig(seed=0))
    replicas = build_group(network, config, auth_factory=lambda pid: HmacAuth(auths[pid]))
    primary, backup = replicas[1], replicas[2]
    view_changes = [
        ViewChangeMsg(
            new_view=1, stable_seq=0, checkpoints=((0, digest(b"")),),
            pre_prepared=(), prepared=(), sender=replica.pid,
        )
        for replica in replicas[1:]
    ]

    def new_view(embedded):
        message = NewViewMsg(
            new_view=1, view_changes=tuple(embedded), pre_prepares=(), sender=primary.pid
        )
        return primary.auth.stamp(message, config.replica_ids)

    backup.deliver(primary.pid, new_view(view_changes))
    assert backup.view == 0
    stamped = [
        replica.auth.stamp(vc, config.replica_ids)
        for replica, vc in zip(replicas[1:], view_changes)
    ]
    backup.deliver(primary.pid, new_view(stamped))
    assert backup.view == 1
