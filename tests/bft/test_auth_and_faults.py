"""Authenticated protocol variants and Byzantine fault behaviours."""

import pytest

from repro.bft.auth import HmacAuth, NullAuth, RsaAuth
from repro.bft.client import BftClient
from repro.bft.messages import PrepareMsg
from repro.bft.replica import build_group
from repro.chaos.byzantine import CorruptReplyReplica, SilentReplica, SlowReplica
from repro.crypto.signing import HmacAuthenticator, KeyRing
from repro.sim import FixedLatency, Network, NetworkConfig
from tests.bft.conftest import Harness, make_config


def run_with_auth(auth_factory, config_overrides=None):
    network = Network(NetworkConfig(seed=0, latency=FixedLatency(0.001)))
    config = make_config(f=1, **(config_overrides or {}))
    replicas = build_group(network, config, auth_factory=auth_factory)
    client = BftClient("client", config)
    network.add_process(client)
    results = []
    client.invoke(b"authed", results.append)
    network.run(stop_when=lambda: bool(results), max_events=100_000)
    return results, replicas, network


def test_hmac_auth_end_to_end():
    config = make_config(f=1, auth_mode="hmac")
    pids = list(config.replica_ids) + ["client"]
    auths = HmacAuthenticator.bootstrap(pids, seed=0)
    results, _, _ = run_with_auth(
        lambda pid: HmacAuth(auths[pid]), {"auth_mode": "hmac"}
    )
    assert results == [b"ok:authed"]


def test_rsa_auth_end_to_end():
    config = make_config(f=1, auth_mode="rsa")
    ring, signers = KeyRing.bootstrap(list(config.replica_ids), bits=256, seed=0)
    results, _, _ = run_with_auth(
        lambda pid: RsaAuth(signers[pid], ring), {"auth_mode": "rsa"}
    )
    assert results == [b"ok:authed"]


def test_hmac_rejects_forged_protocol_message():
    config = make_config(f=1)
    auths = HmacAuthenticator.bootstrap(list(config.replica_ids), seed=0)
    network = Network(NetworkConfig(seed=0))
    replicas = build_group(network, config, auth_factory=lambda pid: HmacAuth(auths[pid]))
    victim = replicas[1]
    # A message claiming to be from r2 but without a valid MAC.
    forged = PrepareMsg(view=0, seq=1, request_digest=b"\x00" * 32, sender="grp-r2")
    victim.deliver("grp-r2", forged)
    assert 1 not in victim.log  # rejected before reaching the protocol


def test_null_auth_accepts_anything():
    auth = NullAuth()
    assert auth.accept("anyone", object()) is True


def test_corrupt_replies_masked_by_f_plus_1_rule():
    byzantine = {"grp-r2": CorruptReplyReplica}
    harness = Harness(byzantine=byzantine)
    results = harness.invoke_and_run([b"v"])
    assert results == [b"ok:v"]  # the corrupt value never wins


def test_two_corrupt_repliers_with_f_one_can_deceive_nobody():
    # f=1, but *two* corrupt repliers: assumption violated. The matching
    # corrupt replies can now reach f+1 = 2 and the client may accept a bad
    # value — demonstrating the 3f+1 bound is tight.
    byzantine = {"grp-r2": CorruptReplyReplica, "grp-r3": CorruptReplyReplica}
    harness = Harness(byzantine=byzantine)
    results = harness.invoke_and_run([b"v"])
    assert len(results) == 1  # some value accepted...
    # ...and it may be the corrupt one; we only assert the system cannot
    # guarantee correctness here. (Both replicas corrupt identically.)
    assert results[0] in (b"ok:v", b"\xde\xadok:v")


def test_silent_replica_tolerated():
    byzantine = {"grp-r1": SilentReplica}
    harness = Harness(byzantine=byzantine)
    results = harness.invoke_and_run([b"s1", b"s2"])
    assert results == [b"ok:s1", b"ok:s2"]


def test_slow_replica_does_not_block_progress():
    byzantine = {"grp-r3": SlowReplica}
    harness = Harness(byzantine=byzantine)
    results = harness.invoke_and_run([b"fast"])
    assert results == [b"ok:fast"]
    # The decision time is bounded by the fast quorum, not the slow replica.
    assert harness.network.now < SlowReplica.lag


def test_reply_spoofing_ignored_by_client():
    harness = Harness()
    client = harness.client()
    results = []
    client.invoke(b"real", results.append)
    from repro.bft.messages import BftReply

    # A single spoofed reply (sender field mismatching the network source).
    spoof = BftReply(
        view=0, timestamp=1, client_id="client", sender="grp-r9", result=b"evil"
    )
    client.deliver("grp-r0", spoof)
    harness.run_until(lambda: results)
    assert results == [b"ok:real"]


def test_client_retransmits_until_quorum():
    # Drop-heavy network: the client's retry loop must still drive the
    # request home eventually.
    network_cfg = dict(seed=3)
    harness = Harness(seed=3)
    harness.network.config.drop_probability = 0.3
    client = harness.client()
    results = []
    client.invoke(b"lossy", results.append)
    harness.run_until(lambda: bool(results), max_events=500_000)
    assert results == [b"ok:lossy"]
