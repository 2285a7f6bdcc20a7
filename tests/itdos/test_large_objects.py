"""EXTENSION tests: digest voting for large replies (paper §4).

"While signing and voting on individual messages when they are of 'small'
size can be a reasonable performance sacrifice for security, doing so on
large ... objects ... could pose a significant problem. ... we must find an
efficient way of moving larger messages through the system with
confidentiality, authentication, and integrity."

The extension: replies above a threshold travel as 32-byte value digests;
the client votes digests, then fetches the body once from a supporter and
verifies it against the voted digest.
"""

import pytest

from repro.chaos.byzantine import LyingElement
from repro.itdos.bootstrap import ItdosSystem
from repro.workloads.scenarios import KvStoreServant, standard_repository

THRESHOLD = 512


def build(seed=0, byzantine=None, threshold=THRESHOLD):
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        large_reply_threshold=threshold,
    )
    system.add_server_domain(
        "kv",
        f=1,
        servants=lambda element: {b"kv": KvStoreServant()},
        byzantine=byzantine or {},
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    return system, client, stub


def test_large_reply_round_trip():
    system, client, stub = build()
    big = "x" * 20_000
    stub.put("big", big)
    assert stub.get("big") == big


def test_small_replies_bypass_digest_path():
    system, client, stub = build()
    stub.put("small", "tiny")
    assert stub.get("small") == "tiny"
    connection = next(iter(client.endpoint.connections.values()))
    assert connection.body_fetches == 0


def test_large_reply_uses_exactly_one_body_fetch():
    system, client, stub = build()
    stub.put("big", "y" * 20_000)
    stub.get("big")
    connection = next(iter(client.endpoint.connections.values()))
    assert connection.body_fetches == 1


def test_large_reply_saves_bandwidth():
    """n digest replies + 1 body beat n full-body replies."""
    def wire_bytes(threshold):
        system, client, stub = build(seed=3, threshold=threshold)
        big = "z" * 30_000
        stub.put("big", big)
        before = system.network.stats.snapshot()
        stub.get("big")
        delta = before.delta(system.network.stats)
        return delta.bytes_sent

    with_digests = wire_bytes(THRESHOLD)
    without = wire_bytes(None)
    assert with_digests < 0.5 * without


def test_lying_element_cannot_corrupt_large_reply():
    system, client, stub = build(byzantine={"kv-e1": LyingElement})
    big = "w" * 20_000
    stub.put("big", big)
    assert stub.get("big") == big


def test_mute_supporter_falls_back_to_next():
    """If the first supporter asked for the body never answers, the client
    falls back to another supporter after a grace period."""

    class MuteBodyElement:
        # Participates in ordering and digest replies, but never serves
        # bodies (MuteElement suppresses all replies; too strong).
        def _handle_body_request(self, src, request):
            return

    system, client, stub = build(byzantine={"kv-e0": MuteBodyElement})
    big = "q" * 20_000
    stub.put("big", big)
    assert stub.get("big") == big
    connection = next(iter(client.endpoint.connections.values()))
    # kv-e0 sorts first among supporters, so the client asked it first,
    # timed out, and retried elsewhere.
    assert connection.body_fetches >= 2


def test_float_results_never_use_digest_path():
    """Digest voting requires exact values; float-bearing results keep the
    ordinary inexact-voting path even when large."""
    from repro.workloads.scenarios import CalculatorServant

    system = ItdosSystem(
        seed=5, repository=standard_repository(), large_reply_threshold=64
    )
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    for i in range(40):
        stub.store(float(i) + 0.5)
    history = stub.history()  # sequence<double>, > 64 bytes marshalled
    assert len(history) == 40
    connection = next(iter(client.endpoint.connections.values()))
    assert connection.body_fetches == 0
