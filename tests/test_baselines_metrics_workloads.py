"""Tests for baselines, metrics, and workload utilities."""

import random

import pytest

from repro.baselines.byte_voter import ByteVoter, byte_majority_vote
from repro.baselines.traditional_gm import (
    ThresholdKeyAuthority,
    TraditionalKeyAuthority,
)
from repro.crypto.groups import TOY_GROUP
from repro.obs.registry import mean, percentile, summarize
from repro.sim import Network, NetworkConfig
from repro.workloads.generators import (
    ClosedLoopDriver,
    float_vectors,
    random_strings,
    sensor_readings,
)


# -- byte voter -----------------------------------------------------------------


def test_byte_vote_identical_bytes_decides():
    ballots = [("a", b"same"), ("b", b"same"), ("c", b"diff")]
    decision = byte_majority_vote(ballots, 2)
    assert decision.decided and decision.value == b"same"
    assert decision.dissenters == ("c",)


def test_byte_vote_heterogeneous_bytes_fails():
    """Equal values, different byte orders: no byte-level quorum."""
    import struct

    value = 3.14
    ballots = [
        ("big-1", struct.pack(">d", value)),
        ("big-2", struct.pack(">d", value + 1e-13)),  # float jitter
        ("little-1", struct.pack("<d", value)),
        ("little-2", struct.pack("<d", value + 2e-13)),
    ]
    assert not byte_majority_vote(ballots, 2).decided


def test_byte_voter_counts_undecidable():
    voter = ByteVoter(n=4, f=1, on_decide=lambda d: None)
    voter.begin(1)
    for i, blob in enumerate([b"a", b"b", b"c", b"d"]):
        voter.offer(f"e{i}", 1, blob)
    assert voter.undecidable_requests == 1


def test_byte_voter_decides_homogeneous():
    decisions = []
    voter = ByteVoter(n=4, f=1, on_decide=decisions.append)
    voter.begin(1)
    voter.offer("e0", 1, b"x")
    voter.offer("e1", 1, b"x")
    assert decisions and decisions[0].value == b"x"


def test_byte_vote_threshold_validation():
    with pytest.raises(ValueError):
        byte_majority_vote([], 0)


# -- key authorities (E5 core) ---------------------------------------------------


def test_traditional_gm_one_compromise_exposes_all():
    authority = TraditionalKeyAuthority(["g0", "g1", "g2", "g3"], seed=0)
    keys = [authority.generate_key() for _ in range(5)]
    assert authority.keys_recoverable_by({"g2"}) == set(keys)
    assert authority.keys_recoverable_by({"outsider"}) == set()


def test_threshold_gm_needs_f_plus_1():
    authority = ThresholdKeyAuthority(["g0", "g1", "g2", "g3"], f=1, group=TOY_GROUP)
    keys = [authority.generate_key() for _ in range(3)]
    assert authority.keys_recoverable_by({"g0"}) == set()
    assert authority.keys_recoverable_by({"g0", "g1"}) == set(keys)


def test_threshold_gm_recovered_key_matches_honest_key():
    authority = ThresholdKeyAuthority(["g0", "g1", "g2", "g3"], f=1, group=TOY_GROUP)
    key_id = authority.generate_key()
    honest = authority.key_material(key_id)
    assert isinstance(honest, bytes) and len(honest) == 32


def test_threshold_gm_requires_3f_plus_1():
    with pytest.raises(ValueError):
        ThresholdKeyAuthority(["g0", "g1"], f=1, group=TOY_GROUP)


# -- metrics -------------------------------------------------------------------------


def test_stats_helpers():
    values = [1.0, 2.0, 3.0, 4.0]
    assert mean(values) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    summary = summarize(values)
    assert summary["count"] == 4
    assert summary["max"] == 4.0


def test_stats_errors():
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_single_value():
    assert percentile([7.0], 95) == 7.0


def test_traffic_stats_snapshot_delta():
    network = Network(NetworkConfig(seed=0))
    from repro.sim.process import Process

    class Sink(Process):
        def on_message(self, src, payload):
            pass

    a, b = Sink("a"), Sink("b")
    network.add_process(a)
    network.add_process(b)
    before = network.stats.snapshot()
    a.send("b", b"xyz")
    network.run()
    delta = before.delta(network.stats)
    assert delta.messages_sent == 1
    assert delta.bytes_sent == 3
    assert before.messages_sent == 0  # a copy, not a live view


# -- workload generators -----------------------------------------------------------


def test_float_vectors_shape():
    vectors = float_vectors(random.Random(0), count=5, length=3)
    assert len(vectors) == 5
    assert all(len(v) == 3 for v in vectors)


def test_random_strings_distinct():
    strings = random_strings(random.Random(0), count=50)
    assert len(set(strings)) > 40


def test_sensor_readings_structure():
    rounds = sensor_readings(random.Random(0), count=3, sensors=4)
    assert len(rounds) == 3
    for readings in rounds:
        assert len(readings) == 4
        values = [r["value"] for r in readings]
        assert max(values) - min(values) < 1.0  # clustered around truth


def test_closed_loop_driver_records_latencies():
    network = Network(NetworkConfig(seed=0))
    driver = ClosedLoopDriver(network)

    def op():
        network.scheduler.schedule(0.5, lambda: None)
        network.run()
        return "done"

    results = driver.run([op, op])
    assert results == ["done", "done"]
    assert driver.latencies == [0.5, 0.5]
