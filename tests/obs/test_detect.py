"""Fault estimator semantics: scoring bands, phi, anomalies, structure."""

import pytest

from repro.obs import (
    ACCUSE_THRESHOLD,
    Ewma,
    FaultEstimator,
    PhiAccrual,
    REPORT_THRESHOLD,
    Telemetry,
)
from repro.obs.detect import EWMA_WARMUP, SOFT_CAP


def make_estimator():
    t = Telemetry()
    return t.detect, t


class TestEwma:
    def test_tracks_level_and_spread(self):
        e = Ewma(alpha=0.2)
        for v in (10.0, 10.0, 10.0, 10.0, 10.0):
            e.observe(v)
        assert e.mean == pytest.approx(10.0)
        assert e.zscore(10.0) == 0.0
        for v in (10.0, 11.0, 9.0, 10.5, 9.5) * 4:
            e.observe(v)
        assert abs(e.zscore(30.0)) > 3.5

    def test_needs_two_observations(self):
        e = Ewma()
        assert e.zscore(5.0) == 0.0
        e.observe(1.0)
        assert e.zscore(5.0) == 0.0


class TestPhiAccrual:
    def test_phi_grows_with_silence(self):
        p = PhiAccrual()
        for i in range(10):
            p.observe(i * 0.1)
        soon = p.phi(1.0)
        late = p.phi(3.0)
        assert 0.0 <= soon < late

    def test_phi_zero_without_history(self):
        p = PhiAccrual()
        assert p.phi(5.0) == 0.0
        p.observe(1.0)
        assert p.phi(5.0) == 0.0  # one arrival: no interval yet


class TestScoringBands:
    def test_hard_evidence_pins_to_one(self):
        detect, _ = make_estimator()
        detect.note_evidence("vote-dissent", "e2", hard=True)
        assert detect.suspicion("e2") == 1.0
        assert detect.accused() == ["e2"]
        assert "e2" in detect.first_accused

    def test_soft_evidence_never_accuses(self):
        detect, _ = make_estimator()
        # Saturate every soft channel far beyond plausible run volumes.
        for _ in range(500):
            detect.note_evidence("invalid-auth", "e1", hard=False)
            detect.observe_garbage("e1", "signature")
            detect.observe_auth_reject("e1", "bad-mac")
            detect.observe_retransmission("e1")
        score = detect.suspicion("e1")
        assert score == pytest.approx(SOFT_CAP, abs=1e-6)
        assert score < ACCUSE_THRESHOLD
        assert detect.accused() == []
        assert detect.suspected() == ["e1"]
        assert "e1" not in detect.first_accused

    def test_unknown_element_scores_zero(self):
        detect, _ = make_estimator()
        assert detect.suspicion("ghost") == 0.0
        assert detect.components("ghost") == {}

    def test_soft_components_compound(self):
        detect, _ = make_estimator()
        detect.observe_garbage("e1", "decrypt")
        only_garbage = detect.suspicion("e1")
        detect.observe_auth_reject("e1", "bad-mac")
        assert detect.suspicion("e1") > only_garbage


class TestTimeliness:
    def test_relative_phi_needs_a_peer(self):
        detect, _ = make_estimator()
        for i in range(5):
            detect.observe_arrival("e1", i * 0.1)
        # Alone, silence is indistinguishable from a quiet network.
        assert detect.components("e1", now=10.0)["timeliness"] == 0.0

    def test_silent_element_stands_out_against_peers(self):
        detect, _ = make_estimator()
        for i in range(50):
            detect.observe_arrival("e1", i * 0.1)
            detect.observe_arrival("e2", i * 0.1)
        # e2 keeps talking; e1 goes silent.
        for i in range(50, 100):
            detect.observe_arrival("e2", i * 0.1)
        now = 10.0
        assert detect.components("e1", now)["timeliness"] > 0.0
        assert detect.components("e2", now)["timeliness"] == 0.0

    def test_global_silence_inflates_nobody(self):
        detect, _ = make_estimator()
        for i in range(50):
            detect.observe_arrival("e1", i * 0.1)
            detect.observe_arrival("e2", i * 0.1)
        # Both stop: relative phi stays ~0 for both.
        assert detect.components("e1", 60.0)["timeliness"] == pytest.approx(0.0)
        assert detect.components("e2", 60.0)["timeliness"] == pytest.approx(0.0)


class TestAnomalies:
    def test_outlier_phase_flagged_after_warmup(self):
        detect, _ = make_estimator()
        for _ in range(EWMA_WARMUP + 5):
            detect.observe_phase("e1", "prepare", 0.010)
            detect.observe_phase("e1", "prepare", 0.012)
        detect.observe_phase("e3", "prepare", 5.0)
        assert detect.components("e3")["anomaly"] > 0.0
        # e1 was never flagged, so it accumulated no detector state at all.
        assert detect.components("e1").get("anomaly", 0.0) == 0.0

    def test_no_flags_during_warmup(self):
        detect, _ = make_estimator()
        detect.observe_phase("e1", "prepare", 0.01)
        detect.observe_phase("e1", "prepare", 50.0)
        assert detect.components("e1").get("anomaly", 0.0) == 0.0


class TestIntegration:
    def test_health_board_carries_suspicion(self):
        detect, t = make_estimator()
        t.evidence("vote-dissent", accused="e2", reporter="e0", hard=True)
        board = t.health.render()
        assert "suspicion" in board
        assert "1.00" in board
        assert "vote-dissent" in board

    def test_evidence_fans_out_to_all_sinks(self):
        _, t = make_estimator()
        t.evidence("equivocation", accused="e1", reporter="e0", hard=True,
                   detail="view=0 seq=1", evidence={"accepted": b"\x01"})
        assert len(t.audit) == 1
        assert t.detect.suspicion("e1") == 1.0
        assert t.health.elements["e1"].hard_evidence == 1
        gauges = [r for r in t.registry.collect()
                  if r["metric"] == "element_suspicion"]
        assert gauges[0]["value"] == 1.0

    def test_evidence_dedup_counts_once(self):
        _, t = make_estimator()
        for _ in range(3):  # three replicas executing one ordered decision
            t.evidence("expulsion", accused="e2", reporter="gm", hard=True,
                       dedup=("expulsion", "e2"))
        assert len(t.audit) == 1
        assert t.health.elements["e2"].hard_evidence == 1

    def test_to_records_shape(self):
        detect, _ = make_estimator()
        detect.note_evidence("invalid-share", "gm-1", hard=False)
        (record,) = detect.to_records()
        assert record["record"] == "suspicion"
        assert record["element"] == "gm-1"
        assert 0.0 < record["score"] < ACCUSE_THRESHOLD
        assert record["evidence_kinds"] == {"invalid-share": 1}

    def test_thresholds_are_ordered(self):
        # The structural zero-false-accusation argument needs this ordering.
        assert 0.0 < REPORT_THRESHOLD < SOFT_CAP < ACCUSE_THRESHOLD <= 1.0
