"""Detector validation against chaos ground truth (seed-pinned).

The ScheduleRunner samples the faulty set from the seed, so each cell is a
labeled experiment: the detector's verdict can be scored against what the
adversary actually did. These cells pin seeds to keep the suite fast and
deterministic; the wider sweep lives in benchmarks/test_e17_detection.py.
"""

import json

import pytest

from repro.chaos import ScheduleRunner
from repro.chaos.schedule import Scenario
from repro.obs import ACCUSE_THRESHOLD, verify_chain


def run_cell(seed, intensity=1.0, fault_kinds="all"):
    runner = ScheduleRunner(
        scenarios=(Scenario(),),
        seeds=(seed,),
        requests=4,
        intensity=intensity,
        telemetry=True,
        fault_kinds=fault_kinds,
    )
    result = runner.run_one(Scenario(), seed)
    return result, runner.last_telemetry


class TestGroundTruth:
    def test_active_equivocator_is_evidenced(self):
        # Seed 0 at full intensity: the sampled equivocator's faults fire.
        result, t = run_cell(seed=0)
        verdict = result.detection
        assert verdict is not None
        active = verdict["active_faulty"]
        assert active, "pinned seed no longer exercises its equivocator"
        for pid in active:
            assert t.audit.against(pid), f"no evidence recorded against {pid}"
            assert t.detect.suspicion(pid) > 0.0
        # Soft scores are statistics, not attribution: a stormed honest
        # element may rank high too. What the layer guarantees is that the
        # active faulty set is *evidenced* and nobody honest is *accused*.
        assert verdict["false_accusations"] == []

    def test_no_false_accusations_under_full_fault_mix(self):
        for seed in (0, 1):
            result, _ = run_cell(seed=seed)
            assert result.detection["false_accusations"] == []

    def test_honest_replicas_never_accused_under_benign_faults(self):
        # Drop/delay/duplicate/reorder/partition only: everybody is honest,
        # so nobody may cross the accusation threshold, ever.
        for seed in (0, 1):
            result, t = run_cell(seed=seed, fault_kinds="benign")
            assert result.true_faulty == []
            assert result.detection["accused"] == []
            for pid, score in t.detect.scores().items():
                assert score < ACCUSE_THRESHOLD, (
                    f"honest {pid} accused (score {score}) under benign faults"
                )
            # Benign cells also record no hard (attributable) evidence.
            assert not any(e.hard for e in t.audit.entries)

    def test_audit_chain_verifies_after_storm(self):
        result, t = run_cell(seed=0)
        assert result.detection["audit_chain_ok"]
        assert t.audit.verify() == (True, None)

    def test_cell_is_deterministic(self):
        first, t1 = run_cell(seed=1)
        second, t2 = run_cell(seed=1)
        assert first.detection == second.detection
        assert first.true_faulty == second.true_faulty
        assert t1.audit.head == t2.audit.head


class TestOfflineVerification:
    def test_cli_audit_verify_rejects_tampered_chain(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.obs import telemetry_records

        _, t = run_cell(seed=0)
        path = tmp_path / "telemetry.jsonl"
        records = telemetry_records(t)
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["audit", "verify", "--jsonl", str(path)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

        # Flip one accused field in the middle of the exported chain.
        tampered = []
        flipped = False
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if not flipped and record.get("record") == "audit_entry":
                record["accused"] = "scapegoat"
                flipped = True
            tampered.append(json.dumps(record))
        assert flipped
        path.write_text("\n".join(tampered) + "\n")
        assert main(["audit", "verify", "--jsonl", str(path)]) == 1
        assert "BROKEN" in capsys.readouterr().out

    def test_exported_chain_round_trips(self):
        _, t = run_cell(seed=0)
        records = [json.loads(json.dumps(e.as_dict())) for e in t.audit.entries]
        assert verify_chain(records) == (True, None)
