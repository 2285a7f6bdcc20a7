"""Audit log semantics: chaining, tamper evidence, dedup, capacity, export."""

import json

import pytest

from repro.obs import AuditLog, verify_chain
from repro.obs.audit import GENESIS


def make_log(**kwargs):
    clock = iter(float(i) for i in range(10_000))
    return AuditLog(clock=lambda: next(clock), **kwargs)


class TestChaining:
    def test_entries_chain_from_genesis(self):
        log = make_log()
        first = log.record("vote-dissent", "e1", hard=True)
        second = log.record("invalid-auth", "e2")
        assert first.prev == GENESIS
        assert second.prev == first.digest
        assert log.head == second.digest
        assert log.verify() == (True, None)

    def test_empty_log_verifies(self):
        assert make_log().verify() == (True, None)
        assert verify_chain([]) == (True, None)

    def test_digest_covers_every_field(self):
        log = make_log()
        entry = log.record("equivocation", "e1", reporter="e0", hard=True,
                           detail="view=0 seq=3", evidence={"x": b"\x01"})
        for field, value in [("kind", "other"), ("accused", "e9"),
                             ("hard", False), ("detail", ""), ("time", 99.0)]:
            tampered = dict(entry.as_dict())
            tampered[field] = value
            ok, error = verify_chain([tampered])
            assert not ok and "digest" in error


class TestTamperEvidence:
    def test_edited_middle_entry_breaks_chain(self):
        log = make_log()
        for i in range(5):
            log.record("invalid-auth", f"e{i}")
        records = [e.as_dict() for e in log.entries]
        records[2]["accused"] = "someone-else"
        ok, error = verify_chain(records)
        assert not ok and "entry 2" in error

    def test_dropped_entry_breaks_chain(self):
        log = make_log()
        for i in range(4):
            log.record("invalid-auth", f"e{i}")
        records = [e.as_dict() for e in log.entries]
        del records[1]
        ok, _ = verify_chain(records)
        assert not ok

    def test_reordered_entries_break_chain(self):
        log = make_log()
        for i in range(3):
            log.record("invalid-auth", f"e{i}")
        records = [e.as_dict() for e in log.entries]
        records[0], records[1] = records[1], records[0]
        ok, _ = verify_chain(records)
        assert not ok

    def test_jsonl_round_trip_verifies(self):
        log = make_log()
        log.record("vote-dissent", "e2", hard=True,
                   evidence={"ballots": [{"sender": "e2",
                                          "plaintext": b"\x00\x01",
                                          "signature": b"\xff" * 8}]})
        log.record("fence-violation", "conn:7", detail="fenced")
        wire = "\n".join(json.dumps(r) for r in log.to_records())
        records = [json.loads(line) for line in wire.splitlines()]
        entries = [r for r in records if r["record"] == "audit_entry"]
        assert verify_chain(entries) == (True, None)


class TestRecordSemantics:
    def test_dedup_admits_first_report_only(self):
        log = make_log()
        assert log.record("expulsion", "e2", hard=True, dedup=("exp", "e2"))
        assert log.record("expulsion", "e2", hard=True, dedup=("exp", "e2")) is None
        assert len(log) == 1
        # Dedup is per log: a fresh log admits the same key again.
        assert make_log().record("expulsion", "e2", hard=True, dedup=("exp", "e2"))

    def test_capacity_sheds_soft_but_admits_hard(self):
        log = make_log(capacity=3)
        for i in range(5):
            log.record("invalid-auth", f"e{i}")
        assert len(log) == 3
        assert log.dropped == 2
        assert log.record("equivocation", "e9", hard=True) is not None
        assert log.entries[-1].accused == "e9"
        assert log.verify() == (True, None)

    def test_bytes_evidence_hex_encodes(self):
        log = make_log()
        entry = log.record("equivocation", "e1", hard=True,
                           evidence={"accepted": b"\xde\xad",
                                     "nested": {"raw": bytearray(b"\x01")},
                                     "listed": [b"\x02"]})
        assert entry.evidence["accepted"] == "dead"
        assert entry.evidence["nested"]["raw"] == "01"
        assert entry.evidence["listed"] == ["02"]
        json.dumps(entry.as_dict())  # must be JSON-safe

    def test_queries(self):
        log = make_log()
        log.record("invalid-auth", "e1")
        log.record("vote-dissent", "e1", hard=True)
        log.record("invalid-auth", "e2")
        assert [e.kind for e in log.against("e1")] == ["invalid-auth", "vote-dissent"]
        assert [e.kind for e in log.hard_against("e1")] == ["vote-dissent"]
        assert log.kinds() == {"invalid-auth": 2, "vote-dissent": 1}


class TestSignatureVerification:
    def test_verify_signatures_checks_ballots(self):
        log = make_log()
        log.record("vote-dissent", "e2", hard=True,
                   evidence={"ballots": [{"sender": "e2",
                                          "plaintext": b"\x01",
                                          "signature": b"\x02"}]})
        log.record("invalid-auth", "e3")  # no ballots: never flagged
        assert log.verify_signatures(lambda s, p, sig: True) == []
        assert log.verify_signatures(lambda s, p, sig: False) == [0]

    def test_malformed_ballot_fails_closed(self):
        log = make_log()
        log.record("vote-dissent", "e2", hard=True,
                   evidence={"ballots": [{"sender": "e2"}]})
        assert log.verify_signatures(lambda s, p, sig: True) == [0]


class TestExport:
    def test_untouched_log_exports_nothing(self):
        assert make_log().to_records() == []

    def test_records_include_chain_stat(self):
        log = make_log()
        log.record("invalid-auth", "e1")
        records = log.to_records()
        assert records[-1]["record"] == "audit_chain"
        assert records[-1]["entries"] == 1
        assert records[-1]["head"] == log.head

    def test_render_mentions_strength_and_accused(self):
        log = make_log()
        log.record("equivocation", "e1", hard=True, detail="view=0 seq=3")
        rendered = log.render()
        assert "HARD" in rendered and "e1" in rendered and "view=0" in rendered


class TestDeterminism:
    def test_same_inputs_same_head(self):
        def build():
            log = make_log()
            log.record("vote-dissent", "e2", hard=True, evidence={"r": 7})
            log.record("invalid-auth", "e1", detail="bad-mac")
            return log.head
        assert build() == build()
