"""Regression tests for the satellite fixes: empty-summary stats,
TraceRecorder drop accounting, and the CLI subcommands."""

import pytest

from repro.obs.registry import EMPTY_SUMMARY, mean, percentile, summarize
from repro.sim.trace import TraceRecorder
from repro.__main__ import main


class TestSummarizeEmpty:
    def test_empty_list_yields_zeroed_summary(self):
        s = summarize([])
        assert s["count"] == 0
        assert s == EMPTY_SUMMARY
        assert s is not EMPTY_SUMMARY  # callers may mutate their copy

    def test_mean_and_percentile_still_raise(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_nonempty_unchanged(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)


class TestTraceRecorderDrops:
    def test_drops_counted_and_rendered(self):
        rec = TraceRecorder(capacity=2)
        rec.record(0.0, "send", "a", "b", "first")
        rec.record(1.0, "send", "a", "b", "second")
        rec.record(2.0, "send", "a", "b", "third")
        rec.record(3.0, "send", "a", "b", "fourth")
        assert rec.dropped == 2
        assert len(rec.events) == 2
        assert "2 events dropped" in rec.render()

    def test_clear_resets_drop_counter(self):
        rec = TraceRecorder(capacity=1)
        rec.record(0.0, "send", "a", "b", "first")
        rec.record(1.0, "send", "a", "b", "second")
        rec.clear()
        assert rec.dropped == 0
        assert "dropped" not in rec.render()


class TestCli:
    def test_trace_subcommand(self, capsys, tmp_path):
        path = tmp_path / "spans.jsonl"
        assert main(["trace", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "client.invoke" in out
        assert "vote.decide" in out
        assert path.exists()

    def test_metrics_subcommand(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "net_messages_sent_total" in out
        assert "calc-e2" in out  # health board names the expelled liar
        assert "expulsion" in out

    def test_bad_flags_are_rejected(self, capsys):
        assert main(["trace", "--json"]) == 2
        assert main(["metrics", "bogus"]) == 2

    def test_existing_demo_semantics_preserved(self, capsys):
        assert main(["nonsense"]) == 2
        out = capsys.readouterr().out
        assert "trace" in out and "quickstart" in out
