"""The sweep rig: deterministic replay, seed-pinned regressions, shrinking.

The regression cells below pin the exact (scenario, seed) coordinates at
which the chaos rig originally flushed out real bugs.  Each must now run
clean; a reappearing violation means the corresponding fix regressed:

* ``b1-p0`` seed 0 — per-connect SMIOP adapters orphaned their private
  send queues (smiop.py memoization) and lost SmiopReply copies starved
  the voter forever (sockets.py retransmission).
* ``b1-p0`` seed 18 — corrupted ClientRequest wire images leaked raw
  ``KeyError`` past the PayloadError boundary (messages.py parse guard).
* ``b4-p4`` seed 12 — key-blocked queue heads stalled unbounded
  (replica.py far-future discard + head-stall timer) and retry backoff
  outlasted the old settle window.
* ``b4-p4-rec-vc`` seed 20 — a new-view primary re-issued a
  different pre-prepare for an executed sequence, rewriting the stored
  certificate and stranding lagging replicas (bft/replica.py executed-
  history immutability), which broke mid-run recovery. (CHANGES.md
  records it under its old label ``b4-p4-slow-rec-vc``; same schedule.)
"""

from repro.chaos.adversary import FaultEvent
from repro.chaos.runner import RunResult, ScheduleRunner, _Shrinker
from repro.chaos.schedule import Scenario


def run_cell(scenario, seed, **kwargs):
    runner = ScheduleRunner(scenarios=(scenario,), seeds=(seed,), **kwargs)
    return runner.run_one(scenario, seed)


def describe(result):
    return result.violations or result.error


def test_same_cell_replays_identically():
    scenario = Scenario(batch_size=2, pipeline_window=2)
    first = run_cell(scenario, seed=3)
    second = run_cell(scenario, seed=3)
    assert first.to_dict() == second.to_dict()
    assert first.fault_candidates > 0  # the adversary actually fired


def test_different_seeds_give_different_schedules():
    scenario = Scenario()
    a = run_cell(scenario, seed=0)
    b = run_cell(scenario, seed=1)
    assert [e.to_dict() for e in a.fault_events] != [
        e.to_dict() for e in b.fault_events
    ]


# -- seed-pinned regression cells (see module docstring) ---------------------


def test_regression_adapter_queue_and_reply_retransmission():
    result = run_cell(Scenario(), seed=0)
    assert result.ok, describe(result)


def test_regression_corrupted_request_parse_crash():
    result = run_cell(Scenario(), seed=18)
    assert result.ok, describe(result)


def test_regression_head_stall_and_retry_backoff():
    result = run_cell(Scenario(batch_size=4, pipeline_window=4), seed=12)
    assert result.ok, describe(result)


def test_regression_new_view_rewrote_executed_history():
    scenario = Scenario(
        batch_size=4,
        pipeline_window=4,
        mid_run_recovery=True,
        forced_view_change=True,
    )
    assert scenario.label == "b4-p4-rec-vc"
    result = run_cell(scenario, seed=20)
    assert result.ok, describe(result)


# -- the sweep and the shrinker ----------------------------------------------


def test_sweep_aggregates_and_logs():
    lines = []
    runner = ScheduleRunner(
        scenarios=(Scenario(),), seeds=(0, 1), log=lines.append
    )
    sweep = runner.run()
    assert sweep.ok and len(sweep.results) == 2
    assert sweep.failures == []
    assert len(lines) == 2 and all("chaos b1-p0" in line for line in lines)
    payload = sweep.to_dict()
    assert payload["ok"] is True and payload["runs"] == 2
    assert payload["faults_applied"] > 0


class _StubRunner:
    """run_one fails iff the culprit fault index is still enabled."""

    def __init__(self, culprit=3, total=8):
        self.culprit = culprit
        self.total = total
        self.calls = 0

    def run_one(self, scenario, seed, disabled=frozenset()):
        self.calls += 1
        events = [
            FaultEvent(index=i, time=0.1 * i, kind="drop", src="a", dst="b")
            for i in range(self.total)
            if i not in disabled
        ]
        ok = self.culprit in disabled
        return RunResult(scenario=scenario, seed=seed, ok=ok, fault_events=events)


def test_shrinker_finds_the_single_culprit_fault():
    stub = _StubRunner(culprit=3, total=8)
    shrunk = _Shrinker(stub, Scenario(), seed=0).shrink(max_probes=64)
    assert [event.index for event in shrunk] == [3]
    assert stub.calls <= 64


def test_shrinker_returns_empty_for_a_passing_cell():
    class _AlwaysOk:
        def run_one(self, scenario, seed, disabled=frozenset()):
            return RunResult(scenario=scenario, seed=seed, ok=True)

    assert _Shrinker(_AlwaysOk(), Scenario(), seed=0).shrink() == []


# -- E19 read fast path cell -------------------------------------------------


def test_read_fastpath_cell_pinned():
    """The representative read-fastpath cell: tentative reads under the
    full adversary with a watermark-forging element, a lagging reader,
    and a mid-storm reader restart. Pinned at seed 0 so any regression in
    the read staleness invariants reproduces deterministically."""
    scenario = Scenario(read_fastpath=True)
    assert scenario.label == "b1-p0-rd"
    result = run_cell(scenario, seed=0)
    assert result.ok, describe(result)
    assert result.fault_candidates > 0


# -- E20 cross-shard commit cell ----------------------------------------------


def test_cross_shard_cell_pinned():
    """The representative cross-shard-commit cell: a two-shard KV space
    plus the coordinator domain, the wire equivocator pinned to a
    coordinator element, a scripted participant partition mid-commit, and
    poisoned transactions forcing aborts through the same storm. Pinned at
    seed 0 so any regression in the atomicity invariant reproduces
    deterministically."""
    scenario = Scenario(cross_shard=True)
    assert scenario.label == "b1-p0-xs"
    result = run_cell(scenario, seed=0)
    assert result.ok, describe(result)
    assert result.fault_candidates > 0


def test_cross_shard_cell_pinned_batched():
    """b4-p4-xs seed 0 — log fill pushed a lagging coordinator element
    past its own high watermark (bft/replica.py fill watermark gate); the
    cell must stay clean so the bounded-log property holds under fill."""
    scenario = Scenario(batch_size=4, pipeline_window=4, cross_shard=True)
    assert scenario.label == "b4-p4-xs"
    result = run_cell(scenario, seed=0)
    assert result.ok, describe(result)
