"""Schedules and the scenario matrix: pure functions of (scenario, seed)."""

import random

from repro.chaos.schedule import (
    SMOKE_SCENARIOS,
    PartitionWindow,
    Scenario,
    build_plan,
    scenario_matrix,
)

PROCS = [f"p{i}" for i in range(10)]


def test_build_plan_is_deterministic():
    a = build_plan(random.Random(7), horizon=3.0, processes=PROCS)
    b = build_plan(random.Random(7), horizon=3.0, processes=PROCS)
    assert a == b


def test_plan_rates_bounded():
    for seed in range(50):
        plan = build_plan(random.Random(seed), horizon=3.0, processes=PROCS)
        assert 0.0 <= plan.p_drop <= 0.12
        assert 0.0 <= plan.p_duplicate <= 0.10
        assert 0.0 <= plan.p_delay <= 0.20
        assert 0.0 <= plan.p_reorder <= 0.10
        assert 0.0 <= plan.p_corrupt <= 0.06
        assert plan.p_equivocate == 0.0  # no equivocators requested


def test_partitions_always_heal_before_horizon():
    for seed in range(50):
        plan = build_plan(random.Random(seed), horizon=3.0, processes=PROCS)
        for window in plan.partitions:
            assert window.end <= plan.horizon
            assert window.start < window.end


def test_partition_separates_only_across_the_cut():
    window = PartitionWindow(start=0.0, end=1.0, group_a=frozenset({"a", "b"}))
    assert window.separates("a", "c")
    assert window.separates("c", "b")
    assert not window.separates("a", "b")
    assert not window.separates("c", "d")


def test_intensity_zero_silences_the_plan():
    plan = build_plan(random.Random(3), horizon=3.0, processes=PROCS, intensity=0.0)
    assert plan.p_drop == plan.p_duplicate == plan.p_delay == 0.0
    assert plan.p_reorder == plan.p_corrupt == plan.p_equivocate == 0.0
    assert plan.partitions == ()  # a clean wire really is clean


def test_smoke_slice_covers_every_dimension():
    assert scenario_matrix() == SMOKE_SCENARIOS
    assert len(set(SMOKE_SCENARIOS)) == len(SMOKE_SCENARIOS) == 8
    assert any(s.batch_size > 1 for s in SMOKE_SCENARIOS)
    assert any(s.pipeline_window > 0 for s in SMOKE_SCENARIOS)
    assert any(s.mid_run_recovery for s in SMOKE_SCENARIOS)
    assert any(s.forced_view_change for s in SMOKE_SCENARIOS)
    assert any(s.read_fastpath for s in SMOKE_SCENARIOS)
    assert any(s.cross_shard for s in SMOKE_SCENARIOS)
    assert any(s.forger for s in SMOKE_SCENARIOS)


def test_full_matrix_is_the_cross_product():
    # 16-cell ordered cross product (batch x pipeline x recovery x view
    # change) + the 4-cell read-fastpath column + the 4-cell forger column
    # + the 2-cell cross-shard column.
    cells = scenario_matrix(full=True)
    assert len(cells) == 26
    assert len(set(cells)) == 26
    assert sum(1 for s in cells if s.read_fastpath) == 4
    assert sum(1 for s in cells if s.forger) == 4
    assert all(s.forced_view_change for s in cells if s.forger)
    assert sum(1 for s in cells if s.cross_shard) == 2


def test_scenario_labels_are_unique():
    cells = scenario_matrix(full=True)
    assert len({s.label for s in cells}) == len(cells)
    assert Scenario().label == "b1-p0"
    assert (
        Scenario(4, 4, mid_run_recovery=True, forced_view_change=True).label
        == "b4-p4-rec-vc"
    )
