"""Fault schedules and the scenario matrix.

A :class:`ChaosPlan` is the *declarative* half of a chaos run: per-message
fault probabilities, dynamic partition windows, and the set of equivocating
replicas, all active only inside a bounded time horizon. The plan is built
once per run from a seeded RNG, so the whole schedule is a pure function of
(scenario, seed) — the property every recorded violation relies on to
replay. The same plan drives the real wire: a topology file's ``[faults]``
table is one (:mod:`repro.net.config`), so a plan checks its own ranges.

The horizon matters for liveness checking: the §2.2 fault model only
promises progress under *bounded* loss, so the runner asserts
eventual-reply liveness after the horizon passes and the adversary goes
quiet, never during the storm itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class PartitionWindow:
    """A dynamic partition: ``group_a`` cannot reach its complement during
    ``[start, end)``. Always heals — the §2.2 assumption is that partitions
    do not persist forever."""

    start: float
    end: float
    group_a: frozenset[str]

    def separates(self, src: str, dst: str) -> bool:
        return (src in self.group_a) != (dst in self.group_a)


@dataclass(frozen=True)
class ChaosPlan:
    """One run's fault schedule parameters (active while ``now < horizon``)."""

    horizon: float
    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_delay: float = 0.0
    p_reorder: float = 0.0
    p_corrupt: float = 0.0
    p_equivocate: float = 0.0
    # Delay faults add up to this much extra latency; reorder faults add up
    # to ``reorder_factor`` times more, enough for later traffic to overtake.
    max_extra_delay: float = 0.02
    reorder_factor: float = 8.0
    duplicate_delay: float = 0.01
    partitions: tuple[PartitionWindow, ...] = ()
    # Replicas whose *outbound* messages may be corrupted per-receiver —
    # the wire-level model of equivocation. At most f per domain, so the
    # paper's fault bound still holds and every safety invariant must too.
    equivocators: frozenset[str] = frozenset()
    # Processes never touched by the adversary (none by default).
    protect: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        for spec in fields(self):
            if spec.name.startswith("p_") and not 0.0 <= getattr(self, spec.name) <= 1.0:
                raise ValueError(f"{spec.name} must be in [0, 1]")
        if self.max_extra_delay < 0 or self.duplicate_delay < 0 or self.reorder_factor < 1:
            raise ValueError("delays must be non-negative and reorder_factor >= 1")
        for window in self.partitions:
            if not window.start < window.end:
                raise ValueError(f"partition window {window.start}..{window.end} is empty")


def build_plan(
    rng: random.Random,
    horizon: float,
    processes: list[str],
    equivocators: frozenset[str] = frozenset(),
    intensity: float = 1.0,
) -> ChaosPlan:
    """Draw one seeded plan.

    Fault rates are drawn from bounded ranges scaled by ``intensity``; the
    bounds keep every schedule inside the fault model (loss is bounded, all
    partitions heal before the horizon), so liveness must still hold after
    the horizon.
    """
    scale = max(0.0, min(intensity, 1.0))
    windows: list[PartitionWindow] = []
    # Partition windows are on/off disturbances rather than per-message
    # rates, so intensity gates them entirely: zero means a clean wire.
    for _ in range(rng.randrange(0, 3) if scale > 0.0 else 0):
        start = rng.uniform(0.0, horizon * 0.7)
        length = rng.uniform(0.05, horizon * 0.25)
        # One side of the cut: a strict, small subset so no domain loses
        # more than f members to the partition at once.
        side = frozenset(rng.sample(processes, k=max(1, len(processes) // 5)))
        windows.append(
            PartitionWindow(start=start, end=min(start + length, horizon), group_a=side)
        )
    return ChaosPlan(
        horizon=horizon,
        p_drop=rng.uniform(0.0, 0.12) * scale,
        p_duplicate=rng.uniform(0.0, 0.10) * scale,
        p_delay=rng.uniform(0.0, 0.20) * scale,
        p_reorder=rng.uniform(0.0, 0.10) * scale,
        p_corrupt=rng.uniform(0.0, 0.06) * scale,
        p_equivocate=rng.uniform(0.0, 0.25) * scale if equivocators else 0.0,
        max_extra_delay=rng.uniform(0.005, 0.03),
        partitions=tuple(windows),
        equivocators=equivocators,
    )


@dataclass(frozen=True)
class Scenario:
    """One cell of the sweep matrix: the system configuration under test."""

    batch_size: int = 1
    pipeline_window: int = 0
    mid_run_recovery: bool = False
    forced_view_change: bool = False
    # E19: tentative reads at the client, one non-voting read-tier element,
    # the designated Byzantine element forging read watermarks, and a
    # scripted reader restart mid-storm (catch-up under fire).
    read_fastpath: bool = False
    # E20: a two-shard KV object space plus a coordinator domain running
    # BFT cross-shard commit, with an equivocating coordinator element, a
    # scripted participant partition mid-commit, and the ambient adversary
    # replaying torn prepares. The invariants: no shard commits what
    # another shard aborted, and atomicity holds at every intensity.
    cross_shard: bool = False
    # Element 1 forges every BFT certificate it sends (CertificateForger).
    forger: bool = False

    @property
    def label(self) -> str:
        parts = [f"b{self.batch_size}", f"p{self.pipeline_window}"]
        if self.mid_run_recovery:
            parts.append("rec")
        if self.forger:
            parts.append("fg")
        if self.forced_view_change:
            parts.append("vc")
        if self.read_fastpath:
            parts.append("rd")
        if self.cross_shard:
            parts.append("xs")
        return "-".join(parts)


#: The smoke slice: every matrix dimension exercised at least once, small
#: enough for the PR workflow (<60 s).
SMOKE_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(),
    Scenario(batch_size=4, pipeline_window=4),
    Scenario(batch_size=4, forced_view_change=True),
    Scenario(pipeline_window=4, mid_run_recovery=True),
    Scenario(
        batch_size=4,
        pipeline_window=4,
        mid_run_recovery=True,
        forced_view_change=True,
    ),
    Scenario(read_fastpath=True),
    Scenario(cross_shard=True),
    Scenario(forced_view_change=True, forger=True),
)


def scenario_matrix(full: bool = False) -> tuple[Scenario, ...]:
    """The sweep matrix: the full cross product for nightly runs, the
    covering smoke slice otherwise."""
    if not full:
        return SMOKE_SCENARIOS
    cells = []
    for batch_size in (1, 4):
        for pipeline_window in (0, 4):
            for recovery in (False, True):
                for view_change in (False, True):
                    cells.append(
                        Scenario(
                            batch_size=batch_size,
                            pipeline_window=pipeline_window,
                            mid_run_recovery=recovery,
                            forced_view_change=view_change,
                        )
                    )
    # The read-fastpath column: every scripted disturbance combined with
    # tentative reads, a forging element, and a mid-storm reader restart.
    cells.extend(
        (
            Scenario(read_fastpath=True),
            Scenario(batch_size=4, pipeline_window=4, read_fastpath=True),
            Scenario(mid_run_recovery=True, read_fastpath=True),
            Scenario(forced_view_change=True, read_fastpath=True),
        )
    )
    # The forger column: vc cells whose element 1 forges certificates.
    cells.extend(
        Scenario(batch_size=b, pipeline_window=p, mid_run_recovery=rec,
                 forced_view_change=True, forger=True)
        for b, p in ((1, 0), (4, 4)) for rec in (False, True)
    )
    # The cross-shard-commit column (E20): the atomic-commit invariants
    # under a Byzantine coordinator member, a mid-commit participant
    # partition, and torn-prepare replays from the ambient adversary.
    cells.extend(
        (
            Scenario(cross_shard=True),
            Scenario(batch_size=4, pipeline_window=4, cross_shard=True),
        )
    )
    return tuple(cells)
