"""The schedule sweep: build a system, storm it, check it, shrink failures.

One :meth:`ScheduleRunner.run_one` call is fully deterministic in its
(scenario, seed, disabled) arguments: the simulated world, the workload
submission times, the fault schedule, and therefore every recorded event
are pure functions of those inputs. A violation report is thus a complete
reproduction recipe — re-running the same cell replays the same failure,
and the greedy shrinker exploits the determinism to search for the minimal
set of faults that still breaks the invariant.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any

from repro.chaos.adversary import ChaosController, FaultEvent
from repro.chaos.invariants import InvariantChecker, InvariantViolation, Violation
from repro.chaos.schedule import PartitionWindow, Scenario, build_plan, scenario_matrix
from repro.itdos.bootstrap import ItdosSystem
from repro.workloads.scenarios import (
    CalculatorServant,
    ShardKvServant,
    standard_repository,
)

#: Simulated seconds of adversarial schedule after the warm-up invocation.
CHAOS_WINDOW = 2.5
#: Simulated seconds of clean network granted for liveness to re-establish.
#: Generous on purpose: after a heavy storm the client retry schedule backs
#: off exponentially (BFT engine) on top of the SMIOP re-submission cap, and
#: queued invocations drain one at a time — but the run stops early the
#: moment every reply decides, so healthy cells never pay for the slack.
SETTLE_WINDOW = 30.0


@dataclass
class RunResult:
    """Outcome of one (scenario, seed) cell."""

    scenario: Scenario
    seed: int
    ok: bool = True
    violations: list[dict[str, Any]] = field(default_factory=list)
    fault_events: list[FaultEvent] = field(default_factory=list)
    fault_candidates: int = 0
    faults_applied: dict[str, int] = field(default_factory=dict)
    replies: int = 0
    requests: int = 0
    sim_time: float = 0.0
    deliveries: int = 0
    error: str | None = None
    # Ground truth for detector validation: the elements the plan allowed to
    # misbehave this run (the sampled equivocator set).
    true_faulty: list[str] = field(default_factory=list)
    # Detector verdict vs that ground truth (telemetry runs only).
    detection: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.label,
            "seed": self.seed,
            "ok": self.ok,
            "violations": self.violations,
            "fault_events": [event.to_dict() for event in self.fault_events],
            "fault_candidates": self.fault_candidates,
            "faults_applied": self.faults_applied,
            "replies": self.replies,
            "requests": self.requests,
            "sim_time": self.sim_time,
            "deliveries": self.deliveries,
            "error": self.error,
            "true_faulty": self.true_faulty,
            "detection": self.detection,
        }


@dataclass
class SweepResult:
    """Every cell of one sweep, plus the shrunk repro of the first failure."""

    results: list[RunResult] = field(default_factory=list)
    shrunk: list[FaultEvent] | None = None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> list[RunResult]:
        return [result for result in self.results if not result.ok]

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "runs": len(self.results),
            "failures": [result.to_dict() for result in self.failures],
            "faults_applied": sum(
                sum(result.faults_applied.values()) for result in self.results
            ),
            "shrunk": (
                [event.to_dict() for event in self.shrunk]
                if self.shrunk is not None
                else None
            ),
        }


class ScheduleRunner:
    """Sweeps the scenario matrix over seeds, recording and shrinking."""

    def __init__(
        self,
        scenarios: tuple[Scenario, ...] | None = None,
        seeds: tuple[int, ...] = (0, 1),
        requests: int = 6,
        intensity: float = 1.0,
        shrink: bool = False,
        telemetry: bool = False,
        fault_kinds: str = "all",
        log: Any = None,
    ) -> None:
        if fault_kinds not in ("all", "benign"):
            raise ValueError(f"fault_kinds must be 'all' or 'benign', not {fault_kinds!r}")
        self.scenarios = scenarios if scenarios is not None else scenario_matrix()
        self.seeds = tuple(seeds)
        self.requests = requests
        self.intensity = intensity
        self.shrink_failures = shrink
        self.telemetry = telemetry
        # "benign" strips every Byzantine fault from the drawn plan (no
        # corruption, no equivocation, nobody faulty) while leaving the
        # drop/delay/duplicate/reorder/partition schedule untouched — the
        # honest-under-stress control cell for false-accusation checks.
        self.fault_kinds = fault_kinds
        self.log = log or (lambda message: None)
        # The telemetry facade of the most recent run_one, kept so callers
        # (the detect CLI, tests) can render the health board and audit log
        # after the cell's system has been torn down.
        self.last_telemetry: Any = None

    # -- sweep --------------------------------------------------------------

    def run(self) -> SweepResult:
        sweep = SweepResult()
        for scenario in self.scenarios:
            for seed in self.seeds:
                result = self.run_one(scenario, seed)
                sweep.results.append(result)
                status = "ok" if result.ok else "VIOLATION"
                self.log(
                    f"chaos {scenario.label} seed={seed}: {status} "
                    f"({sum(result.faults_applied.values())} faults, "
                    f"{result.replies}/{result.requests} replies)"
                )
                if not result.ok and sweep.shrunk is None and self.shrink_failures:
                    sweep.shrunk = self.shrink(scenario, seed)
        return sweep

    def shrink(
        self, scenario: Scenario, seed: int, max_probes: int = 64
    ) -> list[FaultEvent]:
        """Greedily minimise the fault schedule of a failing cell."""
        return _Shrinker(self, scenario, seed).shrink(max_probes)

    # -- one cell ------------------------------------------------------------

    def run_one(
        self,
        scenario: Scenario,
        seed: int,
        disabled: frozenset[int] | set[int] = frozenset(),
    ) -> RunResult:
        result = RunResult(scenario=scenario, seed=seed, requests=self.requests)
        system = ItdosSystem(
            seed=seed,
            repository=standard_repository(),
            checkpoint_interval=8,
            telemetry=self.telemetry,
            bft_batch_size=scenario.batch_size,
            bft_batch_delay=0.005 if scenario.batch_size > 1 else 0.0,
            bft_pipeline_window=scenario.pipeline_window,
            read_fastpath=scenario.read_fastpath,
        )
        # Observing from the first event: the checker judges every delivery,
        # ordered batch and dispatch since construction, warm-up included.
        checker = InvariantChecker(system)
        system.network.observer = checker
        t = system.telemetry
        span = (
            t.begin("chaos.run", scenario=scenario.label, seed=seed)
            if t.enabled
            else None
        )
        try:
            self._run_cell(system, scenario, seed, disabled, result, checker)
        except InvariantViolation as exc:
            result.ok = False
            result.violations.append(exc.violation.to_dict())
        except Exception as exc:  # noqa: BLE001 - an escape is itself a finding
            result.ok = False
            result.error = f"{type(exc).__name__}: {exc}"
            result.violations.append(
                {
                    "name": "unhandled-exception",
                    "process": "harness",
                    "detail": result.error,
                    "time": system.network.now,
                }
            )
        finally:
            controller = system.network.adversary
            if controller is not None:
                result.fault_events = list(controller.events)
                result.fault_candidates = controller.fault_candidates
                result.faults_applied = dict(controller.applied)
            system.network.adversary = None
            system.network.observer = None
            result.sim_time = system.network.now
            result.deliveries = system.network.stats.messages_delivered
            if span is not None:
                span.attrs["ok"] = result.ok
                span.attrs["faults"] = sum(result.faults_applied.values())
                t.end(span)
            if t.enabled:
                t.registry.counter(
                    "chaos_runs_total", "Chaos cells executed", labels=("outcome",)
                ).labels(outcome="ok" if result.ok else "violation").inc()
                for kind, count in result.faults_applied.items():
                    t.registry.counter(
                        "chaos_faults_total", "Faults injected", labels=("kind",)
                    ).labels(kind=kind).inc(count)
                result.detection = self._detection_verdict(result, t)
            self.last_telemetry = t if t.enabled else None
        return result

    @staticmethod
    def _detection_verdict(result: RunResult, t: Any) -> dict[str, Any]:
        """Score the run's detector output against the plan's ground truth.

        Recall is measured against the *active* faulty set — elements the
        plan sampled as faulty AND whose equivocation faults actually fired.
        A faulty element the adversary never exercised is indistinguishable
        from an honest one by any protocol-visible observer, so charging its
        silence as a miss would measure the schedule, not the detector.
        """
        truth = set(result.true_faulty)
        active = sorted(
            truth
            & {e.src for e in result.fault_events if e.kind == "equivocate"}
        )
        accused = sorted(t.detect.accused())
        suspected = sorted(t.detect.suspected())
        false_accusations = sorted(set(accused) - truth)
        detected = [pid for pid in active if pid in accused]
        chain_ok, chain_error = t.audit.verify()
        return {
            "active_faulty": active,
            "accused": accused,
            "suspected": suspected,
            "false_accusations": false_accusations,
            "detected": detected,
            "evidenced": [pid for pid in active if t.audit.against(pid)],
            "missed": [pid for pid in active if pid not in accused],
            "time_to_detect": {
                pid: t.detect.first_accused[pid]
                for pid in accused
                if pid in t.detect.first_accused
            },
            "scores": t.detect.scores(),
            "audit_entries": len(t.audit),
            "audit_hard": sum(1 for e in t.audit.entries if e.hard),
            "audit_chain_ok": chain_ok,
            "audit_chain_error": chain_error,
        }

    def _run_cell(
        self,
        system: ItdosSystem,
        scenario: Scenario,
        seed: int,
        disabled: frozenset[int] | set[int],
        result: RunResult,
        checker: InvariantChecker,
    ) -> None:
        read_cell = scenario.read_fastpath
        cross_cell = scenario.cross_shard
        router = None
        shard_map = None
        if cross_cell:
            # E20 cell: two shard domains plus the coordinator domain, the
            # wire equivocator pinned to a coordinator element (the paper's
            # worst case for atomic commit: the decision-maker lies), a
            # scripted participant partition mid-commit, and the ambient
            # adversary's duplicates replaying torn prepares.
            shard_map = system.add_sharded_domain(
                "kv",
                shards=2,
                f=1,
                servants=lambda element: {b"kv": ShardKvServant()},
            )
            elements = [
                system.elements[pid]
                for pid in system.directory.domain(shard_map.domain_ids[0]).element_ids
            ]
        elif read_cell:
            from repro.chaos.byzantine import ForgedWatermarkElement, LaggingReader

            # E19 adversaries, deterministic by construction: element 1
            # forges read watermarks (and is also the wire equivocator, so
            # the corrupt budget stays at f), and the single read-tier
            # element lags its commit feed — stale but legal replies. The
            # benign control cell keeps the topology but every element runs
            # the honest code, matching the no-Byzantine contract.
            byzantine = self.fault_kinds != "benign"
            elements = system.add_server_domain(
                "calc",
                f=1,
                servants=lambda element: {b"calc": CalculatorServant()},
                byzantine={1: ForgedWatermarkElement} if byzantine else None,
                readers=1,
                reader_class=LaggingReader if byzantine else None,
            )
        else:
            elements = system.add_server_domain(
                "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
            )
        client = system.add_client("alice")
        system.settle(0.5)  # GM coin-toss bootstrap
        if cross_cell:
            from repro.itdos.sharding import ShardRouter

            router = ShardRouter.for_system(system, client, shard_map)

            def key_on_shard(shard: int, tag: str) -> str:
                # First suffix landing the key on the wanted shard; pure
                # function of (tag, shard), so every replay agrees.
                n = 0
                while shard_map.shard_of(f"{tag}.{n}") != shard:
                    n += 1
                return f"{tag}.{n}"

            # Warm-up: handshake every shard connection plus the whole
            # coordinator path (nested prepare/commit) on a clean wire.
            router.invoke(key_on_shard(0, "warm"), "put", key_on_shard(0, "warm"), "w")
            warm_keys = [key_on_shard(0, "wtx"), key_on_shard(1, "wtx")]
            if router.transact(warm_keys, ["w", "w"]) != 1:
                raise AssertionError("warm-up transaction did not commit")
        else:
            ref = system.ref("calc", b"calc")
            stub = client.stub(ref)
            # Warm-up: Figure 3 handshake + first voted reply on a clean wire.
            if stub.add(1.0, 2.0) != 3.0:
                raise AssertionError("warm-up invocation returned a wrong result")

        # -- arm the adversary and the checker ------------------------------
        plan_rng = random.Random((seed << 8) ^ 0xC4A05)
        if cross_cell:
            txc_info = system.directory.domain(shard_map.coordinator_id)
            equivocators = frozenset({txc_info.element_ids[1]})
        elif read_cell:
            domain_info = system.directory.domain("calc")
            equivocators = frozenset({domain_info.element_ids[1]})
        else:
            domain_info = system.directory.domain("calc")
            equivocators = frozenset(
                plan_rng.sample(list(domain_info.element_ids), k=domain_info.f)
            )
        plan = build_plan(
            plan_rng,
            horizon=system.network.now + CHAOS_WINDOW,
            processes=sorted(system.network.processes),
            equivocators=equivocators,
            intensity=self.intensity,
        )
        if self.fault_kinds == "benign":
            # Same seeded schedule, Byzantine channel closed: the plan is
            # drawn identically (same RNG consumption) and then stripped, so
            # the control cell sees the very drop/delay storm the full cell
            # did — minus anything attributable.
            plan = dataclasses.replace(
                plan, p_corrupt=0.0, p_equivocate=0.0, equivocators=frozenset()
            )
            equivocators = frozenset()
        if cross_cell:
            # Mid-commit participant partition: one shard-1 element and one
            # coordinator element lose the network while transactions are
            # in flight, healing before the horizon. One member per domain
            # keeps the cut inside the f bound, so atomicity AND post-storm
            # liveness must both survive it. (A benign fault: the control
            # cell keeps it.)
            cut = frozenset(
                {
                    system.directory.domain(shard_map.domain_ids[1]).element_ids[3],
                    system.directory.domain(shard_map.coordinator_id).element_ids[3],
                }
            )
            window = PartitionWindow(
                start=plan.horizon - CHAOS_WINDOW * 0.65,
                end=plan.horizon - CHAOS_WINDOW * 0.4,
                group_a=cut,
            )
            plan = dataclasses.replace(plan, partitions=plan.partitions + (window,))
        result.true_faulty = sorted(equivocators)
        controller = ChaosController(
            system.network, plan, seed=seed ^ 0x5EED, disabled=disabled
        )
        checker.corrupt = set(equivocators)
        system.network.adversary = controller

        # -- workload: staggered async invocations through the storm --------
        # Read cells interleave fast-path reads (odd indices, ``mean`` is
        # declared read_only) with ordered writes; reads that hit divergent
        # tentative replies resubmit through ordering, so the same
        # eventual-reply liveness bar applies to every index. Cross-shard
        # cells interleave single-shard puts with two-shard transactions,
        # every second transaction carrying a poisoned key so the abort
        # path rides the same storm the commit path does.
        replies: dict[int, Any] = {}
        expected: dict[int, Any] = {}
        for i in range(self.requests):
            if cross_cell:
                expected[i] = (0 if i % 4 == 3 else 1) if i % 2 else None
            elif read_cell and i % 2:
                expected[i] = (float(i) + 1.0) / 2.0
            else:
                expected[i] = float(i) + 1.0

        def submit(i: int) -> None:
            record = lambda value, i=i: replies.__setitem__(i, value)  # noqa: E731
            if cross_cell:
                if i % 2:
                    first = f"!p{i}" if i % 4 == 3 else f"t{i}"
                    keys = [key_on_shard(0, first), key_on_shard(1, f"t{i}")]
                    router.submit_transact(keys, [f"v{i}", f"v{i}"], record)
                else:
                    router.submit(f"k{i}", "put", (f"k{i}", f"v{i}"), record)
                return
            if read_cell and i % 2:
                operation, args = "mean", ([float(i), 1.0],)
            else:
                operation, args = "add", (float(i), 1.0)
            client.async_invoke(ref, operation, args, record)

        step = CHAOS_WINDOW / (2 * max(1, self.requests))
        for i in range(self.requests):
            system.network.scheduler.schedule(0.01 + i * step, lambda i=i: submit(i))

        # -- scripted disturbances on top of the random schedule ------------
        recovering: list[Any] = []
        if read_cell:
            # Catch-up under fire: the reader reboots mid-storm and must
            # re-adopt the committed stream from the core tier while the
            # adversary is still active.
            reader = system.read_tier("calc")[0]
            system.network.scheduler.schedule(CHAOS_WINDOW * 0.45, reader.restart)
        if scenario.forced_view_change:
            primary = elements[0]
            system.network.scheduler.schedule(CHAOS_WINDOW * 0.35, primary.crash)
            system.network.scheduler.schedule(CHAOS_WINDOW * 0.55, primary.recover)
        if scenario.mid_run_recovery:
            victim = elements[2]

            def restart_and_recover() -> None:
                victim.restart()
                victim.recover_membership(
                    fresh_keys=True, on_complete=recovering.append
                )

            system.network.scheduler.schedule(
                CHAOS_WINDOW * 0.5, restart_and_recover
            )

        # -- storm, then clean settle, then liveness ------------------------
        system.network.run(until=plan.horizon)
        system.network.run(
            until=plan.horizon + SETTLE_WINDOW,
            stop_when=lambda: len(replies) == self.requests
            and (not scenario.mid_run_recovery or bool(recovering)),
        )
        if scenario.mid_run_recovery and not any(recovering):
            # Heavy schedules can exhaust the in-storm transfer attempts;
            # bounded loss means a retry on the clean network must succeed.
            done: list[bool] = []
            victim.recover_membership(fresh_keys=True, on_complete=done.append)
            system.run_until(lambda: bool(done))
            if not done or not done[0]:
                raise InvariantViolation(
                    Violation(
                        name="liveness",
                        process=victim.pid,
                        detail="mid-run recovery never completed on a clean network",
                        time=system.network.now,
                    )
                )
        pending = {
            i: expected[i] for i in expected if i not in replies
        }
        result.replies = len(replies)
        checker.final(pending)
        for i, value in replies.items():
            want = expected[i]
            wrong = (
                abs(value - want) > 1e-6
                if isinstance(want, float) and isinstance(value, (int, float))
                else value != want
            )
            if wrong:
                # The strongest vote-consistency oracle: the runner knows the
                # semantics of the workload, so a decided-but-wrong value is
                # caught even if the quorum arithmetic looked plausible.
                raise InvariantViolation(
                    Violation(
                        name="vote-wrong-value",
                        process=client.pid,
                        detail=f"request {i}: voted {value!r}, "
                        f"expected {expected[i]!r}",
                        time=system.network.now,
                    )
                )


# -- shrinking ---------------------------------------------------------------


def _chunks(items: list[int], size: int) -> list[list[int]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class _Shrinker:
    """Greedy delta debugging over fault indices.

    Re-runs the same (scenario, seed) with growing ``disabled`` sets; a
    probe "succeeds" when the violation persists without the disabled
    faults. Fault indices are allocated in message order, so the index
    space of probe runs stays aligned with the original for the unchanged
    prefix — enough for a greedy search (each accepted probe is re-verified
    by construction, since acceptance *is* the probe run failing).
    """

    def __init__(self, runner: ScheduleRunner, scenario: Scenario, seed: int) -> None:
        self.runner = runner
        self.scenario = scenario
        self.seed = seed
        self.probes = 0

    def shrink(self, max_probes: int = 64) -> list[FaultEvent]:
        base = self.runner.run_one(self.scenario, self.seed)
        if base.ok:
            return []
        active = sorted(event.index for event in base.fault_events)
        disabled: set[int] = set()
        last = base
        chunk = max(1, len(active) // 2)
        while self.probes < max_probes:
            progress = False
            for block in _chunks(active, chunk):
                if self.probes >= max_probes:
                    break
                trial = disabled | set(block)
                probe = self.runner.run_one(self.scenario, self.seed, disabled=trial)
                self.probes += 1
                if not probe.ok:
                    disabled = trial
                    active = [index for index in active if index not in trial]
                    last = probe
                    progress = True
            if chunk == 1 and not progress:
                break  # 1-minimal: no single remaining fault is removable
            chunk = max(1, chunk // 2)
        remaining = set(active)
        return [event for event in last.fault_events if event.index in remaining]
