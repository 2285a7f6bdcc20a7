"""E17 — intrusion evidence & fault estimation vs chaos ground truth.

The detection layer (repro.obs.audit + repro.obs.detect) must satisfy two
asymmetric obligations at once:

* **no false accusations, ever** — the chaos adversary may corrupt an
  honest element's ciphertext, signature, and payload bytes at will, and
  none of that may push an honest element over the accusation threshold
  (soft evidence is capped strictly below it by construction);
* **real intruders are caught** — an element that *signs* lies (the
  LyingElement drill) produces attributable hard evidence and must be
  accused, quickly, with a verifiable audit trail behind the accusation.

Three parts measure this: (A) an intensity sweep scoring the detector
against the ScheduleRunner's sampled ground truth, (B) the hard-attribution
drill reporting precision/recall/time-to-detect, and (C) the telemetry
overhead on the E14 ordered-throughput workload.
"""

import time

from benchmarks.conftest import once, print_table
from repro.bft.auth import HmacAuth
from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.replica import build_group
from repro.chaos.runner import ScheduleRunner
from repro.chaos.schedule import Scenario
from repro.crypto.signing import HmacAuthenticator
from repro.sim import FixedLatency, Network, NetworkConfig

INTENSITIES = [0.0, 0.5, 1.0]
SEEDS = (0, 1)
SCENARIOS = (Scenario(), Scenario(batch_size=4, pipeline_window=4))
DRILL_SEEDS = (5, 7, 11)

# Part C workload (scaled-down E14 cell: enough ordering traffic for a
# stable rate, small enough for the PR workflow).
OVERHEAD_CLIENTS = 16
OVERHEAD_REQUESTS = 4
OVERHEAD_BATCH = 8


# -- part A: chaos sweep vs ground truth -------------------------------------


def run_sweep(intensity: float) -> dict:
    runner = ScheduleRunner(
        scenarios=SCENARIOS,
        seeds=SEEDS,
        requests=4,
        intensity=intensity,
        telemetry=True,
    )
    cells = active = evidenced = accused = 0
    false_accusations: list[str] = []
    for scenario in SCENARIOS:
        for seed in SEEDS:
            result = runner.run_one(scenario, seed)
            verdict = result.detection
            assert verdict is not None
            cells += 1
            active += len(verdict["active_faulty"])
            evidenced += len(verdict["evidenced"])
            accused += len(verdict["accused"])
            false_accusations.extend(verdict["false_accusations"])
            assert verdict["audit_chain_ok"], verdict["audit_chain_error"]
    return {
        "intensity": intensity,
        "cells": cells,
        "active": active,
        "evidenced": evidenced,
        "accused": accused,
        "false_accusations": false_accusations,
        "evidence_recall": evidenced / active if active else None,
    }


# -- part B: hard attribution drill ------------------------------------------


def run_drill(seed: int) -> dict:
    from repro.itdos.bootstrap import ItdosSystem
    from repro.chaos.byzantine import LyingElement
    from repro.workloads.scenarios import CalculatorServant, standard_repository

    system = ItdosSystem(seed=seed, repository=standard_repository(), telemetry=True)
    system.add_server_domain(
        "calc", f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e2": LyingElement},
    )
    client = system.add_client("bench-client")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(2.0, 3.0) == 5.0  # masked despite the liar
    system.settle(3.0)
    t = system.telemetry
    truth = {"calc-e2"}
    accused = set(t.detect.accused())
    chain_ok, chain_error = t.audit.verify()
    assert chain_ok, chain_error
    bad_signatures = t.audit.verify_signatures(system.directory.keyring.verify)
    return {
        "seed": seed,
        "accused": sorted(accused),
        "true_positives": len(accused & truth),
        "false_positives": len(accused - truth),
        "recall": len(accused & truth) / len(truth),
        "precision": len(accused & truth) / len(accused) if accused else None,
        "time_to_detect": t.detect.first_accused.get("calc-e2"),
        "hard_entries": sum(1 for e in t.audit.entries if e.hard),
        "bad_signatures": bad_signatures,
    }


# -- part C: telemetry overhead on the E14 workload --------------------------


def run_overhead_cell(telemetry: bool, seed: int = 17) -> tuple[float, float]:
    """(sim ordered req/s, wall seconds) for one E14-style ordering run."""
    network = Network(NetworkConfig(seed=seed, latency=FixedLatency(0.001)))
    if telemetry:
        network.enable_telemetry()
    config = BftConfig(
        group_id="grp",
        replica_ids=tuple(f"r{i}" for i in range(4)),
        f=1,
        checkpoint_interval=32,
        view_change_timeout=5.0,
        client_retry_timeout=5.0,
        batch_size=OVERHEAD_BATCH,
        batch_delay=0.002,
        pipeline_window=4,
    )
    auths = HmacAuthenticator.bootstrap(list(config.replica_ids), seed=7)
    build_group(network, config, auth_factory=lambda pid: HmacAuth(auths[pid]))
    total = OVERHEAD_CLIENTS * OVERHEAD_REQUESTS
    completions: list[float] = []
    clients = []
    for c in range(OVERHEAD_CLIENTS):
        client = BftClient(f"c{c}", config, max_outstanding=1)
        network.add_process(client)
        clients.append(client)

    def submit(client, index):
        def on_reply(result, client=client, index=index):
            completions.append(network.now)
            if index + 1 < OVERHEAD_REQUESTS:
                submit(client, index + 1)

        client.invoke(f"{client.pid}:{index}".encode(), on_reply)

    start = network.now
    wall_start = time.perf_counter()
    for client in clients:
        submit(client, 0)
    network.run(stop_when=lambda: len(completions) >= total, max_events=10**7)
    wall = time.perf_counter() - wall_start
    assert len(completions) >= total
    return total / (network.now - start), wall


# -- the benchmark ------------------------------------------------------------


def test_e17_detection_vs_ground_truth(benchmark):
    def run_all():
        sweeps = [run_sweep(x) for x in INTENSITIES]
        drills = [run_drill(seed) for seed in DRILL_SEEDS]
        # Wall time jitters run to run; best-of-3 per arm steadies the
        # reported overhead without touching the asserted sim numbers.
        off = [run_overhead_cell(telemetry=False) for _ in range(3)]
        on = [run_overhead_cell(telemetry=True) for _ in range(3)]
        overhead = {
            "rps_off": max(r for r, _ in off),
            "rps_on": max(r for r, _ in on),
            "wall_off": min(w for _, w in off),
            "wall_on": min(w for _, w in on),
        }
        return sweeps, drills, overhead

    sweeps, drills, overhead = once(benchmark, run_all)

    print_table(
        "E17a: detector vs chaos ground truth "
        f"({len(SCENARIOS)} scenarios x {len(SEEDS)} seeds)",
        ["intensity", "cells", "active faulty", "evidenced", "accused",
         "false accusations", "evidence recall"],
        [
            [
                s["intensity"],
                s["cells"],
                s["active"],
                s["evidenced"],
                s["accused"],
                len(s["false_accusations"]),
                "-" if s["evidence_recall"] is None
                else f"{s['evidence_recall']:.2f}",
            ]
            for s in sweeps
        ],
    )
    print_table(
        "E17b: hard attribution drill (signed lies -> accusation)",
        ["seed", "accused", "precision", "recall", "time to detect",
         "hard entries", "bad signatures"],
        [
            [
                d["seed"],
                ",".join(d["accused"]) or "-",
                "-" if d["precision"] is None else f"{d['precision']:.2f}",
                f"{d['recall']:.2f}",
                "-" if d["time_to_detect"] is None
                else f"{d['time_to_detect'] * 1000:.0f} ms",
                d["hard_entries"],
                len(d["bad_signatures"]),
            ]
            for d in drills
        ],
    )
    ratio = overhead["rps_on"] / overhead["rps_off"]
    wall_ratio = overhead["wall_on"] / overhead["wall_off"]
    print_table(
        "E17c: telemetry overhead on the E14 ordering workload",
        ["telemetry", "ordered req/s (sim)", "wall s"],
        [
            ["off", f"{overhead['rps_off']:,.0f}", f"{overhead['wall_off']:.3f}"],
            ["on", f"{overhead['rps_on']:,.0f}", f"{overhead['wall_on']:.3f}"],
            ["ratio", f"{ratio:.3f}", f"{wall_ratio:.2f}x"],
        ],
    )

    benchmark.extra_info["sweeps"] = sweeps
    benchmark.extra_info["drills"] = drills
    benchmark.extra_info["overhead"] = {**overhead, "rps_ratio": ratio,
                                        "wall_ratio": wall_ratio}

    # The headline obligations.
    for s in sweeps:
        assert s["false_accusations"] == [], (
            f"honest element accused at intensity {s['intensity']}: "
            f"{s['false_accusations']}"
        )
    # At full intensity the sampled intruders actually misbehave and every
    # one of them leaves an audit trail.
    storm = sweeps[-1]
    assert storm["active"] > 0
    assert storm["evidence_recall"] == 1.0
    # Signed lies are always attributed: perfect precision and recall, with
    # hard evidence whose signatures re-verify against the keyring.
    for d in drills:
        assert d["recall"] == 1.0 and d["precision"] == 1.0
        assert d["time_to_detect"] is not None
        assert d["hard_entries"] > 0 and d["bad_signatures"] == []
    # Ordered throughput (simulated time) must stay within 5%. Telemetry
    # does no scheduling, so this also guards against it ever acquiring any.
    assert ratio >= 0.95
