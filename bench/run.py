"""The benchmark's one command.

One run of one workload, as BENCHMARK.json's driver calls it::

    python3 bench/run.py --workload sim_null --seed 7 --seconds 10 --trace 0

prints, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.

Every workload, several seeds each, into one file for ``bench/compare.py``::

    python3 bench/run.py --seed 7 --runs 10 --out A.json
    python3 bench/run.py --seed 7 --traced           # print the layer budget

A run starts ``bench/child.py`` in fresh interpreters, one at a time,
single-threaded, ``PYTHONHASHSEED=0``:

* ``--trace 0``: :data:`SETUPS` children each time a whole set-up (its
  median is ``setup_s``); the last one goes on to measure for ``--seconds``.
* ``--trace 1``: one child measures a quarter of ``--seconds`` unprobed (the
  denominator of ``trace.overhead_ratio``, and the ``setup.*`` and ``raw.*``
  rows), a second one installs ``bench/probes.py`` before it builds and
  measures the rest; then the two informational baselines run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Set-ups timed per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT = 150.0
#: Scratch space inside the checkout (the name the driver already uses for
#: build output); only the launcher baseline writes there, and cleans up.
SCRATCH = os.path.join(ROOT, ".bench_build")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child(workload: str, seed: int, measure: float, probes: bool) -> dict:
    """Run ``bench/child.py`` once; its last stdout line, parsed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [
        sys.executable, os.path.join(ROOT, "bench", "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--measure", repr(measure), "--probes", str(int(probes)),
        "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, check=True
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[dict]]:
    """(metric values, detail for the sweep file, the children's reports)."""
    reports = [child(workload, seed, 0.0, False) for _ in range(SETUPS - 1)]
    last = child(workload, seed, seconds, False)
    reports.append(last)
    measured = last["measured"]
    values = {
        "setup_s": statistics.median(r["setup"]["setup_s"] for r in reports),
        "req_us_norm": measured["req_us_norm"],
        "lat_p50_us_norm": measured["lat_p50_us_norm"],
        "lat_p95_us_norm": measured["lat_p95_us_norm"],
        "msgs_per_req": measured["msgs_per_req"],
        "bytes_per_req": measured["bytes_per_req"],
        "peak_rss_mb": measured["rss_mb"],
    }
    detail = {
        "slices": measured["slices"],
        "latency_samples": measured["samples"],
        "setup_s_each": [r["setup"]["setup_s"] for r in reports],
    }
    return values, detail, reports


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[dict]]:
    from bench import baselines
    from bench.probes import LAYERS

    plain = child(workload, seed, seconds / 4, False)
    probed = child(workload, seed, seconds * 3 / 4, True)
    layers, requests = probed["layers"], probed["layers"]["requests"]
    counts = layers["counts"]

    def per_request(name: str) -> float:
        return counts.get(name, 0.0) / requests

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_us"] = layers["self_us"][layer]
        values[f"{layer}.calls"] = layers["calls"][layer]
    values["other.self_us"] = layers["other_us"]
    for name in (
        "giop.bytes", "crypto.symmetric.bytes", "crypto.encoding.bytes",
        "crypto.signing.signs", "crypto.signing.verifies",
        "bft.preprepares", "bft.prepares", "bft.commits", "bft.checkpoints",
        "bft.view_changes",
    ):
        values[name] = per_request(name)
    reads = layers["reads"]
    # probed-run ref-us per raw us, to put the frame transit time in ref-us
    norm = ratio(layers["req_us_norm"], probed["measured"]["raw_req_us"])
    launcher_ready_s, launcher_req_us = baselines.launcher_cluster(seed, SCRATCH)
    values.update({
        "bft.batch_fill": ratio(counts.get("bft.batched_requests", 0.0),
                                counts.get("bft.preprepares", 0.0)),
        "itdos.voter.ballots_per_decision": ratio(counts.get("itdos.voter.ballots", 0.0),
                                                  counts.get("itdos.voter.decisions", 0.0)),
        "itdos.readtier.fastpath_hit_ratio": ratio(reads["read_fastpath_hits"],
                                                   reads["reads_sent"]),
        "itdos.readtier.fallbacks": reads["read_fastpath_fallbacks"] / requests,
        "giop.codec_cache_hit_ratio": layers["codec_cache_hit_ratio"],
        "sim.events": layers["sim_events"],
        "sim.lat_sim_ms": plain["measured"]["sim_lat_ms"],
        "net.wire.encodes_per_multicast": ratio(counts.get("net.wire.encodes", 0.0),
                                                counts.get("multicasts", 0.0)),
        "net.tcp.frames": layers["tcp_frames"],
        "net.tcp.bytes": layers["tcp_bytes"],
        "net.tcp.queue_drops": layers["tcp_queue_drops"],
        "net.tcp.wait_us": ratio(counts.get("net.tcp.wait_ns", 0.0) / 1e3,
                                 counts.get("net.tcp.waits", 0.0)) * norm,
        "setup.import_s": plain["setup"]["import_s"],
        "setup.build_s": plain["setup"]["build_s"],
        "setup.settle_s": plain["setup"]["settle_s"],
        "setup.warmup_s": plain["setup"]["warmup_s"],
        "raw.req_us": plain["measured"]["raw_req_us"],
        "raw.ref_ms": plain["measured"]["raw_ref_ms"],
        "trace.overhead_ratio": ratio(probed["measured"]["req_us_norm"],
                                      plain["measured"]["req_us_norm"]),
        "baseline.plain_iiop.req_us": baselines.plain_iiop(seed),
        "net.launcher.cluster_ready_s": launcher_ready_s,
        "net.launcher.req_us": launcher_req_us,
    })
    detail = {
        "probed_requests": requests,
        "probed_req_us_norm": layers["req_us_norm"],
        "budget_sum_us": sum(layers["self_us"].values()) + layers["other_us"],
    }
    return values, detail, [plain, probed]


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One driver run; the dict whose driver-facing part :func:`main` prints."""
    values, detail, reports = (per_layer if trace else end_to_end)(workload, seed, seconds)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(declared):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}"
        )
    problems = [problem for report in reports for problem in report["problems"]]
    failed = sum(report["failed"] for report in reports)
    for problem in problems:
        print(f"bench: {workload}: {problem}", file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems and not failed,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in declared.items()
        },
        "detail": detail,
    }


def print_table(run: dict) -> None:
    print(f"\n{run['workload']}  seed {run['seed']}  "
          f"{'correct' if run['correct'] else 'INCORRECT'}  "
          f"{run['failed']}/{run['attempted']} failed  {run['detail']}")
    for name, metric in run["metrics"].items():
        print(f"  {name:<38} {metric['value']:>16.4f} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload, driver output; default: all, as tables")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1, help="sweep: seeds seed..seed+runs-1")
    parser.add_argument("--out", help="sweep: write every run to this JSON file")
    options = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = options.seconds if options.seconds is not None else float(spec["run_seconds"])
    trace = bool(options.trace or options.traced)

    if options.workload is not None:
        if options.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"bench: unknown workload {options.workload!r}", file=sys.stderr)
            return 2
        run = run_once(spec, options.workload, options.seed, seconds, trace)
        print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for offset in range(options.runs):
            run = run_once(spec, workload, options.seed + offset, seconds, trace)
            print_table(run)
            runs.append(run)
            if options.out:
                with open(options.out, "w", encoding="utf-8") as handle:
                    json.dump({"seconds": seconds, "runs": runs}, handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
