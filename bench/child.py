"""One fresh interpreter: set one workload up, optionally measure it.

``bench/run.py`` starts this file several times per run (single thread,
``PYTHONHASHSEED=0``): every start times a whole set-up, the last one also
measures. It prints one JSON object on its last line of standard output.

Timing is by slices of a few dozen requests. A run of the frozen reference
kernel (``bench/refkernel.py``) sits between consecutive slices, and each
slice is divided by the mean of the two kernel runs around it; the metrics
are medians over slices of a per-slice figure (time per request, the p50
and the p95 of the slice's latencies), so a burst of host contention, which
inflates every request of the slices it hits, moves none of them.
"""

from __future__ import annotations

import os
import sys
import time

_SPAWNED_AT = time.time()  # overridden by --spawned-at, the parent's clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any  # noqa: E402

from bench.refkernel import timed_kernel, to_ref_us  # noqa: E402


#: ``peak_rss_mb`` is read when this many measured slices are done (or at
#: the last one, on a machine too slow to get there): memory after a fixed
#: amount of work. Read at the end of a timed run it would follow the host's
#: speed - queues and logs grow with every request - and not the program.
RSS_SLICES = 20


def reference_seconds() -> float:
    """The kernel's time right now: the faster of two runs, so one
    descheduling inside a 4 ms kernel does not halve a slice's metric."""
    return min(timed_kernel(), timed_kernel())


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))]


def run_plan(
    cluster: Any, plan: list, problems: list[str]
) -> tuple[float, list[float], int, int]:
    """One closed loop per client over ``plan``; every reply is checked.

    Returns (wall seconds, per-request latencies, requests issued, requests
    that came back wrong or not at all); says which in ``problems``.
    """
    from bench.workloads import reply_matches  # imported by main() already

    total = sum(len(ops) for ops in plan)
    latencies: list[float] = []
    state = {"left": total, "wrong": 0}

    def issue(client: int, ops: Any) -> None:
        op = next(ops, None)
        if op is None:
            return
        operation, args, expected = op
        submitted = perf_counter()

        def on_result(value: Any) -> None:
            latencies.append(perf_counter() - submitted)
            if not reply_matches(value, expected):
                state["wrong"] += 1
                problems.append(
                    f"{operation}{args!r:.60} returned {value!r:.40}, not {expected!r:.40}"
                )
            state["left"] -= 1
            if state["left"] == 0:
                cluster.wake()
            issue(client, ops)

        cluster.submit(client, operation, args, on_result)

    started = perf_counter()
    for client, ops in enumerate(plan):
        issue(client, iter(ops))
    cluster.drive(lambda: state["left"] == 0)
    wall = perf_counter() - started
    if state["left"]:
        problems.append(f"{state['left']} of {total} requests never returned")
    return wall, latencies, total, state["wrong"] + state["left"]


def health(cluster: Any, model: dict) -> list[str]:
    """What is wrong with the deployment after the run; empty when nothing."""
    problems: list[str] = []
    system = cluster.system
    for domain_id, info in system.directory.domains.items():
        if info.kind == "gm":
            continue
        elements = [system.elements[pid] for pid in info.element_ids]
        for element in elements:
            if element.diverged:
                problems.append(f"{element.pid} diverged")
            if element.view != 0:
                problems.append(f"{element.pid} is in view {element.view}")
        dispatched = {len(element.dispatched) for element in elements}
        if len(dispatched) != 1:
            problems.append(f"{domain_id} dispatch counts differ: {sorted(dispatched)}")
        if model:
            for element in elements:
                if element.orb.adapter.servant_for(b"kv").data != model:
                    problems.append(f"{element.pid} state differs from the model")
    for transport in cluster.transports():
        for key, value in transport.stats.items():
            if key.startswith(("sends_dropped", "recv_dropped")) and value:
                problems.append(f"{transport.own_pid} {key}={value}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--measure", type=float, default=0.0, help="seconds; 0 = set-up only")
    parser.add_argument("--probes", type=int, default=0, help="1 = install bench/probes.py")
    parser.add_argument("--spawned-at", type=float, default=_SPAWNED_AT)
    options = parser.parse_args(argv)

    ref_before = reference_seconds()
    import_started = perf_counter()
    from bench import probes
    from bench.workloads import WORKLOADS, warmup_plans

    workload = WORKLOADS[options.workload]
    tracer = probes.Tracer()
    if options.probes:
        probes.install(tracer)  # before the build: constructors store bound methods
    import_s = perf_counter() - import_started

    # -- set-up: build, settle, warm up ------------------------------------------
    model: dict = {}
    slices = workload.slices(random.Random(options.seed), model)
    started = perf_counter()
    cluster = workload.build(options.seed)
    built = perf_counter()
    cluster.settle()
    settled = perf_counter()
    attempted = failed = 0
    problems: list[str] = []
    for plan in warmup_plans(slices):
        _wall, _latencies, issued, bad = run_plan(cluster, plan, problems)
        attempted += issued
        failed += bad
    ready = perf_counter()
    ready_wall = time.time()
    ref_after = reference_seconds()
    setup_ref = (ref_before + ref_after) / 2
    # Interpreter start to ready, less the two kernel runs taken meanwhile.
    setup_wall = (ready_wall - options.spawned_at) - 2 * ref_before
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": options.seed,
        "setup": {
            "setup_s": to_ref_us(setup_wall, setup_ref) / 1e6,
            "raw_s": setup_wall,
            "import_s": import_s,
            "build_s": built - started,
            "settle_s": settled - built,
            "warmup_s": ready - settled,
        },
    }

    # -- measurement: slices until the time is up ---------------------------------
    rows: list[dict] = []
    stuck = bool(failed)
    ref = ref_after
    reads_before = read_path(cluster)
    deadline = perf_counter() + options.measure
    while not stuck and perf_counter() < deadline:
        plan = next(slices)  # generated outside the timed region
        traffic = cluster.traffic()
        sim = (cluster.sim_now, cluster.sim_events)
        trace = tracer.snapshot()
        tracer.active = bool(options.probes)
        wall, latencies, issued, bad = run_plan(cluster, plan, problems)
        tracer.active = False
        ref_next = reference_seconds()
        traffic_after = cluster.traffic()
        rows.append({
            "wall": wall,
            "ref": (ref + ref_next) / 2,
            "requests": issued,
            "latencies": latencies,
            "msgs": traffic_after[0] - traffic[0],
            "bytes": traffic_after[1] - traffic[1],
            "sim_seconds": cluster.sim_now - sim[0],
            "sim_events": cluster.sim_events - sim[1],
            "trace": (trace, tracer.snapshot()),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        ref = ref_next
        attempted += issued
        failed += bad
        stuck = bool(bad)  # a request never came back: the closed loop is broken
    if rows:
        result["measured"] = summarise(rows)
        if options.probes:
            result["layers"] = layer_budget(rows, cluster, reads_before)

    # -- verdict ------------------------------------------------------------------
    if not stuck:
        cluster.quiesce()
    problems += health(cluster, model)
    cluster.close()
    result.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(result))
    return 0


def read_path(cluster: Any) -> dict[str, int]:
    """The clients' read fast-path counters (all zero without the fast path)."""
    totals = {"reads_sent": 0, "read_fastpath_hits": 0, "read_fastpath_fallbacks": 0}
    for client in cluster.clients:
        for connection in client.endpoint.connections.values():
            for name in totals:
                totals[name] += getattr(connection, name, 0)
    return totals


def summarise(rows: list[dict]) -> dict[str, Any]:
    """The end-to-end numbers of one measurement: medians over slices."""

    def over_slices(fn: Any) -> float:
        return statistics.median(fn(row) for row in rows)

    def latency(fraction: float) -> float:
        return over_slices(
            lambda r: to_ref_us(percentile(sorted(r["latencies"]), fraction), r["ref"])
        )

    return {
        "slices": len(rows),
        "samples": sum(len(row["latencies"]) for row in rows),
        "req_us_norm": over_slices(lambda r: to_ref_us(r["wall"] / r["requests"], r["ref"])),
        "lat_p50_us_norm": latency(0.50),
        "lat_p95_us_norm": latency(0.95),
        "rss_mb": rows[min(len(rows), RSS_SLICES) - 1]["rss_mb"],
        "msgs_per_req": over_slices(lambda r: r["msgs"] / r["requests"]),
        "bytes_per_req": over_slices(lambda r: r["bytes"] / r["requests"]),
        "raw_req_us": over_slices(lambda r: r["wall"] / r["requests"] * 1e6),
        "raw_ref_ms": over_slices(lambda r: r["ref"] * 1e3),
        "sim_lat_ms": over_slices(lambda r: r["sim_seconds"] / r["requests"] * 1e3),
    }


def layer_budget(rows: list[dict], cluster: Any, reads_before: dict) -> dict[str, Any]:
    """The per-layer budget of a probed measurement, per request, in ref-us.

    Sums, not medians: each slice's nanoseconds are scaled by that slice's
    reference time and added up, so the layers and ``other`` add to the
    probed request time exactly.
    """
    from bench.probes import LAYERS
    from repro.giop.codec import codec_cache_stats

    requests = sum(row["requests"] for row in rows)
    self_us = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts: dict[str, float] = {}
    other_us = wall_us = 0.0
    for row in rows:
        before, after = row["trace"]
        scale = to_ref_us(1e-6, row["ref"])  # raw us -> ref-us
        for layer in LAYERS:
            self_us[layer] += (after["self_ns"][layer] - before["self_ns"][layer]) / 1e3 * scale
            calls[layer] += after["calls"][layer] - before["calls"][layer]
        covered_us = (after["covered_ns"] - before["covered_ns"]) / 1e3
        other_us += (row["wall"] * 1e6 - covered_us) * scale
        wall_us += row["wall"] * 1e6 * scale
        for name, value in after["counts"].items():
            counts[name] = counts.get(name, 0.0) + value - before["counts"].get(name, 0.0)
    reads = {name: value - reads_before[name] for name, value in read_path(cluster).items()}
    wire = cluster.backend == "wire"
    return {
        "requests": requests,
        "req_us_norm": wall_us / requests,
        "self_us": {layer: value / requests for layer, value in self_us.items()},
        "calls": {layer: value / requests for layer, value in calls.items()},
        "other_us": other_us / requests,
        "counts": counts,
        "reads": reads,
        "codec_cache_hit_ratio": codec_cache_stats()["hit_rate"],
        "tcp_frames": sum(row["msgs"] for row in rows) / requests if wire else 0.0,
        "tcp_bytes": sum(row["bytes"] for row in rows) / requests if wire else 0.0,
        "tcp_queue_drops": sum(
            t.stats["sends_dropped_queue_full"] for t in cluster.transports()
        ),
        "sim_events": sum(row["sim_events"] for row in rows) / requests,
    }


if __name__ == "__main__":
    sys.exit(main())
