#!/usr/bin/env python3
"""Sampling profiler for one scoreboard workload, with no probes installed.

Builds the workload from ``bench.workloads``, runs its warm-up, then runs
``--slices`` slices while ``setitimer(ITIMER_PROF)`` interrupts every
``--interval`` CPU seconds and records the Python stack. A function's
*inclusive* share is the fraction of samples with it anywhere on the
stack, its *self* share the fraction with it on top; both are scaled by
the CPU time per request. Modules are reported the same way; functions
twice, sorted by inclusive and by self time. Unlike the
traced run (a probe frame per call) or cProfile (a hook per call), the
cost is per sample, so call-heavy code is not inflated.

Usage: python tools/sample.py sim_readmix [--slices 150] [--seed 7] [--top 25]
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def sample(workload: str, seed: int, slices: int, interval: float) -> tuple[dict, int, float]:
    """Per-(function and module) ``[inclusive, self]`` sample counts, the
    number of samples, and CPU µs per request."""
    from bench.child import run_plan
    from bench.workloads import WORKLOADS, warmup_plans

    spec = WORKLOADS[workload]
    stream = spec.slices(random.Random(seed), {})
    cluster = spec.build(seed)
    cluster.settle()
    problems: list[str] = []
    for plan in warmup_plans(stream):
        run_plan(cluster, plan, problems)
    counts: dict[str, list[int]] = {}
    samples = [0]

    def on_tick(_signum: int, frame) -> None:
        samples[0] += 1
        seen = set()
        top = True
        while frame is not None:
            code = frame.f_code
            name = os.path.relpath(code.co_filename, ROOT)
            for key in (f"{name}:{code.co_name}", f"{name}:*"):
                entry = counts.setdefault(key, [0, 0])
                if key not in seen:
                    seen.add(key)
                    entry[0] += 1
                if top:
                    entry[1] += 1
            top = False
            frame = frame.f_back

    plans = [next(stream) for _ in range(slices)]
    previous = signal.signal(signal.SIGPROF, on_tick)
    cpu = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        requests = sum(run_plan(cluster, plan, problems)[2] for plan in plans)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = time.process_time() - cpu
        signal.signal(signal.SIGPROF, previous)
        cluster.close()
    if problems:
        raise SystemExit(f"{workload} went wrong: {problems[:3]}")
    return counts, samples[0], cpu * 1e6 / requests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--slices", type=int, default=150)
    parser.add_argument("--interval", type=float, default=0.0003, help="CPU seconds")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--match", default="src/", help="only rows containing this")
    options = parser.parse_args(argv)
    counts, samples, us_per_req = sample(
        options.workload, options.seed, options.slices, options.interval
    )
    print(f"{options.workload}: {samples} samples, {us_per_req:,.0f} CPU µs/request")
    # Sorted by inclusive time (where a request's time goes, top down) and
    # by self time (which code itself is hot, whoever calls it).
    for title, modules, column in (
        ("module", True, 0), ("function", False, 0), ("function by self time", False, 1)
    ):
        rows = sorted(
            ((key, value) for key, value in counts.items()
             if key.endswith(":*") == modules and options.match in key),
            key=lambda item: -item[1][column],
        )[: options.top]
        print(f"\n{'inclusive µs':>12} {'share':>6} {'self µs':>8} {'share':>6}  {title}")
        for key, (inclusive, own) in rows:
            share, own_share = inclusive / max(samples, 1), own / max(samples, 1)
            print(f"{share * us_per_req:12.1f} {share:6.1%} {own_share * us_per_req:8.1f} "
                  f"{own_share:6.1%}  {key.removesuffix(':*')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
