#!/usr/bin/env python3
"""Sampling profiler for one scoreboard workload, with no probes installed.

Builds the workload from ``bench.workloads``, runs its warm-up, then runs
``--slices`` slices while ``setitimer(ITIMER_PROF)`` interrupts every
``--interval`` CPU seconds and records the Python stack. A function's
*inclusive* share is the fraction of samples with it anywhere on the
stack, its *self* share the fraction with it on top; both are scaled by
the CPU time per request. Modules are reported the same way; functions
twice, sorted by inclusive and by self time. Code that dataclasses
generate has no file of its own; its rows read ``<string>:Class.method``,
after the class of the frame's ``self``. Unlike the
traced run (a probe frame per call) or cProfile (a hook per call), the
cost is per sample, so call-heavy code is not inflated.

``--setup`` samples the set-up instead — build, settle and warm-up, where
every connection handshake runs — and scales the same tables by its whole
CPU time.

Usage: python tools/sample.py sim_readmix [--slices 150] [--seed 7] [--top 25]
       python tools/sample.py sim_batched --setup
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


def frame_row(frame) -> tuple[str, str]:
    """The file (relative to the repo) and function a frame is charged to.
    Generated code (a dataclass's ``__init__``, ``__eq__``, ...) has the file
    ``<string>`` and is charged to the class of its ``self``."""
    code = frame.f_code
    if code.co_filename != "<string>":
        return os.path.relpath(code.co_filename, ROOT), code.co_name
    owner = frame.f_locals.get("self")
    if owner is None:
        return "<string>", code.co_name
    return "<string>", f"{type(owner).__name__}.{code.co_name}"


def profile(run, interval: float) -> tuple[dict, int, float, object]:
    """Run ``run()`` under the sampler: per-(function and module)
    ``[inclusive, self]`` sample counts, the number of samples, the CPU
    seconds taken and what ``run`` returned."""
    counts: dict[str, list[int]] = {}
    samples = [0]

    def on_tick(_signum: int, frame) -> None:
        samples[0] += 1
        seen = set()
        top = True
        while frame is not None:
            name, function = frame_row(frame)
            for key in (f"{name}:{function}", f"{name}:*"):
                entry = counts.setdefault(key, [0, 0])
                if key not in seen:
                    seen.add(key)
                    entry[0] += 1
                if top:
                    entry[1] += 1
            top = False
            frame = frame.f_back

    previous = signal.signal(signal.SIGPROF, on_tick)
    cpu = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        result = run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = time.process_time() - cpu
        signal.signal(signal.SIGPROF, previous)
    return counts, samples[0], cpu, result


def sample(
    workload: str, seed: int, slices: int, interval: float, setup: bool = False
) -> tuple[dict, int, float]:
    """Per-(function and module) ``[inclusive, self]`` sample counts, the
    number of samples, and CPU µs per request (per set-up with ``setup``)."""
    from bench.child import run_plan
    from bench.workloads import WORKLOADS, warmup_plans

    spec = WORKLOADS[workload]
    stream = spec.slices(random.Random(seed), {})
    problems: list[str] = []

    def set_up():
        cluster = spec.build(seed)
        cluster.settle()
        for plan in warmup_plans(stream):
            run_plan(cluster, plan, problems)
        return cluster

    if setup:
        counts, samples, cpu, cluster = profile(set_up, interval)
        cluster.close()
        per = 1
    else:
        cluster = set_up()
        plans = [next(stream) for _ in range(slices)]
        try:
            counts, samples, cpu, per = profile(
                lambda: sum(run_plan(cluster, plan, problems)[2] for plan in plans),
                interval,
            )
        finally:
            cluster.close()
    if problems:
        raise SystemExit(f"{workload} went wrong: {problems[:3]}")
    return counts, samples, cpu * 1e6 / per


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--slices", type=int, default=150)
    parser.add_argument("--interval", type=float, default=0.0003, help="CPU seconds")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--match", default="src/", help="only rows containing this")
    parser.add_argument(
        "--setup", action="store_true", help="sample build, settle and warm-up instead"
    )
    options = parser.parse_args(argv)
    counts, samples, us_per_req = sample(
        options.workload, options.seed, options.slices, options.interval, options.setup
    )
    unit = "CPU µs of set-up" if options.setup else "CPU µs/request"
    print(f"{options.workload}: {samples} samples, {us_per_req:,.0f} {unit}")
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
