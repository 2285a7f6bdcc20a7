#!/usr/bin/env python3
"""Retained-memory soak: does any allocation site grow with every request?

Builds a simulated deployment, drives voted requests one after another, and
takes two ``tracemalloc`` snapshots: after ``--first`` requests and after
``--requests`` in total. Tracing starts before the build, so an object freed
between the snapshots counts against the site that allocated it, and a full
bounded cache reads as flat. A site whose live object count rises by at
least half an object per request in between is per-request history: the
run fails and prints it.

One site is exempt: ``QueueElement.dispatched``, the per-element dispatch
list the scoreboard's health check reads (``len(element.dispatched)``).

Shapes: ``calc`` is the ``sim_null`` deployment (``build_calc_system(f=1,
seed=3)``, ``Calculator.add``); ``readmix`` is a KV domain with two readers
and the read fast path (nine ``get`` to one ``put`` over 32 keys).

Traced requests cost several times an untraced one, so the default run
(10,000 then 200,000 requests on ``calc``) takes tens of minutes.

Usage: python tools/soak.py [--requests 200000] [--first 10000]
                            [--shape calc|readmix] [--top 12]
"""

from __future__ import annotations

import argparse
import inspect
import os
import resource
import sys
import tracemalloc
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _calc() -> Callable[[int], None]:
    from repro.workloads.scenarios import build_calc_system

    system = build_calc_system(f=1, seed=3)
    calc = system.add_client("alice").stub(system.ref("calc", b"calc"))

    def request(i: int) -> None:
        if calc.add(float(i % 7), 1.0) != float(i % 7) + 1.0:
            raise AssertionError(f"request {i} voted a wrong sum")

    return request


def _readmix() -> Callable[[int], None]:
    from repro.workloads.scenarios import build_read_heavy_system

    system = build_read_heavy_system(readers=2, read_fastpath=True)
    system.settle(1.0)
    kv = system.add_client("alice").stub(system.ref("kv", b"kv"))

    def request(i: int) -> None:
        key = f"k{i % 32}"
        if i % 10 == 0:
            kv.put(key, "v")
        elif kv.get(key) not in ("", "v"):
            raise AssertionError(f"request {i} read a value nobody wrote")

    return request


SHAPES: dict[str, Callable[[], Callable[[int], None]]] = {
    "calc": _calc,
    "readmix": _readmix,
}


@dataclass
class Site:
    """One allocation site's change between the two snapshots."""

    where: str  # "path:line", relative to the repository
    count_diff: int
    size_diff: int


@dataclass
class Report:
    shape: str
    first: int  # requests done at the first snapshot
    total: int  # ... and at the second
    rss_mb: tuple[float, float]  # resident set size at each snapshot
    sites: list[Site]  # by count_diff, largest first
    exempt: str  # the ``dispatched.append`` site

    @property
    def requests(self) -> int:
        return self.total - self.first

    def offenders(self) -> list[Site]:
        """Sites other than the exempt one retaining >= 0.5 objects/request."""
        return [
            site
            for site in self.sites
            if site.where != self.exempt and site.count_diff >= self.requests / 2
        ]

    def retained_bytes(self) -> int:
        """Net bytes retained between the snapshots, the exempt site aside."""
        return sum(site.size_diff for site in self.sites if site.where != self.exempt)


def _where(filename: str, lineno: int) -> str:
    return f"{os.path.relpath(filename, ROOT)}:{lineno}"


def dispatched_site() -> str:
    """Where ``QueueElement._dispatch`` appends to ``dispatched``."""
    from repro.itdos.element import QueueElement

    lines, start = inspect.getsourcelines(QueueElement._dispatch)
    offset = next(i for i, line in enumerate(lines) if "self.dispatched.append" in line)
    return _where(inspect.getsourcefile(QueueElement), start + offset)


def rss_mb() -> float:
    """Current resident set size (peak where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _snapshot() -> tracemalloc.Snapshot:
    return tracemalloc.take_snapshot().filter_traces(
        (
            tracemalloc.Filter(False, tracemalloc.__file__),
            tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
            tracemalloc.Filter(False, "<unknown>"),
        )
    )


def measure(shape: str, first: int, total: int) -> Report:
    """Build ``shape`` under tracing, drive ``total`` requests, and compare
    the snapshots taken after ``first`` and after ``total``."""
    if not 0 < first < total:
        raise ValueError("need 0 < first < total")
    exempt = dispatched_site()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        request = SHAPES[shape]()
        for i in range(first):
            request(i)
        before, rss_before = _snapshot(), rss_mb()
        for i in range(first, total):
            request(i)
        after, rss_after = _snapshot(), rss_mb()
    finally:
        if started:
            tracemalloc.stop()
    sites = [
        Site(_where(diff.traceback[0].filename, diff.traceback[0].lineno),
             diff.count_diff, diff.size_diff)
        for diff in after.compare_to(before, "lineno")
    ]
    sites.sort(key=lambda site: -site.count_diff)
    return Report(shape, first, total, (rss_before, rss_after), sites, exempt)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200_000, help="total requests")
    parser.add_argument("--first", type=int, default=10_000, help="requests before the first snapshot")
    parser.add_argument("--shape", choices=SHAPES, default="calc")
    parser.add_argument("--top", type=int, default=12, help="sites to print")
    options = parser.parse_args(argv)
    report = measure(options.shape, options.first, options.requests)
    offenders = report.offenders()
    print(
        f"{options.shape}: requests {report.first:,} -> {report.total:,}; "
        f"RSS {report.rss_mb[0]:.1f} -> {report.rss_mb[1]:.1f} MB (tracing on); "
        f"retained {report.retained_bytes():,} B "
        f"({report.retained_bytes() / report.requests:.2f} B/request) "
        f"excluding {report.exempt}"
    )
    print(f"{'objects':>10} {'per req':>8} {'bytes':>12}  site")
    for site in report.sites[: options.top]:
        mark = "  <- exempt" if site.where == report.exempt else ""
        if site in offenders:
            mark = "  <- GROWS"
        print(
            f"{site.count_diff:10,} {site.count_diff / report.requests:8.3f} "
            f"{site.size_diff:12,}  {site.where}{mark}"
        )
    return 1 if offenders else 0


if __name__ == "__main__":
    raise SystemExit(main())
