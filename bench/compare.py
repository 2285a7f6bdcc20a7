"""Judge one sweep file, or one against another, by BENCHMARK.json's bounds.

    python3 bench/compare.py A.json          # run-to-run spread of A
    python3 bench/compare.py A.json B.json   # is B worse than A?

Files come from ``bench/run.py --runs N --out FILE``. Per (workload,
end-to-end metric) the value is the median over the file's runs and the
spread is the distance between their first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median.

With one file, a spread above the metric's bound is ``WIDE``; aim below a
third of it. With two files, B is

* ``unresolved`` when either file's own spread exceeds the bound: the
  runs cannot tell a change of that size from noise;
* ``REGRESSION`` when its median is worse than A's by more than the bound;
* ``ok`` otherwise.

Exit code 1 on a ``REGRESSION``, on more failed requests in B than in A,
or on an incorrect run; 0 otherwise (``unresolved`` and ``WIDE`` are shown,
not failed: lengthen the runs and measure again).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[str, list[dict]]:
    """workload -> its untraced runs, in file order."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def median_and_spread(runs: list[dict], metric: str) -> tuple[float, float]:
    values = [run["metrics"][metric]["value"] for run in runs]
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / abs(median)


def worsening(before: float, after: float, better: str) -> float:
    """Relative change of ``after`` against ``before``; positive is worse."""
    change = (after - before) / abs(before) if before else 0.0
    return change if better == "lower" else -change


def failures(runs: list[dict]) -> tuple[int, int, bool]:
    return (
        sum(run["failed"] for run in runs),
        sum(run["attempted"] for run in runs),
        all(run["correct"] for run in runs),
    )


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    first = load(argv[0])
    second = load(argv[1]) if len(argv) == 2 else None
    exit_code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in first or (second is not None and workload not in second):
            print(f"{workload}: not in every file, skipped")
            continue
        failed_a, attempted_a, correct_a = failures(first[workload])
        line = f"{workload}: {len(first[workload])} runs, {failed_a}/{attempted_a} failed"
        if second is not None:
            failed_b, attempted_b, correct_b = failures(second[workload])
            line += f" -> {len(second[workload])} runs, {failed_b}/{attempted_b} failed"
            if failed_b * attempted_a > failed_a * attempted_b or not correct_b:
                line += "  MORE FAILURES"
                exit_code = 1
        if not correct_a:
            line += "  INCORRECT"
            exit_code = 1
        print(line)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median_a, spread_a = median_and_spread(first[workload], name)
            if second is None:
                if spread_a > bound:
                    verdict = "WIDE"
                else:
                    verdict = "ok" if spread_a <= bound / 3 else "ok (above bound/3)"
                print(f"  {name:<18} median {median_a:>14.4f}  spread {spread_a:7.2%}  "
                      f"bound {bound:5.0%}  {verdict}")
                continue
            median_b, spread_b = median_and_spread(second[workload], name)
            worse = worsening(median_a, median_b, metric["better"])
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                exit_code = 1
            else:
                verdict = "ok"
            print(f"  {name:<18} {median_a:>14.4f} -> {median_b:>14.4f}  worse by {worse:+7.2%}  "
                  f"spreads {spread_a:6.2%} {spread_b:6.2%}  bound {bound:5.0%}  {verdict}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
