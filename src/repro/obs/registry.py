"""The telemetry metric registry: labeled counters, gauges, histograms.

Every instrument lives in a :class:`MetricRegistry` under a unique name.
Families carry a fixed tuple of label names; ``.labels(...)`` returns the
child bound to one label-value combination (created on first use, cached
thereafter). A family declared with no labels acts as its own single child,
so ``registry.counter("x").inc()`` just works.

Disabled mode has no registry at all: a disabled ``Telemetry`` sets
``registry`` to ``None`` and every publishing site guards on
``telemetry.enabled`` first, so no family, child or sample is ever allocated.
That is what keeps benchmarks honest when telemetry is off.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterator


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of empty list")
    return sum(values) / len(values)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0 <= p <= 100:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


#: What ``summarize`` returns for an empty sample list. ``mean`` and
#: ``percentile`` still raise on empty input — only the aggregate summary
#: treats "no samples yet" as a reportable state rather than an error.
EMPTY_SUMMARY = {
    "count": 0.0,
    "mean": 0.0,
    "p50": 0.0,
    "p95": 0.0,
    "p99": 0.0,
    "min": 0.0,
    "max": 0.0,
}


def summarize(values: list[float]) -> dict[str, float]:
    """mean/p50/p95/p99/min/max in one dict (for bench tables)."""
    if not values:
        return dict(EMPTY_SUMMARY)
    return {
        "count": float(len(values)),
        "mean": mean(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "min": min(values),
        "max": max(values),
    }


# A family refuses to mint children beyond this many distinct label
# combinations; excess traffic lands on one shared overflow child so a
# label-cardinality bug degrades a metric instead of eating the heap.
DEFAULT_MAX_CHILDREN = 256

# Histograms keep raw samples up to this cap for percentile summaries;
# count/sum/min/max stay exact beyond it. Past the cap, samples are kept
# via reservoir sampling so percentiles reflect the whole run, not just
# startup behavior.
DEFAULT_SAMPLE_CAP = 10_000

_OVERFLOW_LABEL = "__overflow__"

# Knuth MMIX LCG constants for the histogram's private sampling stream —
# deterministic per (metric, labels) and independent of the `random`
# module's ambient state, which simulations own.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("labels_kv", "value")

    kind = "counter"

    def __init__(self, labels_kv: dict[str, str]) -> None:
        self.labels_kv = labels_kv
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("labels_kv", "value")

    kind = "gauge"

    def __init__(self, labels_kv: dict[str, str]) -> None:
        self.labels_kv = labels_kv
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Observations over simulated time (durations, sizes, counts)."""

    __slots__ = ("labels_kv", "count", "sum", "min", "max", "samples", "sample_cap", "sample_drops", "_rng")

    kind = "histogram"

    def __init__(self, labels_kv: dict[str, str], sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        self.labels_kv = labels_kv
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []
        self.sample_cap = sample_cap
        self.sample_drops = 0
        # Sampling stream seeded from the label identity: same instrument,
        # same observation sequence -> same reservoir, every run.
        seed_material = ",".join(f"{k}={v}" for k, v in sorted(labels_kv.items()))
        self._rng = (zlib.crc32(seed_material.encode("utf-8")) | 1) & _LCG_MASK

    def _next_rand(self) -> int:
        self._rng = (self._rng * _LCG_MUL + _LCG_INC) & _LCG_MASK
        return self._rng >> 16

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.sample_cap:
            self.samples.append(value)
        else:
            # Reservoir sampling (Algorithm R): each of the `count`
            # observations so far stays retained with probability
            # cap/count, so percentile summaries cover the whole run
            # instead of freezing on the first `cap` observations.
            slot = self._next_rand() % self.count
            if slot < self.sample_cap:
                self.samples[slot] = value
            else:
                self.sample_drops += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """count/mean/percentiles; exact count even past the sample cap."""
        out = summarize(self.samples)
        out["count"] = float(self.count)
        out["mean"] = self.mean
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out

    def snapshot(self) -> dict[str, Any]:
        return self.summary()


_FACTORIES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one named metric across its label combinations."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        max_children: int = DEFAULT_MAX_CHILDREN,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_children = max_children
        self._children: dict[tuple[str, ...], Any] = {}
        self._overflow: Any = None
        self.overflowed = 0
        self._factory = _FACTORIES[kind]
        self._default = None if self.labelnames else self._make(())

    def _make(self, values: tuple[str, ...]) -> Any:
        child = self._factory(dict(zip(self.labelnames, values)))
        self._children[values] = child
        return child

    def labels(self, **kv: Any) -> Any:
        """The child bound to one label-value combination."""
        if tuple(sorted(kv)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(kv)}"
            )
        values = tuple(str(kv[name]) for name in self.labelnames)
        child = self._children.get(values)
        if child is not None:
            return child
        if len(self._children) >= self.max_children:
            # Cardinality blowout: aggregate the tail into one child.
            self.overflowed += 1
            if self._overflow is None:
                self._overflow = self._factory(
                    {name: _OVERFLOW_LABEL for name in self.labelnames}
                )
            return self._overflow
        return self._make(values)

    def children(self) -> Iterator[Any]:
        yield from self._children.values()
        if self._overflow is not None:
            yield self._overflow

    # -- label-less convenience: the family is its own single child ---------

    def _require_default(self) -> Any:
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; call .labels() first"
            )
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def value(self) -> float:
        return self._require_default().value


class MetricRegistry:
    """Namespace of metric families; the one place exporters read from."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        # Labels stamped onto every collected entry — deployment identity
        # (e.g. which shard domain a node belongs to) rather than a
        # per-instrument dimension. Instrument-declared labels win on
        # collision, so constant labels can never corrupt a family.
        self.constant_labels: dict[str, str] = {}

    def _get(
        self, name: str, kind: str, help: str, labels: tuple[str, ...]
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help=help, labelnames=labels)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, not a {kind}"
            )
        if labels and family.labelnames != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered with labels {family.labelnames}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._get(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._get(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._get(name, "histogram", help, labels)

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> list[dict[str, Any]]:
        """Flat snapshot: one dict per (family, label combination)."""
        out = []
        for family in self.families():
            for child in family.children():
                labels = dict(self.constant_labels)
                labels.update(child.labels_kv)
                entry: dict[str, Any] = {
                    "metric": family.name,
                    "kind": family.kind,
                    "labels": labels,
                }
                entry.update(child.snapshot())
                out.append(entry)
        return out
