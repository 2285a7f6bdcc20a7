"""Streaming fault estimation: per-element suspicion from protocol signals.

The paper's intrusion-tolerance loop is detect → expel → replace, and the
follow-on control work (Hammar & Stadler, PAPERS.md) needs the detect side
to be *continuous*: a per-element belief about compromise, not a binary
tripwire. The :class:`FaultEstimator` is that sensor. It folds four signal
families into one suspicion score per element:

* **evidence** — entries noted in the :mod:`repro.obs.audit` log. Hard
  evidence (attributable misbehavior) pins the score to 1.0 immediately;
  soft evidence only raises the statistical component.
* **garbage rate** — replies or shares that failed decryption, signature
  verification, or unmarshalling, attributed to their claimed sender.
* **timeliness** — a phi-accrual estimator (Hayashibara et al.) over
  message inter-arrival per element. We score *relative* phi (each
  element's phi minus the minimum across its peers) so a globally quiet
  network does not make everyone look crashed.
* **latency anomalies** — per-phase EWMA mean/variance of protocol phase
  durations with z-score flagging, plus retransmission pressure.

Soft components combine as ``SOFT_CAP * (1 - prod(1 - c_i))`` — independent
weak signals compound, but the sum is capped strictly below
``ACCUSE_THRESHOLD``. Only hard evidence can push an element into the
*accused* band, which is what makes "zero false accusations of honest
elements" a structural property rather than a tuning accident: the chaos
adversary can garble an honest element's ciphertext, signature, and payload
bytes, and all of that lands in soft components.
"""

from __future__ import annotations

import math
from typing import Any, Callable

#: Ceiling for the combined soft (statistical) component. Strictly below
#: ACCUSE_THRESHOLD: statistics alone can make an element *suspected*,
#: never *accused*.
SOFT_CAP = 0.75

#: Score at or above which an element is formally accused. Reachable only
#: through hard evidence.
ACCUSE_THRESHOLD = 0.9

#: Score at or above which an element is reported as suspected.
REPORT_THRESHOLD = 0.30

#: Relative phi value that saturates the timeliness component.
PHI_SCALE = 8.0

#: z-score magnitude that flags a phase duration as anomalous.
ANOMALY_Z = 3.5

#: Observations an EWMA needs before its z-scores are trusted.
EWMA_WARMUP = 12

_LN10 = math.log(10.0)


class Ewma:
    """Exponentially weighted mean/variance with z-scoring."""

    __slots__ = ("alpha", "mean", "var", "count")

    def __init__(self, alpha: float = 0.1) -> None:
        self.alpha = alpha
        self.mean = 0.0
        self.var = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        if self.count == 1:
            self.mean = value
            self.var = 0.0
            return
        delta = value - self.mean
        self.mean += self.alpha * delta
        # West's incremental EWMA variance: decay toward the new squared
        # deviation so shifts in spread are tracked, not just in level.
        self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta)

    @property
    def std(self) -> float:
        return math.sqrt(self.var) if self.var > 0.0 else 0.0

    def zscore(self, value: float) -> float:
        if self.count < 2 or self.std == 0.0:
            return 0.0
        return (value - self.mean) / self.std


class PhiAccrual:
    """Phi-accrual timeliness suspicion from message inter-arrival times.

    Under an exponential inter-arrival model phi(t) = elapsed / (mean * ln10):
    phi = 1 means the silence is 10x less likely than typical, phi = 2
    means 100x, and so on.
    """

    __slots__ = ("intervals", "last")

    def __init__(self, alpha: float = 0.125) -> None:
        self.intervals = Ewma(alpha=alpha)
        self.last: float | None = None

    def observe(self, now: float) -> None:
        if self.last is not None and now >= self.last:
            self.intervals.observe(now - self.last)
        self.last = now

    def phi(self, now: float) -> float:
        if self.last is None or self.intervals.count < 2:
            return 0.0
        mean = self.intervals.mean
        if mean <= 0.0:
            return 0.0
        elapsed = max(0.0, now - self.last)
        return elapsed / (mean * _LN10)


class _ElementState:
    """Accumulated signals for one element."""

    __slots__ = (
        "hard",
        "soft",
        "garbage",
        "auth_rejects",
        "anomalies",
        "retransmissions",
        "arrivals",
        "kinds",
    )

    def __init__(self) -> None:
        self.hard = 0
        self.soft = 0
        self.garbage = 0
        self.auth_rejects = 0
        self.anomalies = 0
        self.retransmissions = 0
        self.arrivals = PhiAccrual()
        self.kinds: dict[str, int] = {}


class FaultEstimator:
    """Online per-element suspicion scores over the telemetry stack."""

    def __init__(
        self,
        registry: Any,
        health: Any,
        audit: Any,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.registry = registry
        self.health = health
        self.audit = audit
        self.clock = clock or (lambda: 0.0)
        self._elements: dict[str, _ElementState] = {}
        # Global per-phase duration baselines; anomalies are charged to the
        # element whose phase run deviated from the population.
        self._phases: dict[str, Ewma] = {}
        self.first_suspected: dict[str, float] = {}
        self.first_accused: dict[str, float] = {}
        self._g_suspicion = registry.gauge(
            "element_suspicion",
            "current per-element suspicion score (0..1)",
            labels=("element",),
        )
        self._c_signals = registry.counter(
            "detect_signals_total",
            "raw detector signals by element and signal kind",
            labels=("element", "signal"),
        )

    # -- internals -----------------------------------------------------------

    def _state(self, pid: str) -> _ElementState:
        state = self._elements.get(pid)
        if state is None:
            state = _ElementState()
            self._elements[pid] = state
        return state

    def _signal(self, pid: str, signal: str) -> None:
        self._c_signals.labels(element=pid, signal=signal).inc()

    def _refresh(self, pid: str, now: float | None = None) -> float:
        """Recompute one element's score; publish gauge + health board."""
        now = self.clock() if now is None else now
        score = self.suspicion(pid, now)
        self._g_suspicion.labels(element=pid).set(score)
        self.health.record_suspicion(pid, score)
        if score >= REPORT_THRESHOLD:
            self.first_suspected.setdefault(pid, now)
        if score >= ACCUSE_THRESHOLD:
            self.first_accused.setdefault(pid, now)
        return score

    # -- signal intake -------------------------------------------------------

    def note_evidence(self, kind: str, accused: str, hard: bool) -> None:
        """An audit-log entry was recorded against ``accused``."""
        state = self._state(accused)
        if hard:
            state.hard += 1
        else:
            state.soft += 1
        state.kinds[kind] = state.kinds.get(kind, 0) + 1
        self._signal(accused, "evidence-hard" if hard else "evidence-soft")
        self._refresh(accused)

    def observe_arrival(self, src: str, now: float) -> None:
        """A message from ``src`` was delivered at simulated time ``now``."""
        self._state(src).arrivals.observe(now)

    def observe_phase(self, pid: str, phase: str, duration: float) -> None:
        """``pid`` completed a protocol phase (prepare/commit/...) taking
        ``duration``; flags it against the population baseline."""
        baseline = self._phases.get(phase)
        if baseline is None:
            baseline = self._phases[phase] = Ewma(alpha=0.05)
        if (
            baseline.count >= EWMA_WARMUP
            and abs(baseline.zscore(duration)) >= ANOMALY_Z
        ):
            self._state(pid).anomalies += 1
            self._signal(pid, f"latency-anomaly-{phase}")
            self._refresh(pid)
        baseline.observe(duration)

    def observe_garbage(self, pid: str, reason: str) -> None:
        """A message claiming to be from ``pid`` failed decryption,
        signature verification, or unmarshalling."""
        self._state(pid).garbage += 1
        self._signal(pid, f"garbage-{reason}")
        self._refresh(pid)

    def observe_auth_reject(self, pid: str, reason: str) -> None:
        """A point-to-point MAC/signature check rejected a message from
        ``pid``."""
        self._state(pid).auth_rejects += 1
        self._signal(pid, f"auth-{reason}")
        self._refresh(pid)

    def observe_retransmission(self, pid: str) -> None:
        """A voter timed out waiting on ``pid``'s domain and retried."""
        self._state(pid).retransmissions += 1
        self._signal(pid, "retransmission")
        self._refresh(pid)

    # -- scoring -------------------------------------------------------------

    def _relative_phi(self, pid: str, now: float) -> float:
        state = self._elements.get(pid)
        if state is None:
            return 0.0
        phis = {
            peer: s.arrivals.phi(now)
            for peer, s in self._elements.items()
            if s.arrivals.intervals.count >= 2
        }
        if pid not in phis or len(phis) < 2:
            return 0.0
        return phis[pid] - min(phis.values())

    def components(self, pid: str, now: float | None = None) -> dict[str, float]:
        """The individual soft signal components, each in [0, 1)."""
        now = self.clock() if now is None else now
        state = self._elements.get(pid)
        if state is None:
            return {}
        return {
            "garbage": 1.0 - math.exp(-state.garbage / 2.0),
            "evidence": 1.0 - math.exp(-state.soft / 2.0),
            "auth": 1.0 - math.exp(-state.auth_rejects / 4.0),
            "timeliness": min(1.0, max(0.0, self._relative_phi(pid, now)) / PHI_SCALE),
            "anomaly": 1.0 - math.exp(-state.anomalies / 4.0),
            "retransmission": 1.0 - math.exp(-state.retransmissions / 6.0),
        }

    def suspicion(self, pid: str, now: float | None = None) -> float:
        """The element's score: 1.0 on hard evidence, else capped soft."""
        state = self._elements.get(pid)
        if state is None:
            return 0.0
        if state.hard > 0:
            return 1.0
        miss = 1.0
        for component in self.components(pid, now).values():
            miss *= 1.0 - component
        return SOFT_CAP * (1.0 - miss)

    def scores(self, now: float | None = None) -> dict[str, float]:
        now = self.clock() if now is None else now
        return {pid: self.suspicion(pid, now) for pid in sorted(self._elements)}

    def accused(self, now: float | None = None) -> list[str]:
        scores = self.scores(now)
        return [pid for pid, s in scores.items() if s >= ACCUSE_THRESHOLD]

    def suspected(self, now: float | None = None) -> list[str]:
        scores = self.scores(now)
        return [pid for pid, s in scores.items() if s >= REPORT_THRESHOLD]

    def evidence_kinds(self, pid: str) -> dict[str, int]:
        state = self._elements.get(pid)
        return dict(state.kinds) if state else {}

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """Refresh every gauge (timeliness moves with the clock) and return
        the full detector state for export/reporting."""
        now = self.clock() if now is None else now
        for pid in sorted(self._elements):
            self._refresh(pid, now)
        return {
            "scores": self.scores(now),
            "accused": self.accused(now),
            "suspected": self.suspected(now),
            "first_suspected": dict(self.first_suspected),
            "first_accused": dict(self.first_accused),
        }

    def to_records(self, now: float | None = None) -> list[dict[str, Any]]:
        now = self.clock() if now is None else now
        out: list[dict[str, Any]] = []
        for pid in sorted(self._elements):
            out.append(
                {
                    "record": "suspicion",
                    "element": pid,
                    "score": self.suspicion(pid, now),
                    "components": self.components(pid, now),
                    "evidence_kinds": self.evidence_kinds(pid),
                    "first_suspected": self.first_suspected.get(pid),
                    "first_accused": self.first_accused.get(pid),
                }
            )
        return out
