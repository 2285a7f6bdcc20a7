"""The wire-level adversary.

:class:`ChaosController` plugs into :attr:`Network.adversary` and applies a
:class:`~repro.chaos.schedule.ChaosPlan` to every transmission. All
randomness comes from the controller's own seeded RNG, and all messages are
frozen dataclasses, so corruption and equivocation build *modified copies*
— the original object may be aliased across a multicast fan-out and must
never be mutated in place.

Every fault that would fire is assigned a monotonically increasing *fault
index* before the applied/skipped decision, so a shrinking pass can re-run
the same seed with a ``disabled`` index set and greedily search for the
minimal subset of faults that still violates an invariant.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any

from repro.chaos.schedule import ChaosPlan

#: Fields on honest traffic the adversary may corrupt. These are exactly
#: the fields protected end-to-end by authenticated encryption, signatures,
#: MACs or content digests — flipping them models line noise / a meddling
#: network, which receivers must reject. Unprotected protocol fields are
#: off limits for *honest* senders: garbling those is indistinguishable
#: from the sender lying, which would silently breach the ≤f fault budget.
HONEST_CORRUPTIBLE_FIELDS = ("ciphertext", "signature", "mac", "payload")


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault, recorded for the violation trace."""

    index: int
    time: float
    kind: str  # drop | duplicate | delay | reorder | corrupt | equivocate | partition
    src: str
    dst: str
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _flip_byte(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    index = rng.randrange(len(data))
    return data[:index] + bytes([data[index] ^ (1 + rng.randrange(255))]) + data[index + 1:]


def corrupt_payload(
    payload: Any, rng: random.Random, fields: tuple[str, ...] | None = None
) -> Any | None:
    """A corrupted *copy* of ``payload``, or None when nothing is corruptible.

    ``fields`` restricts corruption to the named attributes (the honest-
    traffic whitelist); None means any non-empty bytes field except ``auth``
    stamps — the equivocator mode, where the sender is within the Byzantine
    budget and may garble anything it signs itself.
    """
    if isinstance(payload, (bytes, bytearray)):
        flipped = _flip_byte(bytes(payload), rng)
        return flipped if flipped != payload else None
    if not dataclasses.is_dataclass(payload):
        return None
    candidates = []
    for spec in dataclasses.fields(payload):
        if fields is not None and spec.name not in fields:
            continue
        if fields is None and spec.name == "auth":
            continue
        value = getattr(payload, spec.name, None)
        if isinstance(value, bytes) and value:
            candidates.append((spec.name, value))
    if not candidates:
        return None
    name, value = candidates[rng.randrange(len(candidates))]
    try:
        return dataclasses.replace(payload, **{name: _flip_byte(value, rng)})
    except (TypeError, ValueError):
        return None


class ChaosController:
    """Seeded schedule adversary for one simulated network."""

    def __init__(
        self,
        network: Any,
        plan: ChaosPlan,
        seed: int = 0,
        disabled: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        self.network = network
        self.plan = plan
        self.rng = random.Random(seed)
        self.disabled = set(disabled)
        self.events: list[FaultEvent] = []
        # Candidate faults considered so far (applied + disabled): the index
        # space the shrinker searches over.
        self.fault_candidates = 0
        self.applied: dict[str, int] = {}
        self.rolled = 0  # copies that reached the rolls (not cut or exempt)

    # -- bookkeeping -------------------------------------------------------

    def _apply(self, kind: str, src: str, dst: str, detail: str = "") -> bool:
        """Allocate the next fault index; True if the fault fires."""
        index = self.fault_candidates
        self.fault_candidates += 1
        if index in self.disabled:
            return False
        self.events.append(
            FaultEvent(
                index=index,
                time=self.network.now,
                kind=kind,
                src=src,
                dst=dst,
                detail=detail,
            )
        )
        self.applied[kind] = self.applied.get(kind, 0) + 1
        return True

    # -- the Network hook --------------------------------------------------

    def intercept(
        self, src: str, dst: str, payload: Any, size: int
    ) -> list[tuple[float, Any]] | None:
        """Decide the fate of one transmission.

        Returns None to pass the message through untouched, an empty list
        to swallow it, or a list of ``(extra_delay, payload)`` deliveries.
        """
        plan = self.plan
        now = self.network.now
        if now >= plan.horizon:
            return None
        if src in plan.protect or dst in plan.protect:
            return None
        for window in plan.partitions:
            if window.start <= now < window.end and window.separates(src, dst):
                if self._apply(
                    "partition", src, dst, f"{window.start:.3f}..{window.end:.3f}"
                ):
                    return []
        # One roll per fault family, drawn in a fixed order so the random
        # stream (and therefore fault indices) stays aligned between a full
        # run and its shrink probes for the unchanged prefix.
        rolls = [self.rng.random() for _ in range(6)]
        self.rolled += 1
        kind_name = type(payload).__name__
        adjusted = payload
        if (
            src in plan.equivocators
            and rolls[5] < plan.p_equivocate
            and self._apply("equivocate", src, dst, kind_name)
        ):
            variant = corrupt_payload(adjusted, self.rng, fields=None)
            if variant is not None:
                adjusted = variant
        if rolls[0] < plan.p_drop and self._apply("drop", src, dst, kind_name):
            return []
        if rolls[4] < plan.p_corrupt and self._apply("corrupt", src, dst, kind_name):
            variant = corrupt_payload(
                adjusted, self.rng, fields=HONEST_CORRUPTIBLE_FIELDS
            )
            if variant is not None:
                adjusted = variant
        extra = 0.0
        if rolls[2] < plan.p_delay and self._apply("delay", src, dst, kind_name):
            extra += self.rng.uniform(0.0, plan.max_extra_delay)
        if rolls[3] < plan.p_reorder and self._apply("reorder", src, dst, kind_name):
            # Enough added latency for later traffic on the link to overtake.
            extra += self.rng.uniform(1.0, plan.reorder_factor) * plan.max_extra_delay
        deliveries = [(extra, adjusted)]
        if rolls[1] < plan.p_duplicate and self._apply(
            "duplicate", src, dst, kind_name
        ):
            deliveries.append((extra + plan.duplicate_delay, adjusted))
        if adjusted is payload and extra == 0.0 and len(deliveries) == 1:
            return None  # untouched: keep the fast path's single delivery
        return deliveries
