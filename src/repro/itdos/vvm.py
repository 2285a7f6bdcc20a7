"""The Voting Virtual Machine: comparators over unmarshalled values.

ITDOS "bases its voting mechanism on the Voting Virtual Machine" [3] (§3.6):
instead of comparing wire bytes, a small program compiled from the value's
TypeCode compares *unmarshalled* values field by field. Floats compare with
a tolerance (**inexact voting** [31]), because correct heterogeneous
replicas legitimately disagree in low-order bits.

Note the paper's warning, preserved here: inexact equality is **not
transitive** — ``a ≈ b`` and ``b ≈ c`` do not imply ``a ≈ c``. The majority
vote therefore counts, for each candidate value, how many received values
are equal *to that candidate* (never chaining equalities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.giop.typecodes import (
    EnumType,
    PrimitiveType,
    SequenceType,
    StructType,
    TypeCode,
)

DEFAULT_TOLERANCE = 1e-9


# -- instructions --------------------------------------------------------------


@dataclass(frozen=True)
class CmpExact:
    """Pop a pair; equal iff ``a == b`` (and same bool-ness)."""

    def run(self, a: Any, b: Any) -> bool:
        if isinstance(a, bool) != isinstance(b, bool):
            return False
        return a == b


@dataclass(frozen=True)
class CmpFloat:
    """Pop a pair of numbers; equal within absolute+relative tolerance."""

    abs_tol: float
    rel_tol: float

    def run(self, a: Any, b: Any) -> bool:
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        try:
            fa = float(a)
            fb = float(b)
        except OverflowError:
            # Ints beyond float range: no meaningful tolerance band exists,
            # so only exact integer equality counts as a match.
            return a == b
        if not (math.isfinite(fa) and math.isfinite(fb)):
            # Tolerance arithmetic on NaN/±inf is meaningless: any rel_tol
            # makes the bound infinite and ``inf <= inf`` declares inf equal
            # to everything. A NaN ballot matches nothing (a vote fed only
            # such ballots stays undecided); an infinity matches only the
            # same-signed infinity.
            return fa == fb
        diff = abs(fa - fb)
        bound = self.abs_tol + self.rel_tol * max(abs(fa), abs(fb))
        return diff <= bound


@dataclass(frozen=True)
class CmpField:
    """Descend into a struct field and run a sub-program."""

    name: str
    program: "Program"

    def run(self, a: Any, b: Any) -> bool:
        if not isinstance(a, dict) or not isinstance(b, dict):
            return False
        if self.name not in a or self.name not in b:
            return False
        return self.program.equal(a[self.name], b[self.name])


@dataclass(frozen=True)
class CmpSeq:
    """Sequences: equal lengths, element-wise sub-program equality."""

    element: "Program"

    def run(self, a: Any, b: Any) -> bool:
        if not isinstance(a, (list, tuple)) or not isinstance(b, (list, tuple)):
            return False
        if len(a) != len(b):
            return False
        return all(self.element.equal(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Program:
    """A compiled comparison program: a conjunction of instructions."""

    instructions: tuple[Any, ...]

    def equal(self, a: Any, b: Any) -> bool:
        return all(instr.run(a, b) for instr in self.instructions)


# -- compiler -------------------------------------------------------------------


def compile_program(
    tc: TypeCode,
    abs_tol: float = DEFAULT_TOLERANCE,
    rel_tol: float = DEFAULT_TOLERANCE,
) -> Program:
    """Compile a TypeCode into its comparison program."""
    if isinstance(tc, PrimitiveType):
        if tc.kind in ("float", "double"):
            return Program((CmpFloat(abs_tol=abs_tol, rel_tol=rel_tol),))
        return Program((CmpExact(),))
    if isinstance(tc, EnumType):
        return Program((CmpExact(),))
    if isinstance(tc, SequenceType):
        return Program((CmpSeq(element=compile_program(tc.element, abs_tol, rel_tol)),))
    if isinstance(tc, StructType):
        return Program(
            tuple(
                CmpField(name=name, program=compile_program(field_tc, abs_tol, rel_tol))
                for name, field_tc in tc.fields
            )
        )
    raise TypeError(f"cannot compile comparator for {tc!r}")


# -- comparator facade -----------------------------------------------------------


@dataclass(frozen=True)
class Comparator:
    """Equality oracle for one logical value shape."""

    equal: Callable[[Any, Any], bool]

    @staticmethod
    def exact() -> "Comparator":
        """Strict structural equality (integers, strings, identities)."""
        return Comparator(equal=_structural_exact)

    @staticmethod
    def for_typecode(
        tc: TypeCode,
        abs_tol: float = DEFAULT_TOLERANCE,
        rel_tol: float = DEFAULT_TOLERANCE,
    ) -> "Comparator":
        program = compile_program(tc, abs_tol, rel_tol)
        return Comparator(equal=program.equal)


def _structural_exact(a: Any, b: Any) -> bool:
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_structural_exact(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_structural_exact(x, y) for x, y in zip(a, b))
    return a == b


def compile_comparator(
    tc: TypeCode | None,
    abs_tol: float = DEFAULT_TOLERANCE,
    rel_tol: float = DEFAULT_TOLERANCE,
) -> Comparator:
    """Comparator for a TypeCode, or exact comparison when ``tc`` is None."""
    if tc is None:
        return Comparator.exact()
    return Comparator.for_typecode(tc, abs_tol, rel_tol)


# -- majority voting ---------------------------------------------------------------


@dataclass(frozen=True)
class VoteDecision:
    """Outcome of a majority vote over collected values."""

    decided: bool
    value: Any = None
    # Senders whose value matched the decided value.
    supporters: tuple[str, ...] = ()
    # Senders whose value did NOT match the decided value (candidate faults).
    dissenters: tuple[str, ...] = ()


@dataclass(frozen=True)
class AdaptiveVoteDecision:
    """Outcome of an adaptive vote: the decision plus the tolerance used."""

    decision: VoteDecision
    level: int  # index into the tolerance schedule; -1 if undecided
    abs_tol: float
    rel_tol: float


def adaptive_majority_vote(
    ballots: list[tuple[str, Any]],
    threshold: int,
    tc: "TypeCode | None",
    schedule: list[tuple[float, float]],
) -> AdaptiveVoteDecision:
    """EXTENSION — adaptive voting (paper §4, after [32]).

    Precision vs fault tolerance is a real trade-off: a tolerance tight
    enough to catch subtle value faults may refuse to decide when correct
    replicas are unusually spread (sensor noise, aggressive FP
    optimisation); a loose tolerance always decides but lets a cleverly
    small lie hide inside the band. Adaptive voting runs the *tightest*
    tolerance first and escalates through ``schedule`` (a list of
    ``(abs_tol, rel_tol)`` pairs, tightest first) only as needed, so each
    vote pays the least precision required for availability — the
    "precision vs fault tolerance trade-off" of [32].

    Deterministic across replicas: the escalation path depends only on the
    ordered ballots and the fixed schedule.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one tolerance level")
    for level, (abs_tol, rel_tol) in enumerate(schedule):
        comparator = compile_comparator(tc, abs_tol, rel_tol)
        decision = majority_vote(ballots, threshold, comparator)
        if decision.decided:
            return AdaptiveVoteDecision(
                decision=decision, level=level, abs_tol=abs_tol, rel_tol=rel_tol
            )
    abs_tol, rel_tol = schedule[-1]
    return AdaptiveVoteDecision(
        decision=VoteDecision(decided=False), level=-1,
        abs_tol=abs_tol, rel_tol=rel_tol,
    )


def watermarked_comparator(value_comparator: Comparator) -> Comparator:
    """Comparator over ``(watermark, value)`` ballots of the read fast path.

    Watermarks compare *exactly* — a tentative reply computed against a
    different committed prefix is a different ballot even when the value
    happens to match, so replies from divergent prefixes can never be mixed
    into one decision. Values compare with the operation's (possibly
    inexact) comparator, same non-transitivity caveat as everywhere else.
    """

    def equal(a: Any, b: Any) -> bool:
        if not isinstance(a, tuple) or not isinstance(b, tuple):
            return False
        if len(a) != 2 or len(b) != 2:
            return False
        if a[0] != b[0]:
            return False
        return value_comparator.equal(a[1], b[1])

    return Comparator(equal=equal)


def dissenting_senders(
    decided_value: Any,
    ballots: list[tuple[str, Any]],
    comparator: Comparator,
) -> tuple[str, ...]:
    """Senders whose ballot does not equal the decided value.

    Applies the same non-transitive rule as :func:`majority_vote` — each
    ballot is compared to the decided value itself, never chained. Voters
    use it to re-derive the dissent set when stragglers arrive after a
    decision, and ``repro audit verify`` uses it to re-check a recorded
    vote-dissent accusation against the evidence ballots offline.
    """
    return tuple(
        sender
        for sender, value in ballots
        if not comparator.equal(decided_value, value)
    )


def majority_vote(
    ballots: list[tuple[str, Any]],
    threshold: int,
    comparator: Comparator,
) -> VoteDecision:
    """Find a value supported by at least ``threshold`` ballots.

    Support for candidate ``v`` is the number of ballots equal to *v
    itself* — non-transitive inexact equality is never chained. Candidates
    are tried in arrival order, so all deterministic voters that saw the
    same ordered ballots decide identically (§3.6: "each deterministic
    voter reaches a decision threshold in the same order").
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    for _, candidate in ballots:
        supporters = tuple(
            sender for sender, value in ballots if comparator.equal(candidate, value)
        )
        if len(supporters) >= threshold:
            dissenters = tuple(
                sender for sender, _ in ballots if sender not in supporters
            )
            return VoteDecision(
                decided=True,
                value=candidate,
                supporters=supporters,
                dissenters=dissenters,
            )
    return VoteDecision(decided=False)
