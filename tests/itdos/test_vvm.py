"""Unit and property tests for the Voting Virtual Machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_LONG,
    TC_STRING,
    EnumType,
    SequenceType,
    StructType,
)
from repro.itdos.vvm import (
    Comparator,
    VoteDecision,
    compile_comparator,
    compile_program,
    majority_vote,
)

POINT = StructType("Point", (("x", TC_DOUBLE), ("y", TC_DOUBLE)))


def test_exact_comparator_basics():
    cmp = Comparator.exact()
    assert cmp.equal(1, 1)
    assert not cmp.equal(1, 2)
    assert not cmp.equal(True, 1)  # bool is not int here
    assert cmp.equal([1, "a"], [1, "a"])
    assert cmp.equal({"k": 1}, {"k": 1})
    assert not cmp.equal({"k": 1}, {"k": 1, "j": 2})


def test_long_comparator_is_exact():
    cmp = compile_comparator(TC_LONG)
    assert cmp.equal(5, 5)
    assert not cmp.equal(5, 6)


def test_double_comparator_tolerates_jitter():
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-9, rel_tol=1e-9)
    assert cmp.equal(1.0, 1.0 + 1e-12)
    assert cmp.equal(1e12, 1e12 + 100.0)  # within relative tolerance
    assert not cmp.equal(1.0, 1.001)


def test_inexact_equality_is_not_transitive():
    """§3.6: "if a = b and b = c, this does not imply that a = c"."""
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1.0, rel_tol=0.0)
    a, b, c = 0.0, 0.9, 1.8
    assert cmp.equal(a, b)
    assert cmp.equal(b, c)
    assert not cmp.equal(a, c)


def test_string_comparator_exact():
    cmp = compile_comparator(TC_STRING)
    assert cmp.equal("x", "x")
    assert not cmp.equal("x", "X")


def test_boolean_comparator():
    cmp = compile_comparator(TC_BOOLEAN)
    assert cmp.equal(True, True)
    assert not cmp.equal(True, False)


def test_enum_comparator():
    color = EnumType("Color", ("RED", "GREEN"))
    cmp = compile_comparator(color)
    assert cmp.equal("RED", "RED")
    assert not cmp.equal("RED", "GREEN")


def test_struct_comparator_fieldwise_tolerance():
    cmp = compile_comparator(POINT, abs_tol=1e-6, rel_tol=0.0)
    assert cmp.equal({"x": 1.0, "y": 2.0}, {"x": 1.0 + 1e-9, "y": 2.0 - 1e-9})
    assert not cmp.equal({"x": 1.0, "y": 2.0}, {"x": 1.1, "y": 2.0})


def test_sequence_comparator():
    cmp = compile_comparator(SequenceType(TC_DOUBLE), abs_tol=1e-6, rel_tol=0.0)
    assert cmp.equal([1.0, 2.0], [1.0 + 1e-9, 2.0])
    assert not cmp.equal([1.0], [1.0, 2.0])
    assert not cmp.equal([1.0], "not-a-list")


def test_nested_struct_sequence():
    track = SequenceType(POINT)
    cmp = compile_comparator(track, abs_tol=1e-6, rel_tol=0.0)
    a = [{"x": 0.0, "y": 1.0}, {"x": 2.0, "y": 3.0}]
    b = [{"x": 1e-9, "y": 1.0}, {"x": 2.0, "y": 3.0 - 1e-9}]
    assert cmp.equal(a, b)


def test_compiler_rejects_unknown_typecode():
    class Weird:
        kind = "weird"

    with pytest.raises(TypeError):
        compile_program(Weird())


def test_float_comparator_rejects_non_numbers():
    cmp = compile_comparator(TC_DOUBLE)
    assert not cmp.equal(1.0, "1.0")
    assert not cmp.equal(True, 1.0)


def test_none_typecode_means_exact():
    cmp = compile_comparator(None)
    assert cmp.equal((1, "x"), (1, "x"))


# -- majority voting ---------------------------------------------------------


def exact():
    return Comparator.exact()


def test_vote_reaches_threshold():
    ballots = [("a", 1), ("b", 1), ("c", 2)]
    decision = majority_vote(ballots, 2, exact())
    assert decision.decided and decision.value == 1
    assert set(decision.supporters) == {"a", "b"}
    assert decision.dissenters == ("c",)


def test_vote_no_quorum():
    ballots = [("a", 1), ("b", 2), ("c", 3)]
    assert not majority_vote(ballots, 2, exact()).decided


def test_vote_threshold_validation():
    with pytest.raises(ValueError):
        majority_vote([], 0, exact())


def test_vote_first_candidate_in_arrival_order_wins():
    # Two values both reach threshold 1; the first ballot's value is chosen,
    # deterministically.
    ballots = [("a", 7), ("b", 8)]
    decision = majority_vote(ballots, 1, exact())
    assert decision.value == 7


def test_vote_with_inexact_values():
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-6, rel_tol=0.0)
    ballots = [("a", 1.0), ("b", 1.0 + 1e-9), ("c", 99.0)]
    decision = majority_vote(ballots, 2, cmp)
    assert decision.decided
    assert decision.value == 1.0
    assert decision.dissenters == ("c",)


def test_vote_nontransitive_counts_support_per_candidate():
    # With tolerance 1.0 no candidate is within 1.0 of BOTH others (0.0 vs
    # 0.9 vs 1.95): support never chains through the middle value.
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1.0, rel_tol=0.0)
    ballots = [("a", 0.0), ("b", 0.9), ("c", 1.95)]
    decision = majority_vote(ballots, 3, cmp)
    assert not decision.decided
    decision = majority_vote(ballots, 2, cmp)
    assert decision.decided and decision.value == 0.0
    assert set(decision.supporters) == {"a", "b"}


def test_vote_on_mixed_struct_ballots():
    ballots = [("e0", {"a": 1}), ("e1", {"a": 2}), ("e2", {"a": 1}), ("e3", {"a": 1})]
    decision = majority_vote(ballots, 3, exact())
    assert decision.decided and decision.value == {"a": 1}
    assert decision.dissenters == ("e1",)


def test_identical_wrong_typed_ballots_do_not_decide_under_cmpfloat():
    # A Byzantine value of the wrong type fails CmpFloat even against an
    # identical copy of itself, so two such copies never make a quorum.
    cmp = compile_comparator(TC_DOUBLE)
    ballots = [("e0", "not-a-number"), ("e1", "not-a-number")]
    assert not majority_vote(ballots, 2, cmp).decided


def test_unencodable_ballot_dissents():
    ballots = [("e0", "v"), ("e1", object()), ("e2", "v")]
    decision = majority_vote(ballots, 2, exact())
    assert decision.decided and decision.value == "v"
    assert decision.dissenters == ("e1",)


@settings(max_examples=50)
@given(
    honest=st.floats(min_value=-1e6, max_value=1e6),
    jitters=st.lists(
        st.floats(min_value=-1e-10, max_value=1e-10), min_size=3, max_size=3
    ),
    bad=st.floats(min_value=10.0, max_value=1e6),
)
def test_property_f1_vote_always_correct(honest, jitters, bad):
    """3 honest inexact copies + 1 adversarial: the vote picks honest."""
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-6, rel_tol=1e-6)
    ballots = [(f"h{i}", honest + j) for i, j in enumerate(jitters)]
    ballots.append(("byz", honest + bad))
    decision = majority_vote(ballots, 2, cmp)
    assert decision.decided
    assert abs(decision.value - honest) < 1e-6
    assert "byz" in decision.dissenters


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=9))
def test_property_decided_value_has_threshold_support(values):
    ballots = [(f"s{i}", v) for i, v in enumerate(values)]
    threshold = len(values) // 2 + 1
    decision = majority_vote(ballots, threshold, exact())
    if decision.decided:
        assert len(decision.supporters) >= threshold
        assert values.count(decision.value) >= threshold


def test_cmpfloat_nan_matches_nothing():
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-6, rel_tol=1e-6)
    nan = float("nan")
    assert not cmp.equal(nan, nan)
    assert not cmp.equal(nan, 0.0)
    assert not cmp.equal(0.0, nan)


def test_cmpfloat_infinity_matches_only_same_sign():
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-6, rel_tol=1e-6)
    inf = float("inf")
    assert cmp.equal(inf, inf)
    assert cmp.equal(-inf, -inf)
    assert not cmp.equal(inf, -inf)
    assert not cmp.equal(inf, 1e308)


def test_cmpfloat_huge_int_exact_only():
    """Ints beyond float range must not crash (OverflowError) and compare
    exactly, since no tolerance band exists at that magnitude."""
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-6, rel_tol=1e-6)
    huge = 10**400
    assert cmp.equal(huge, huge)
    assert not cmp.equal(huge, huge + 1)
    assert not cmp.equal(huge, 1.0)


@settings(max_examples=60)
@given(
    value=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(10**420), max_value=10**420),
    ),
    other=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(10**420), max_value=10**420),
    ),
)
def test_property_cmpfloat_total_and_symmetric(value, other):
    """The comparator never raises on any numeric input, is symmetric, and
    a NaN ballot never decides a vote."""
    cmp = compile_comparator(TC_DOUBLE, abs_tol=1e-9, rel_tol=1e-9)
    forward = cmp.equal(value, other)
    assert forward == cmp.equal(other, value)
    if value != value:  # NaN
        assert not cmp.equal(value, value)
    ballots = [("a", value), ("b", other), ("c", value)]
    decision = majority_vote(ballots, 2, cmp)  # must not raise
    if value != value:
        assert decision.value is not value or not decision.decided
