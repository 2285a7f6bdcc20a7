"""Oracle fuzzing: random operation sequences vs a plain-Python oracle.

The replicated, voted, encrypted, BFT-ordered calculator must behave
observably identically to a plain local object — for any operation
sequence. Hypothesis drives random workloads; a divergence would expose
ordering, voting, or marshalling bugs that targeted tests missed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.itdos.conftest import CalculatorServant, make_system

operations = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.floats(min_value=-1e6, max_value=1e6)),
        st.tuples(
            st.just("add"),
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
        ),
        st.tuples(st.just("history"), st.none()),
        st.tuples(
            st.just("mean"),
            st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=5),
        ),
    ),
    min_size=1,
    max_size=6,
)


class Oracle:
    """The unreplicated reference implementation."""

    def __init__(self):
        self.servant = CalculatorServant()

    def apply(self, op, arg):
        if op == "store":
            return self.servant.store(arg)
        if op == "add":
            return self.servant.add(*arg)
        if op == "history":
            return self.servant.history()
        if op == "mean":
            return self.servant.mean(arg)
        raise AssertionError(op)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=operations, seed=st.integers(min_value=0, max_value=100))
def test_replicated_system_matches_oracle(ops, seed):
    system = make_system(seed=seed)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("fuzzer")
    stub = client.stub(system.ref("calc", b"calc"))
    oracle = Oracle()
    for op, arg in ops:
        expected = oracle.apply(op, arg)
        if op == "store":
            actual = stub.store(arg)
        elif op == "add":
            actual = stub.add(*arg)
        elif op == "history":
            actual = stub.history()
        else:
            actual = stub.mean(arg)
        if isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)
        elif isinstance(expected, list):
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)
        else:
            assert actual == expected


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=operations)
def test_oracle_match_with_byzantine_element(ops):
    """The oracle equivalence holds even with a lying element in the domain."""
    from repro.chaos.byzantine import LyingElement

    system = make_system(seed=4)
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e1": LyingElement},
    )
    client = system.add_client("fuzzer")
    stub = client.stub(system.ref("calc", b"calc"))
    oracle = Oracle()
    for op, arg in ops:
        expected = oracle.apply(op, arg)
        if op == "store":
            actual = stub.store(arg)
        elif op == "add":
            actual = stub.add(*arg)
        elif op == "history":
            actual = stub.history()
        else:
            actual = stub.mean(arg)
        if isinstance(expected, (float, list)):
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)
        else:
            assert actual == expected
