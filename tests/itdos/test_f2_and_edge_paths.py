"""f=2 domains, sequential expulsions, and servant edge paths."""

import pytest

from repro.chaos.byzantine import LyingElement
from repro.orb.errors import BadOperation, UserException
from repro.orb.servant import Servant
from tests.itdos.conftest import CALCULATOR, CalculatorServant, make_system


def test_f2_domain_end_to_end():
    system = make_system(seed=400)
    system.add_server_domain(
        "calc", f=2, servants=lambda element: {b"calc": CalculatorServant()}
    )
    assert system.directory.domain("calc").n == 7
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(3.0, 4.0) == 7.0


def test_f2_two_sequential_expulsions():
    """Two independent liars in an f=2 domain: both detected, both expelled,
    service continuous throughout — the full fault budget consumed."""
    system = make_system(seed=401)
    system.add_server_domain(
        "calc",
        f=2,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e1": LyingElement, "calc-e4": LyingElement},
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    for i in range(4):
        assert stub.add(float(i), 1.0) == float(i) + 1.0
    system.settle(6.0)
    for gm in system.gm_elements:
        assert gm.state.expelled == {"calc-e1", "calc-e4"}
    # 5 honest elements remain (>= 2f+1 = 5): still live.
    assert stub.add(100.0, 1.0) == 101.0
    conn_id = next(iter(client.endpoint.connections))
    assert client.key_store.current_key(conn_id).key_id == 2  # rekeyed twice


def test_multiple_objects_share_one_connection_and_state():
    system = make_system(seed=402)
    system.add_server_domain(
        "multi",
        f=1,
        servants=lambda element: {
            b"calc-a": CalculatorServant(),
            b"calc-b": CalculatorServant(),
        },
    )
    client = system.add_client("alice")
    stub_a = client.stub(system.ref("multi", b"calc-a"))
    stub_b = client.stub(system.ref("multi", b"calc-b"))
    stub_a.store(1.0)
    stub_b.store(2.0)
    assert stub_a.history() == [1.0]
    assert stub_b.history() == [2.0]
    assert len(client.endpoint.connections) == 1  # §3.4 process granularity


class MisbehavingServant(Servant):
    """Generator servant that yields a non-PendingCall."""

    interface = CALCULATOR

    def add(self, a, b):
        yield "not a pending call"
        return a + b

    def divide(self, a, b):
        return a / b

    def mean(self, xs):
        return 0.0

    def store(self, v):
        return None

    def history(self):
        return []


def test_generator_yielding_garbage_becomes_exception_reply():
    system = make_system(seed=403)
    system.add_server_domain(
        "bad", f=1, servants=lambda element: {b"bad": MisbehavingServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("bad", b"bad"))
    with pytest.raises(BadOperation, match="non-PendingCall"):
        stub.add(1.0, 2.0)
    # The domain survives and serves other operations.
    assert stub.mean([1.0]) == 0.0


class CrashyServant(Servant):
    interface = CALCULATOR

    def add(self, a, b):
        raise RuntimeError("internal invariant violated")

    def divide(self, a, b):
        return a / b

    def mean(self, xs):
        return sum(xs) / len(xs) if xs else 0.0

    def store(self, v):
        return None

    def history(self):
        return []


def test_servant_exception_voted_and_raised_remotely():
    """An application crash is itself deterministic: all elements raise the
    same exception, the voter agrees on it, the client sees one error."""
    system = make_system(seed=404)
    system.add_server_domain(
        "crashy", f=1, servants=lambda element: {b"c": CrashyServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("crashy", b"c"))
    with pytest.raises(BadOperation, match="RuntimeError"):
        stub.add(1.0, 2.0)
    assert stub.mean([4.0, 6.0]) == 5.0  # domain alive afterwards


def test_divide_by_zero_python_exception_propagates():
    system = make_system(seed=405)
    system.add_server_domain(
        "crashy", f=1, servants=lambda element: {b"c": CrashyServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("crashy", b"c"))
    with pytest.raises(BadOperation, match="ZeroDivisionError"):
        stub.divide(1.0, 0.0)
