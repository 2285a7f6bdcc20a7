"""One Byzantine fault format: a behaviour is a mixin on one layer's hook,
named by pid, and a builder refuses a behaviour that would hook nothing."""

from __future__ import annotations

import pytest

from repro.bft.replica import BftReplica
from repro.chaos.byzantine import (
    CertificateForger,
    LaggingReader,
    LyingElement,
    SilentReplica,
    StutteringPrimaryReplica,
)
from repro.itdos.readtier import ReadOnlyElement
from repro.itdos.replica import ItdosServerElement
from repro.sim.process import with_behaviour
from tests.bft.conftest import Harness
from tests.itdos.conftest import CalculatorServant, make_system


def calc_domain(**kwargs):
    return make_system().add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}, **kwargs
    )


def test_a_behaviour_goes_in_front_of_the_class_the_builder_makes():
    cls = with_behaviour(ItdosServerElement, LyingElement)
    assert cls.__name__ == "LyingElement"
    assert cls.__mro__[1:3] == (LyingElement, ItdosServerElement)
    assert with_behaviour(ItdosServerElement, None) is ItdosServerElement


def test_a_hook_the_base_lacks_is_a_type_error():
    # A reader orders nothing; a plain PBFT replica has no commit feed.
    with pytest.raises(TypeError, match="_order"):
        with_behaviour(ReadOnlyElement, StutteringPrimaryReplica)
    with pytest.raises(TypeError, match="_handle_commit_feed"):
        with_behaviour(BftReplica, LaggingReader)
    with pytest.raises(TypeError, match="_p2p"):
        calc_domain(readers=1, byzantine={"calc-r0": CertificateForger})


def test_elements_and_readers_are_keyed_alike():
    [_, liar, *_] = calc_domain(
        readers=1, byzantine={"calc-e1": LyingElement, "calc-r0": LaggingReader}
    )
    processes = liar.network.processes
    assert isinstance(liar, LyingElement) and isinstance(liar, ItdosServerElement)
    assert isinstance(processes["calc-r0"], LaggingReader)
    assert isinstance(processes["calc-r0"], ReadOnlyElement)
    assert type(processes["calc-e0"]) is ItdosServerElement


def test_a_key_naming_no_process_is_refused():
    with pytest.raises(ValueError, match="calc-e9"):
        calc_domain(byzantine={"calc-e9": LyingElement})
    with pytest.raises(ValueError):
        calc_domain(byzantine={1: LyingElement})  # an index is not a pid
    with pytest.raises(ValueError, match="grp-r4"):
        Harness(byzantine={"grp-r4": SilentReplica})
