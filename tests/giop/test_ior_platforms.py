"""Tests for object references and platform heterogeneity profiles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giop.ior import ObjectRef
from repro.giop.platforms import (
    AIX_POWER,
    HOMOGENEOUS,
    LINUX_X86,
    PLATFORMS,
    SOLARIS_SPARC,
    PlatformProfile,
    assign_heterogeneous,
    assign_homogeneous,
)


def test_object_ref_fields():
    ref = ObjectRef("Bank", "domain-1", b"acct-7")
    assert ref.transport == "smiop"


def test_object_ref_validation():
    with pytest.raises(ValueError):
        ObjectRef("", "d", b"")
    with pytest.raises(ValueError):
        ObjectRef("I", "", b"")
    with pytest.raises(ValueError):
        ObjectRef("I", "d", b"", transport="carrier-pigeon")


def test_stringify_destringify_roundtrip():
    ref = ObjectRef("Bank", "domain-1", b"\x00\x01binary", transport="iiop")
    text = ref.stringify()
    assert text.startswith("IOR:")
    assert ObjectRef.destringify(text) == ref


def test_destringify_rejects_garbage():
    with pytest.raises(ValueError):
        ObjectRef.destringify("not-an-ior")
    with pytest.raises(ValueError):
        ObjectRef.destringify("IOR:zznothex")


def test_platform_registry():
    assert set(PLATFORMS) >= {
        "solaris-sparc-cxx", "linux-x86-cxx", "homogeneous-reference",
    }
    assert SOLARIS_SPARC.byte_order == "big"
    assert LINUX_X86.byte_order == "little"


def test_platform_validation():
    with pytest.raises(ValueError):
        PlatformProfile("x", "middle", "C")
    with pytest.raises(ValueError):
        PlatformProfile("x", "big", "C", float_mantissa_bits=4)


def test_full_precision_platform_is_identity():
    assert HOMOGENEOUS.perturb_float(math.pi) == math.pi


def test_reduced_precision_perturbs_but_stays_close():
    value = math.pi * 1e6
    perturbed = AIX_POWER.perturb_float(value)
    assert perturbed != value
    assert abs(perturbed - value) / abs(value) < 2.0 ** (-AIX_POWER.float_mantissa_bits + 1)


def test_perturbation_deterministic():
    assert LINUX_X86.perturb_float(1.2345678901234567) == LINUX_X86.perturb_float(
        1.2345678901234567
    )


def test_perturbation_zero_and_nonfinite_passthrough():
    assert AIX_POWER.perturb_float(0.0) == 0.0
    assert math.isinf(AIX_POWER.perturb_float(math.inf))


def test_perturb_result_recurses():
    value = {"a": [1.5, math.pi], "b": ("x", math.e), "n": 3, "flag": True}
    out = AIX_POWER.perturb_result(value)
    assert out["n"] == 3
    assert out["flag"] is True
    assert out["b"][0] == "x"
    assert out["a"][1] != math.pi
    assert out["a"][1] == pytest.approx(math.pi, rel=1e-10)


def test_bool_survives_perturbation_untouched():
    assert AIX_POWER.perturb_result(True) is True


def test_assign_heterogeneous_diverse():
    platforms = assign_heterogeneous(4)
    assert len(platforms) == 4
    assert len({p.name for p in platforms}) == 4
    orders = {p.byte_order for p in platforms}
    assert orders == {"big", "little"}


def test_assign_homogeneous_identical():
    platforms = assign_homogeneous(4)
    assert len({p.name for p in platforms}) == 1


def test_different_platforms_differ_on_same_value():
    """Two correct heterogeneous replicas: inexactly-equal results."""
    value = 1.0 / 3.0 * 1e10
    a = LINUX_X86.perturb_float(value)
    b = AIX_POWER.perturb_float(value)
    assert a != b
    assert abs(a - b) / abs(value) < 1e-10


@settings(max_examples=50)
@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100))
def test_property_perturbation_bounded(value):
    for platform in PLATFORMS.values():
        perturbed = platform.perturb_float(value)
        if value == 0.0:
            assert perturbed == 0.0
        else:
            assert abs(perturbed - value) <= abs(value) * 2.0 ** (
                -(platform.float_mantissa_bits - 1)
            )


@settings(max_examples=50)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_property_perturbation_idempotent(value):
    """Rounding to k mantissa bits twice equals rounding once."""
    once = AIX_POWER.perturb_float(value)
    assert AIX_POWER.perturb_float(once) == once
