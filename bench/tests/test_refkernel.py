"""The reference kernel is frozen: its output is pinned, and an edit that
changes what it computes must fail here, not shift every metric quietly."""

import pytest

from bench import refkernel


def test_kernel_output_is_the_frozen_checksum():
    assert refkernel.run_kernel() == refkernel.REF_CHECKSUM
    assert refkernel.timed_kernel() > 0


def test_a_changed_kernel_is_refused(monkeypatch):
    monkeypatch.setattr(refkernel, "_ROUNDS", refkernel._ROUNDS + 1)
    with pytest.raises(refkernel.RefKernelChanged):
        refkernel.timed_kernel()


def test_ref_us_is_wall_over_kernel_time_at_the_nominal_scale():
    kernel = refkernel.REF_NOMINAL_US / 1e6
    assert refkernel.to_ref_us(0.001, kernel) == pytest.approx(1000.0)
    # twice as slow a host doubles both: the metric does not move
    assert refkernel.to_ref_us(0.002, 2 * kernel) == pytest.approx(1000.0)
