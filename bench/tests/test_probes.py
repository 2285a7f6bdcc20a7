"""The probe table must name things that exist: a rename in ``src/`` has to
break here, loudly, and never silently zero a layer's row."""

import pytest

from bench import probes


@pytest.mark.parametrize("target", sorted(probes.TARGETS))
def test_every_target_resolves(target):
    assert callable(probes.resolve(target))


def test_every_layer_has_a_target_and_every_hook_a_probe():
    assert set(probes.TARGETS.values()) == set(probes.LAYERS)
    assert set(probes.HOOKS) <= set(probes.TARGETS)


def test_install_rebinds_by_value_imports_and_remove_restores_them():
    import repro.crypto.digests as digests
    import repro.crypto.rsa as rsa  # does ``from repro.crypto.digests import digest``
    from repro.orb.core import Orb

    original_digest, original_static = digests.digest, Orb.__dict__["result_from_reply"]
    assert rsa.digest is original_digest
    tracer = probes.Tracer()
    installed = probes.install(tracer)
    try:
        assert digests.digest is not original_digest
        assert rsa.digest is digests.digest
        assert isinstance(Orb.__dict__["result_from_reply"], staticmethod)
        tracer.active = True
        digests.digest(b"abc")
        tracer.active = False
        digests.digest(b"abc")  # inactive: passes straight through
        assert tracer.calls["crypto.digests"] == 1
        assert tracer.self_ns["crypto.digests"] > 0
        assert tracer.covered_ns == tracer.self_ns["crypto.digests"]
    finally:
        installed.remove()
    assert digests.digest is original_digest and rsa.digest is original_digest
    assert Orb.__dict__["result_from_reply"].__func__ is original_static.__func__


def test_self_time_excludes_child_spans():
    """A parent span's self time is its duration minus its children's."""
    tracer = probes.Tracer()
    inner = probes._wrap(tracer, "t:inner", lambda: sum(range(20000)), "giop", None)
    outer = probes._wrap(tracer, "t:outer", lambda: inner() + inner(), "orb", None)
    tracer.active = True
    outer()
    assert tracer.calls["orb"] == 1 and tracer.calls["giop"] == 2
    assert tracer.covered_ns == tracer.self_ns["orb"] + tracer.self_ns["giop"]
    assert tracer.self_ns["giop"] > tracer.self_ns["orb"] > 0
