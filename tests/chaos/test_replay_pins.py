"""Known-answer pins: the simulator replays these cells bit for bit.

Each value is the sha256 of ``json.dumps(RunResult.to_dict(), sort_keys=True)``
for one chaos-smoke cell — fault events, delivery count, reply count and
``sim_time`` — taken on the commit *before* the scheduler's uncancellable
``post``, the fused ``run`` loop and the elements' routing tables (PR 23) and
committed as constants. A change that moves delivery order, consumes the
scheduler's ``seq`` or the network's RNG in a different order, or drops,
adds or re-routes a message moves a hash; a change that means to says so by
re-pinning (``PYTHONPATH=src python -m tests.chaos.test_replay_pins``).

Each cell's system then runs on, healed, for an idle minute: with no
request outstanding, no ordering replica may change view. The primary a
``vc`` cell crashed and recovered and the element a ``rec`` cell restarted
must then be indistinguishable from a peer the adversary never touched, and
an ``xs`` cell's coordinator elements from each other
(:func:`tests.equivalence.same_state`), and so must each shard group of an
``xs`` cell; no element may be left diverged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.bft.replica import BftReplica
from repro.chaos import ScheduleRunner, scenario_matrix
from repro.sim.latency import UniformLatency
from repro.workloads.scenarios import build_calc_system
from tests.equivalence import same_state, state_of

PINS = {
    "b1-p0/0": "fb911405ffc9244e9d7ee8fab8b72baffc73911bd9f9792a391b8c103d4e3810",
    "b1-p0/1": "53f982ea54099ffe3112b602940c4eb5eed072ede2ed50b2a38abd3f72241d71",
    "b4-p4/0": "1ab372beb9ae3628c1b57fa1e0c84ad5f9080ee31312ed91b0770790a135aa09",
    "b4-p4/1": "a6402ae1dabbe3d2c75f203cdb483fc90f4b41dd2c0d635d4a91e7128a157616",
    "b4-p0-vc/0": "d5e543186359aa7f16375dc76bb064cf94370e5c79342d7f045108663ee39fb8",
    "b4-p0-vc/1": "6f851d486facb43291a87e97176c01ce8ce2a69869ae5eeb9138e49d2d37f381",
    "b1-p4-rec/0": "e03d0c073de5aadb06d430b57f3951f94678a9b13fe20d27e5f954f179c59478",
    "b1-p4-rec/1": "74f4fe374b40040dca28f53b89029d5a24fae5c8778fa0c86568d1678227a7ef",
    "b4-p4-rec-vc/0": "1391c5baa9e6d3d1721b537cf0e7e4fd7d6c1dfaf0411b5daabaec8361bec929",
    "b4-p4-rec-vc/1": "b9b214bf4fff9b422a80b9ba914d253554afe77adc0de38b6f7907fdd2b6eb43",
    "b1-p0-rd/0": "6fda5b0f9a8dfd05471957d633c2b3e128c7ec7f538c78d401feefdf322e9072",
    "b1-p0-rd/1": "2bc65b4caa2c45da1827ce8cefd60562618f7e50f6eee01f71d180b4f5c0e235",
    "b1-p0-xs/0": "2deb12e2f4bd1a9c7dbeff12329c587fad8d67a914376ac3d8288b396105ecd4",
    "b1-p0-xs/1": "21020a090e35ccd9dd6f5bd87707b44079dedb0de17bde6c1ae6583dfff2966e",
    "b1-p0-fg-vc/0": "dce433a4a4bfb168f8dfb32c5d6243326d6b6227600f02e63b8583ac5b3c2995",
    "b1-p0-fg-vc/1": "02515f2e9d3ccefd18913b36f7497105b24d37b096462273fc5b5e80b96c80b3",
}

#: Loss and jitter on: pins the order of the network RNG's draws (one loss
#: draw, then one latency draw, per surviving copy) — the smoke cells run
#: fixed latency and no ambient loss, so they cannot.
LOSSY_PIN = "460daa9c46627ac7d9a9e84dda85bab7d907a0145d2a296160e8184ccbd59721"


def _sha(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class _KeepSystem(ScheduleRunner):
    """Keeps the system of the cell it ran, to run on after the RunResult."""

    def _run_cell(self, system, *args) -> None:
        self.system = system
        super()._run_cell(system, *args)


def smoke_cell(label: str) -> tuple[str, object, object]:
    """One smoke cell: the hash of its RunResult, its system, and the
    RunResult."""
    scenario_label, seed = label.split("/")
    [scenario] = [s for s in scenario_matrix() if s.label == scenario_label]
    runner = _KeepSystem()
    result = runner.run_one(scenario, int(seed))
    assert result.ok, result.violations
    return _sha(result.to_dict()), runner.system, result


@pytest.fixture(scope="module", params=sorted(PINS))
def cell(request):
    return (request.param, *smoke_cell(request.param))


def lossy_cell() -> str:
    system = build_calc_system(f=1, seed=5, latency=UniformLatency())
    system.network.config.drop_probability = 0.05
    client = system.add_client("alice")
    system.settle(0.5)
    stub = client.stub(system.ref("calc", b"calc"))
    results = [stub.add(float(i), 1.0) for i in range(6)]
    system.settle(0.5)
    network = system.network
    return _sha({
        "results": results,
        "now": network.now,
        "events": network.scheduler.events_executed,
        "stats": dataclasses.asdict(network.stats),
        "rng": network.rng.random(),
    })


def test_pins_cover_the_smoke_slice():
    assert set(PINS) == {f"{s.label}/{seed}" for s in scenario_matrix() for seed in (0, 1)}
    assert len(PINS) == 16


def test_smoke_cell_replays_bit_for_bit(cell):
    label, sha, _system, _result = cell
    assert sha == PINS[label]


def equivalent_pairs(label: str, system, result) -> list[tuple[str, str]]:
    """The replica pairs a cell must leave indistinguishable: each ``xs``
    coordinator pair; else each element a ``vc`` cell crashed or a ``rec``
    cell restarted, against a peer the adversary never touched."""
    if "-xs/" in label:
        coordinators = sorted(p for p in system.elements if p.startswith("kv-txc-e"))
        return list(itertools.combinations(coordinators, 2))
    recovered = [
        pid for tag, pid in (("-vc/", "calc-e0"), ("-rec", "calc-e2")) if tag in label
    ]
    untouched = [
        pid for pid in sorted(system.elements)
        if pid not in result.true_faulty and pid not in recovered
    ]
    return [(pid, untouched[0]) for pid in recovered]


def idle_minute(system) -> tuple[list[BftReplica], dict[str, int]]:
    """Run on past the RunResult, where the adversary is gone and the
    network healed: settle 10 s, then idle 60 s. Returns the live ordering
    replicas and their views as the idle minute began."""
    network = system.network
    network.run(until=network.now + 10.0)
    live = [
        p for p in network.processes.values()
        if isinstance(p, BftReplica) and not p.crashed
    ]
    views = {r.pid: r.view for r in live}
    network.run(until=network.now + 60.0)
    return live, views


def test_smoke_cell_quiesces(cell):
    """After :func:`idle_minute`, no live ordering replica has changed view
    or sits in a view change, no element is diverged, and every pair of
    :func:`equivalent_pairs` is in the same state."""
    label, _sha, system, result = cell
    live, views = idle_minute(system)
    assert {r.pid: r.view for r in live} == views
    assert not [r.pid for r in live if r.in_view_change]
    assert not [pid for pid, e in sorted(system.elements.items()) if e.diverged]
    for a, b in equivalent_pairs(label, system, result):
        a, b = system.elements[a], system.elements[b]
        assert same_state(a, b), (state_of(a), state_of(b))


@pytest.mark.parametrize("label", ["b1-p0-xs/0", "b1-p0-xs/1"])
def test_xs_shard_groups_converge(label):
    """After :func:`idle_minute`, every pair of each shard group of an
    ``xs`` cell is in the same state."""
    _sha, system, _result = smoke_cell(label)
    idle_minute(system)
    for shard in ("kv-s0-e", "kv-s1-e"):
        members = sorted(p for p in system.elements if p.startswith(shard))
        for a, b in itertools.combinations(members, 2):
            a, b = system.elements[a], system.elements[b]
            assert same_state(a, b), (state_of(a), state_of(b))


def test_lossy_jittered_cell_replays_bit_for_bit():
    assert lossy_cell() == LOSSY_PIN


if __name__ == "__main__":
    print(json.dumps({label: smoke_cell(label)[0] for label in PINS}, indent=4))
    print("LOSSY_PIN =", repr(lossy_cell()))
