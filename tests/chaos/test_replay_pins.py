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
request outstanding, no ordering replica may change view, and the primary a
``vc`` cell crashed and recovered must be indistinguishable from a peer the
adversary never touched (:func:`tests.equivalence.same_state`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.bft.replica import BftReplica
from repro.chaos import ScheduleRunner, scenario_matrix
from repro.sim.latency import UniformLatency
from repro.workloads.scenarios import build_calc_system
from tests.equivalence import same_state, state_of

PINS = {
    "b1-p0/0": "71919451d2a2a24563110b893c3b782156f2734097ace04d099e5532a969ac0f",
    "b1-p0/1": "3ffe27342fb8ad2775bbec4c8fb714bf90afaff649bdd9f120c9d2baad151fc2",
    "b4-p4/0": "68e90c6d2b9b3825f2be10ab6741a731a62d1d481d054f2c867a1d37dc61f64a",
    "b4-p4/1": "cbf701829d8636bd2a0d08b5803d46f99853614dc37e42750119159e3e3374bc",
    "b4-p0-vc/0": "a4ec8fe5b4eafda881dac5673418bc9bc61df8895266a7198ea8ccf97f406705",
    "b4-p0-vc/1": "3e4dddfffa29ea2c1419ee0342609c1bd7c6ccfc96eeaefd80191c8436fbefe4",
    "b1-p4-rec/0": "cca4744eb238b999b1c67e041340d54dbc6e309aa39d65b3890d54e537e5a64b",
    "b1-p4-rec/1": "a6868a3905d9eb3d2120a4b04bd0862aad471a3c8ccf9f4788f7e63b0c8ff125",
    "b4-p4-rec-vc/0": "2270065aa1fbc38d6c6bdff5b1b59a270ab24a1418466a83198efed7d5eb6e39",
    "b4-p4-rec-vc/1": "f3a961d08faa029fa9178cc86999f190ea94b5bf3b09eef926f365dc6224b0a3",
    "b1-p0-rd/0": "313ee8d32ca77e959e9a19ade8c9b8c53f3b07635ef1766b3a16ead1d096693d",
    "b1-p0-rd/1": "51ce93d59a0c3a2fe5ed76f3b99b67d2f72b6303cb32f870c7364907b40abf37",
    "b1-p0-xs/0": "70fe69e137dd7c96d7e38323f33faf624e816c0a3a4a0334a8e1f1dace6d88e1",
    "b1-p0-xs/1": "3f0ca06e00e452bfd2b033b4cf062590a064e424678401c11a6f18437ec93a34",
}

#: Loss and jitter on: pins the order of the network RNG's draws (one loss
#: draw, then one latency draw, per surviving copy) — the smoke cells run
#: fixed latency and no ambient loss, so they cannot.
LOSSY_PIN = "460daa9c46627ac7d9a9e84dda85bab7d907a0145d2a296160e8184ccbd59721"

#: Cells whose idle minute still moves a view. BFT state transfer does not
#: carry ``client_table``: a coordinator element caught up by it treats
#: alice's retransmitted timestamps as new and climbs views alone.
NOT_QUIESCENT = {"b1-p0-xs/0"}


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
    assert len(PINS) == 14


def test_smoke_cell_replays_bit_for_bit(cell):
    label, sha, _system, _result = cell
    assert sha == PINS[label]


def test_smoke_cell_quiesces(cell, request):
    """Run on past the RunResult: the adversary is gone, so the network is
    healed. Settle 10 s, then idle 60 s: no live ordering replica changes
    view or sits in a view change."""
    label, _sha, system, result = cell
    if label in NOT_QUIESCENT:
        request.applymarker(
            pytest.mark.xfail(strict=True, reason="state transfer drops client_table")
        )
    network = system.network
    network.run(until=network.now + 10.0)
    live = [
        p for p in network.processes.values()
        if isinstance(p, BftReplica) and not p.crashed
    ]
    views = {r.pid: r.view for r in live}
    network.run(until=network.now + 60.0)
    assert {r.pid: r.view for r in live} == views
    assert not [r.pid for r in live if r.in_view_change]
    if label.startswith("b4-p0-vc/"):
        primary, *peers = (system.elements[f"calc-e{i}"] for i in range(4))
        peer = next(p for p in peers if p.pid not in result.true_faulty)
        assert same_state(primary, peer), (state_of(primary), state_of(peer))


def test_lossy_jittered_cell_replays_bit_for_bit():
    assert lossy_cell() == LOSSY_PIN


if __name__ == "__main__":
    print(json.dumps({label: smoke_cell(label)[0] for label in PINS}, indent=4))
    print("LOSSY_PIN =", repr(lossy_cell()))
