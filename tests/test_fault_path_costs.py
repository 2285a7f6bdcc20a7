"""What one rejoin, one head-stall catch-up and one expulsion cost, by
message type, on the wire model.

Beside ``tests/test_view_change_cost.py`` and counted the same way
(:func:`tests.test_view_change_cost.tally`): every copy the network carries,
by type, as [messages, ``wire_size()`` bytes, wire-codec bytes].

* **Rejoin** — the queue-mode set-up of ``tests/recovery``: ``calc-e2`` lies,
  is expelled, misses five requests, is repaired, and rejoins through
  ``recovery/`` (petition, GM vote, queue state transfer, rekey). Counted
  from the petition until the rejoin completes, plus one second of settling.
* **Head-stall catch-up** — the same set-up with no liar: ``calc-e3`` never
  receives the key shares of bob's connection, so bob's first request
  stalls its queue head until it is skipped, and the element, diverged,
  runs one catch-up round on its own. Counted from just before the skip
  until the round has adopted, plus one second of settling.
* **Expulsion** — the set-up of ``tests/itdos/test_faults_expulsion.py``:
  ``calc-e2`` answers honestly while the client's connection opens, then
  lies on the next request. Counted from that request through detection,
  the change request, the GM's vote and the rekey, three seconds in all.

The simulator is deterministic, so the counts are exact; re-pin with
``PYTHONPATH=src python -m tests.test_fault_path_costs``.
"""

from __future__ import annotations

from repro.itdos.faults import LyingElement
from tests.chaos.test_replay_pins import idle_minute, smoke_cell
from tests.itdos.test_faults_expulsion import lying_system
from tests.recovery.test_recovery import (
    build_queue_mode_system,
    expel_liar,
    recover,
    stall_head,
)
from tests.test_view_change_cost import pins, tally

#: type -> [messages, bytes, wire bytes] from the petition to a second past the rejoin.
REJOIN = {
    "BftReply": [4, 492, 284],
    "CatchUpRequest": [3, 240, 141],
    "CatchUpResponse": [3, 1521, 1377],
    "ClientRequest": [1, 266, 225],
    "CommitMsg": [16, 2096, 1328],
    "GmShareEnvelope": [20, 9985, 10397],
    "PrePrepareMsg": [4, 1780, 1248],
    "PrepareMsg": [12, 1572, 1008],
}

#: type -> [messages, bytes, wire bytes] from just before the skip to a second past the catch-up.
HEAD_STALL = {
    "CatchUpRequest": [3, 240, 141],
    "CatchUpResponse": [3, 1104, 960],
}

#: type -> [messages, bytes, wire bytes] from the lied-to request to three seconds on.
EXPULSION = {
    "BftReply": [8, 940, 524],
    "ClientRequest": [2, 1112, 1030],
    "CommitMsg": [32, 4240, 2688],
    "GmShareEnvelope": [16, 7996, 8324],
    "PrePrepareMsg": [8, 5892, 4824],
    "PrepareMsg": [24, 3180, 2040],
    "SmiopReply": [4, 784, 788],
    "StatusMsg": [64, 7328, 3328],
}


def rejoin_cost() -> dict[str, list[int]]:
    system = build_queue_mode_system(byzantine={2: LyingElement})
    stub = system.add_client("alice").stub(system.ref("calc", b"calc"))
    liar = expel_liar(system, stub)
    for i in range(5):
        stub.add(float(i), 1.0)
    system.settle(1.0)
    liar.repaired = True
    counted = tally(system.network)
    verdict, recovered = recover(system, liar)
    system.settle(1.0)
    assert (verdict, recovered) == (b"READMITTED", True)
    assert liar.queue.snapshot() == system.elements["calc-e0"].queue.snapshot()
    return counted()


def head_stall_cost() -> dict[str, list[int]]:
    system = build_queue_mode_system()
    network = system.network
    assert system.add_client("alice").stub(system.ref("calc", b"calc")).add(1.0, 1.0) == 2.0
    system.settle(1.0)
    stalled, peer = stall_head(system), system.elements["calc-e0"]
    network.run(until=stalled._head_stall_timer.time - 1e-6)
    counted = tally(network)
    system.run_until(lambda: stalled.recovery.transfers_completed == 1)
    system.settle(1.0)
    assert stalled.undecryptable_skipped == 1 and stalled.catch_up.rounds == 1
    assert not stalled.diverged
    assert stalled.queue.snapshot() == peer.queue.snapshot()
    assert stalled._append_chain == peer._append_chain
    return counted()


def expulsion_cost() -> dict[str, list[int]]:
    system = lying_system()
    liar = system.elements["calc-e2"]
    liar.repaired = True  # honest while the connection opens
    stub = system.add_client("alice").stub(system.ref("calc", b"calc"))
    assert stub.add(1.0, 1.0) == 2.0
    system.settle(1.0)
    liar.repaired = False
    counted = tally(system.network)
    assert stub.add(2.0, 3.0) == 5.0
    system.settle(3.0)
    for gm in system.gm_elements:
        assert gm.expulsions == [("calc-e2",)]
    return counted()


def test_one_rejoin_costs_what_it_is_pinned_to():
    assert rejoin_cost() == REJOIN


def test_one_head_stall_catch_up_costs_what_it_is_pinned_to():
    assert head_stall_cost() == HEAD_STALL


def test_one_expulsion_costs_what_it_is_pinned_to():
    assert expulsion_cost() == EXPULSION


def test_a_diverged_element_runs_at_most_one_round_in_the_idle_minute():
    """In chaos cell ``b1-p0-xs/0`` shard and coordinator elements go
    diverged: each has caught up by the end of the idle minute, and none
    starts more than one catch-up round during it."""
    _sha, system, _result = smoke_cell("b1-p0-xs/0")
    elements = system.elements.values()
    assert any(e.catch_up.rounds for e in elements)
    before = {e.pid: e.catch_up.rounds for e in elements}
    idle_minute(system)
    assert all(e.catch_up.rounds - before[e.pid] <= 1 for e in elements)
    assert not [e.pid for e in elements if e.diverged]


if __name__ == "__main__":
    print("REJOIN\n" + pins(rejoin_cost()))
    print("HEAD_STALL\n" + pins(head_stall_cost()))
    print("EXPULSION\n" + pins(expulsion_cost()))
