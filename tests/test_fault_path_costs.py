"""What one rejoin and one expulsion cost, by message type, on the wire model.

Beside ``tests/test_view_change_cost.py`` and counted the same way
(:func:`tests.test_view_change_cost.tally`): every copy the network carries,
by type, as [messages, ``wire_size()`` bytes, wire-codec bytes].

* **Rejoin** — the queue-mode set-up of ``tests/recovery``: ``calc-e2`` lies,
  is expelled, misses five requests, is repaired, and rejoins through
  ``recovery/`` (petition, GM vote, queue state transfer, rekey). Counted
  from the petition until the rejoin completes, plus one second of settling.
* **Expulsion** — the set-up of ``tests/itdos/test_faults_expulsion.py``:
  ``calc-e2`` answers honestly while the client's connection opens, then
  lies on the next request. Counted from that request through detection,
  the change request, the GM's vote and the rekey, three seconds in all.

The simulator is deterministic, so the counts are exact; re-pin with
``PYTHONPATH=src python -m tests.test_fault_path_costs``.
"""

from __future__ import annotations

from repro.itdos.faults import LyingElement
from tests.itdos.test_faults_expulsion import lying_system
from tests.recovery.test_recovery import build_queue_mode_system, expel_liar, recover
from tests.test_view_change_cost import pins, tally

#: type -> [messages, bytes, wire bytes] from the petition to a second past the rejoin.
REJOIN = {
    "BftReply": [4, 492, 284],
    "ClientRequest": [1, 266, 225],
    "CommitMsg": [16, 2096, 1328],
    "GmShareEnvelope": [20, 9985, 10397],
    "PrePrepareMsg": [4, 1780, 1248],
    "PrepareMsg": [12, 1572, 1008],
    "QueueStateRequest": [3, 192, 174],
    "QueueStateResponse": [3, 996, 1095],
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


def test_one_expulsion_costs_what_it_is_pinned_to():
    assert expulsion_cost() == EXPULSION


if __name__ == "__main__":
    print("REJOIN\n" + pins(rejoin_cost()))
    print("EXPULSION\n" + pins(expulsion_cost()))
