"""What one forced view change costs, by message type, on the wire model.

The n = 4 harness (fixed seed, 1 ms links) commits two requests, then
sends a third that r3 never sees pre-prepared, and crashes the view-0
primary once r1 and r2 have prepared it but before its own commit goes
out: only the view change to view 1 can carry it to a reply. Every copy
the network carries from the third request until its reply, plus one
second of settling, is counted by type: messages, ``wire_size()`` bytes,
and the bytes the wire codec lays for them (``encode_wire_payload``), so
a change to the wire format shows here too.

The counts are exact because the simulator is deterministic; a change to a
view-change message, to the new-view decision or to what the replicas
retransmit while a view change is in flight moves them, and says so by
re-pinning (``PYTHONPATH=src python -m tests.test_view_change_cost``).
``tests/test_fault_path_costs.py`` pins a rejoin and an expulsion the same way.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable

from repro.net.wire import encode_wire_payload
from repro.sim.network import Network, payload_size
from tests.bft.conftest import Harness

#: type -> [messages, bytes, wire bytes] sent from the third request to a
#: second past its reply.
COST = {
    "BftReply": [3, 363, 207],
    "ClientRequest": [1, 95, 54],
    "CommitMsg": [52, 6916, 4368],
    "NewViewMsg": [4, 7496, 9024],
    "PrePrepareMsg": [4, 1104, 568],
    "PrepareMsg": [40, 5320, 3400],
    "StatusMsg": [60, 6900, 3120],
    "ViewChangeMsg": [12, 6604, 7480],
}


def tally(network: Network) -> Callable[[], dict[str, list[int]]]:
    """Count every copy ``network`` sends from now on, by payload type;
    returns what reads the count: type -> [messages, modelled bytes, wire bytes]."""
    counts: dict[str, Counter[str]] = {}
    send, multicast = network.send, network.multicast

    def count(payload, copies):
        name = type(payload).__name__
        row = counts.setdefault(name, Counter())
        row["messages"] += copies
        row["bytes"] += payload_size(payload) * copies
        row["wire"] += len(encode_wire_payload(payload)) * copies

    def counted_send(src, dst, payload):
        count(payload, 1)
        send(src, dst, payload)

    def counted_multicast(src, address, payload):
        count(payload, len(network.groups[address].ordered()))
        multicast(src, address, payload)

    network.send, network.multicast = counted_send, counted_multicast
    return lambda: {
        name: [row["messages"], row["bytes"], row["wire"]] for name, row in sorted(counts.items())
    }


def view_change_cost() -> dict[str, list[int]]:
    harness = Harness(seed=0)
    harness.invoke_and_run([b"before-1", b"before-2"])
    harness.run(until=harness.network.now + 1.0)
    network = harness.network
    counted = tally(network)
    primary, r3 = harness.replicas[0], harness.replicas[3]
    results = []
    network.partition({primary.pid}, {r3.pid})
    harness.client("c2").invoke(b"prepared", results.append)
    harness.run(until=network.now + 0.0025)
    primary.crash()
    network.heal()
    harness.run_until(lambda: bool(results))
    harness.run(until=network.now + 1.0)
    assert results == [b"ok:prepared"]
    assert [r.view for r in harness.replicas[1:]] == [1, 1, 1]
    return counted()


def test_one_view_change_costs_what_it_is_pinned_to():
    assert view_change_cost() == COST


def pins(cost: dict[str, list[int]]) -> str:
    """``cost`` as the literal a pin is written in, one type a line."""
    return "\n".join(f"    {json.dumps(name)}: {row}," for name, row in cost.items())


if __name__ == "__main__":
    print(pins(view_change_cost()))
