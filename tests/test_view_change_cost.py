"""What one forced view change costs, by message type, on the wire model.

The n = 4 harness (fixed seed, 1 ms links) commits two requests, then
sends a third that r3 never sees pre-prepared, and crashes the view-0
primary once r1 and r2 have prepared it but before its own commit goes
out: only the view change to view 1 can carry it to a reply. Every copy
the network carries from the third request until its reply, plus one
second of settling, is counted by type: messages and ``wire_size()`` bytes.

The counts are exact because the simulator is deterministic; a change to a
view-change message, to the new-view decision or to what the replicas
retransmit while a view change is in flight moves them, and says so by
re-pinning (``PYTHONPATH=src python -m tests.test_view_change_cost``).
"""

from __future__ import annotations

import json
from collections import Counter

from repro.sim.network import payload_size
from tests.bft.conftest import Harness

#: type -> [messages, bytes] sent from the third request to a second past its reply.
COST = {
    "BftReply": [3, 363],
    "ClientRequest": [1, 95],
    "CommitMsg": [52, 6916],
    "NewViewMsg": [4, 7496],
    "PrePrepareMsg": [4, 1104],
    "PrepareMsg": [40, 5320],
    "StatusMsg": [60, 6900],
    "ViewChangeMsg": [12, 6604],
}


def view_change_cost() -> dict[str, list[int]]:
    harness = Harness(seed=0)
    harness.invoke_and_run([b"before-1", b"before-2"])
    harness.run(until=harness.network.now + 1.0)
    network = harness.network
    messages: Counter[str] = Counter()
    size: Counter[str] = Counter()
    send, multicast = network.send, network.multicast

    def count(payload, copies):
        name = type(payload).__name__
        messages[name] += copies
        size[name] += payload_size(payload) * copies

    def counted_send(src, dst, payload):
        count(payload, 1)
        send(src, dst, payload)

    def counted_multicast(src, address, payload):
        count(payload, len(network.groups[address].ordered()))
        multicast(src, address, payload)

    network.send, network.multicast = counted_send, counted_multicast
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
    return {name: [messages[name], size[name]] for name in sorted(messages)}


def test_one_view_change_costs_what_it_is_pinned_to():
    assert view_change_cost() == COST


if __name__ == "__main__":
    print(json.dumps(view_change_cost(), indent=4))
