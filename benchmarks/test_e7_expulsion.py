"""E7 — §3.6: detection → proof → re-vote → expulsion by rekeying.

"Once Group Manager determines that the request is valid, it generates new
communication keys and distributes them to all the correct processes in the
affected replication domain and associated clients and servers, effectively
removing the faulty process." And the attack the design must resist: "A
potential vulnerability is that the client is malicious and is attempting
to expel correct processes from the target replication domain."

Measured: the expulsion timeline (fault observed → change_request → GM
verdict → rekey installed everywhere), post-rekey lockout of the expelled
element, and the rejection rate of forged proofs.
"""

from benchmarks.conftest import once, print_table
from repro.chaos.byzantine import LyingElement, forged_change_request
from repro.workloads.scenarios import CalculatorServant, standard_repository
from repro.itdos.bootstrap import ItdosSystem


def test_e7_expulsion_pipeline(benchmark):
    def scenario():
        system = ItdosSystem(seed=21, repository=standard_repository())
        system.add_server_domain(
            "calc",
            f=1,
            servants=lambda element: {b"calc": CalculatorServant()},
            byzantine={"calc-e2": LyingElement},
        )
        client = system.add_client("alice")
        stub = client.stub(system.ref("calc", b"calc"))
        stub.add(1.0, 1.0)  # establishment + the observed fault
        t_fault = system.network.now
        # Run until every honest element holds the new key generation.
        honest = [system.elements[p] for p in ("calc-e0", "calc-e1", "calc-e3")]
        system.run_until(
            lambda: all(
                e.key_store.current_key(1) is not None
                and e.key_store.current_key(1).key_id >= 1
                for e in honest
            )
            and client.key_store.current_key(1).key_id >= 1
        )
        t_rekeyed = system.network.now
        system.settle(1.0)
        return system, client, stub, t_fault, t_rekeyed

    system, client, stub, t_fault, t_rekeyed = once(benchmark, scenario)
    expulsion_ms = (t_rekeyed - t_fault) * 1000

    # Verdicts and lockout.
    assert all("calc-e2" in gm.state.expelled for gm in system.gm_elements)
    expelled = system.elements["calc-e2"]
    before = len(expelled.dispatched)
    assert stub.add(5.0, 5.0) == 10.0  # service continues
    system.settle(1.0)
    locked_out = len(expelled.dispatched) == before

    # Forged-proof attack.
    mallory = system.add_client("mallory")
    mallory.stub(system.ref("calc", b"calc")).add(1.0, 1.0)
    denials = 0
    attempts = 3
    for target in ("calc-e0", "calc-e1", "calc-e3"):
        verdicts = []
        mallory.endpoint.gm_engine.invoke(
            forged_change_request("mallory", "calc", (target,)).to_payload(),
            verdicts.append,
        )
        system.run_until(lambda: bool(verdicts))
        denials += verdicts[0] == b"DENIED"

    print_table(
        "E7 — expulsion pipeline",
        ["stage", "outcome"],
        [
            ["fault observed -> all honest parties rekeyed", f"{expulsion_ms:.1f} ms (simulated)"],
            ["GM elements agreeing on expulsion", f"{sum('calc-e2' in gm.state.expelled for gm in system.gm_elements)}/4"],
            ["expelled element locked out of new traffic", locked_out],
            ["forged proofs against correct elements denied", f"{denials}/{attempts}"],
            ["correct elements expelled by forged proofs", 0],
        ],
    )
    assert locked_out
    assert denials == attempts
    for gm in system.gm_elements:
        assert gm.state.expelled == {"calc-e2"}
    assert expulsion_ms < 1000
    benchmark.extra_info["expulsion_ms"] = expulsion_ms
