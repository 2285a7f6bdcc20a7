#!/usr/bin/env python3
"""Intrusion drill: detect, prove, expel, repair, and readmit a replica.

The full §3.6 story — plus the recovery half the paper left as future
work — in one run:

1. element ``calc-e2`` is compromised (returns corrupted values);
2. the client's voter masks the lie (f+1 honest agreement) *and* identifies
   the dissenter;
3. the client sends the Group Manager a ``change_request`` whose proof is
   the set of signed replies;
4. the GM verifies the signatures, unmarshals the replies with its own
   marshalling engine, re-votes, and expels the element by rekeying every
   communication group without it;
5. the expelled element can no longer decrypt traffic; service continues;
6. a malicious client then tries to expel a *correct* element with forged
   proof — and is denied;
7. ``calc-e2`` is repaired and sends the Group Manager a *signed* rejoin
   petition; the GM readmits it and rotates every connection key to a new
   membership epoch;
8. the readmitted element catches up by adopting a cross-validated message
   queue snapshot from 2f+1 peers — no full object-state copy — and votes
   with the majority again;
9. key epochs: the pre-expulsion keys the intruder may have exfiltrated
   are fenced out, even though the element is a member once more.

Run:  python examples/intrusion_drill.py
"""

from repro.chaos.byzantine import LyingElement, forged_change_request
from repro.workloads.scenarios import CalculatorServant, standard_repository
from repro.itdos.bootstrap import ItdosSystem


def main() -> None:
    system = ItdosSystem(seed=5, repository=standard_repository())
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={"calc-e2": LyingElement},  # calc-e2 is compromised
    )
    print("Domain 'calc' (f=1):", list(system.directory.domain("calc").element_ids))
    print("  calc-e2 is COMPROMISED: it corrupts every result it returns.\n")

    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))

    print("Step 1-2: invoke; the voter masks and detects the faulty value")
    result = stub.add(2.0, 3.0)
    print(f"  add(2, 3) = {result}   <- correct despite the intrusion")

    system.settle(3.0)
    reports = client.endpoint.change_requests_sent
    print(f"\nStep 3: client filed {len(reports)} change_request(s)")
    print(f"  accused: {list(reports[0].accused)}, proof: "
          f"{len(reports[0].proof)} signed replies")

    print("\nStep 4: Group Manager verdicts")
    for gm in system.gm_elements:
        print(f"  {gm.pid}: expelled={sorted(gm.state.expelled)} "
              f"keys_issued={len(gm.keys_issued)}")

    conn_id = next(iter(client.endpoint.connections))
    print("\nStep 5: rekey lockout")
    print(f"  client's current key generation: "
          f"{client.key_store.current_key(conn_id).key_id}")
    expelled = system.elements["calc-e2"]
    expelled_key = expelled.key_store.current_key(conn_id)
    print(f"  calc-e2's key generation      : "
          f"{expelled_key.key_id if expelled_key else 'none'} (stale)")
    served_before = len(expelled.dispatched)
    print(f"  service continues: add(10, 20) = {stub.add(10.0, 20.0)}")
    system.settle(1.0)
    print(f"  calc-e2 processed {len(expelled.dispatched) - served_before} of the "
          "new (rekeyed) requests")

    print("\nStep 6: a malicious client forges proof against calc-e0")
    mallory = system.add_client("mallory")
    mallory.stub(system.ref("calc", b"calc")).add(1.0, 1.0)
    verdicts = []
    mallory.endpoint.gm_engine.invoke(
        forged_change_request("mallory", "calc", ("calc-e0",)).to_payload(),
        verdicts.append,
    )
    system.run_until(lambda: bool(verdicts))
    print(f"  Group Manager verdict: {verdicts[0].decode()}")
    print(f"  calc-e0 still serving: add(7, 7) = {stub.add(7.0, 7.0)}")

    print("\nStep 7: calc-e2 is repaired and petitions to rejoin")
    expelled.repaired = True
    for i in range(3):
        stub.add(float(i), 100.0)  # traffic calc-e2 misses while expelled
    rejoin_verdicts: list[bytes] = []
    done: list[bool] = []
    expelled.recover_membership(
        callback=rejoin_verdicts.append, on_complete=done.append
    )
    system.run_until(lambda: bool(done))
    print(f"  signed rejoin petition -> GM verdict: {rejoin_verdicts[0].decode()}")
    gm = system.gm_elements[0]
    print(f"  GM membership: expelled={sorted(gm.state.expelled)} "
          f"readmitted={gm.readmissions}")

    print("\nStep 8: state transfer from the message queue (no object copy)")
    recovery = expelled.recovery
    print(f"  adopted a peer queue snapshot: {recovery.transfers_completed} "
          f"transfer(s), {recovery.bytes_transferred} bytes on the wire")
    print(f"  calc-e2 diverged: {expelled.diverged}  (back in sync)")
    served_before = len(expelled.dispatched)
    print(f"  add(6, 7) = {stub.add(6.0, 7.0)}")
    system.settle(1.0)
    print(f"  calc-e2 dispatched {len(expelled.dispatched) - served_before} "
          "new request(s) and votes with the majority")

    print("\nStep 9: key epochs fence out the intruder's old keys")
    print(f"  membership key epoch: {gm.state.key_epoch} "
          "(bumped at expulsion AND readmission)")
    honest = system.elements["calc-e0"]
    keys = honest.key_store.connections[conn_id]
    fenced = sorted(
        key_id for key_id, epoch in keys.epoch_of.items()
        if epoch < keys.fence_floor
    )
    live = sorted(keys.keys)
    print(f"  calc-e0 retains generations {live}; pre-expulsion generations "
          "are gone —")
    print("  anything the intruder exfiltrated before expulsion is useless, "
          f"fenced={not fenced}")


if __name__ == "__main__":
    main()
