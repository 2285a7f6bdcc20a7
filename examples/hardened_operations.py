#!/usr/bin/env python3
"""Hardened operations: the reproduction's extensions working together.

Three features the paper lists as open problems (§3.5, §4), implemented and
exercised in one run:

1. **Periodic rekeying** — communication keys rotate on a schedule, so even
   an undetected compromise only reads a bounded window of traffic;
2. **Large-object transfer** — big replies travel as voted 32-byte digests
   plus a single body fetch, instead of 3f+1 full copies;
3. **Replica readmission** — an expelled element, once repaired, petitions
   the Group Manager, is rekeyed back in, and recovers its state through
   the ordinary state-transfer path.

Run:  python examples/hardened_operations.py
"""

from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.faults import LyingElement
from repro.workloads.scenarios import KvStoreServant, standard_repository


def main() -> None:
    system = ItdosSystem(
        seed=19,
        repository=standard_repository(),
        heterogeneous=False,  # object-mode state digests must agree
        checkpoint_interval=4,
        large_reply_threshold=1024,
        rekey_interval=0.5,
    )
    system.add_server_domain(
        "vault",
        f=1,
        servants=lambda element: {b"vault": KvStoreServant()},
        state_mode="object",
        app_state_fn=lambda element: (
            lambda: element.orb.adapter.servant_for(b"vault").get_state()
        ),
        app_restore_fn=lambda element: (
            lambda state: element.orb.adapter.servant_for(b"vault").set_state(state)
        ),
        byzantine={2: LyingElement},  # vault-e2 is compromised
    )
    client = system.add_client("operator")
    stub = client.stub(system.ref("vault", b"vault"))

    print("1) Periodic rekeying")
    stub.put("doc-1", "classified")
    first_generation = client.key_store.current_key(1).key_id
    system.settle(1.6)  # three rekey epochs
    stub.put("doc-2", "more classified")
    later_generation = client.key_store.current_key(1).key_id
    print(f"   key generation {first_generation} -> {later_generation} after 1.6 s "
          "(rotated on schedule; stale keys are useless to an eavesdropper)\n")

    print("2) Large-object transfer (digest voting + single body fetch)")
    blob = "B" * 50_000
    stub.put("blob", blob)
    before = system.network.stats.snapshot()
    fetched = stub.get("blob")
    delta = before.delta(system.network.stats)
    connection = next(iter(client.endpoint.connections.values()))
    print(f"   fetched {len(fetched):,} B correctly; wire bytes {delta.bytes_sent:,} "
          f"(full-body voting would ship ~4 copies); body fetches: "
          f"{connection.body_fetches}\n")

    print("3) Detect -> expel -> repair -> readmit")
    stub.size()  # the liar corrupts this int -> detected and reported
    system.settle(4.0)
    liar = system.elements["vault-e2"]
    print(f"   expelled: {sorted(system.gm_elements[0].state.expelled)}")
    liar.repaired = True
    verdicts = []
    liar.petition_readmission(verdicts.append)
    system.run_until(lambda: bool(verdicts))
    print(f"   petition after repair: {verdicts[0].decode()}")
    for i in range(8):
        stub.put(f"post-{i}", "data")
    system.settle(6.0)
    servant = liar.orb.adapter.servant_for(b"vault")
    print(f"   vault-e2 recovered: serving again={not liar.diverged}, "
          f"state entries={servant.size()} (repaired via state transfer)")
    print(f"   service total size: {stub.size()} entries, all voted correct")


if __name__ == "__main__":
    main()
