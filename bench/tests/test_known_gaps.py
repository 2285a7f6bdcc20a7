"""Defects of ``src/`` the benchmark has to steer around, pinned as strict
xfails: the fix flips the test to XPASS, which fails the suite until the
pin — and the work-around it documents — is removed.
"""

import pytest

from repro.workloads.scenarios import build_kv_system


@pytest.mark.xfail(
    strict=True,
    raises=TypeError,
    reason="StatusMsg has no `auth` field, so HmacAuth.stamp cannot stamp the status "
    "beacon BftReplica._retransmit_tick multicasts once 2 simulated seconds have passed; "
    'the benchmark therefore pins protocol_auth="none" and has no authenticated profile yet',
)
def test_hmac_protocol_auth_survives_a_retransmit_tick():
    system = build_kv_system(f=1, seed=7, checkpoint_interval=16, protocol_auth="hmac")
    ref = system.ref("kv", b"kv")
    clients = [system.add_client(f"client-{i}") for i in range(2)]
    system.settle(1.0)
    done: list = []
    rounds = 200  # ~2.5 simulated seconds: past the 2 s retransmission tick
    for round_ in range(rounds):
        for index, client in enumerate(clients):
            client.async_invoke(ref, "put", (f"c{index}", f"v{round_}"), done.append)
    system.run_until(lambda: len(done) == rounds * len(clients))
    assert len(done) == rounds * len(clients)
