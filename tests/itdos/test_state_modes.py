"""State synchronisation modes: queue (ITDOS) vs object (Castro–Liskov).

The groundwork for experiment E4 (§3.1/§5): object-mode checkpoints carry
the whole application state (recoverable, expensive); queue-mode checkpoints
carry a constant-size digest view (cheap, and no checkpoint can rebuild a
queue: an element that loses sync fetches its peers' queue image instead).
"""

import pytest

from repro.workloads.generators import random_strings
from repro.workloads.scenarios import build_kv_system


def fill(stub, n, value_size=32, prefix="k"):
    import random

    values = random_strings(random.Random(7), n, length=value_size)
    for i, value in enumerate(values):
        stub.put(f"{prefix}{i}", value)


def test_object_mode_checkpoint_includes_app_state():
    system = build_kv_system(state_mode="object")
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    fill(stub, 6, value_size=64)
    system.settle(2.0)
    element = system.domain_elements("kv")[0]
    assert element.stable_seq > 0
    snapshot = element._snapshot()
    assert len(snapshot) > 6 * 64  # the state dominates the snapshot


def test_queue_mode_checkpoint_is_constant_size():
    system = build_kv_system(state_mode="queue")
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    before = len(system.domain_elements("kv")[0]._snapshot())
    fill(stub, 8, value_size=256)
    system.settle(2.0)
    after = len(system.domain_elements("kv")[0]._snapshot())
    assert after - before < 64  # digest+counter only; independent of state


def test_object_mode_recovers_partitioned_element():
    system = build_kv_system(state_mode="object")
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("warm", "up")  # establish keys everywhere before the partition
    lagger = system.domain_elements("kv")[3]
    others = {e.pid for e in system.domain_elements("kv")[:3]}
    system.network.partition({lagger.pid}, others)
    fill(stub, 8)
    system.network.heal()
    fill(stub, 4, prefix="post")
    system.settle(4.0)
    servant = lagger.orb.adapter.servant_for(b"kv")
    assert servant.size() >= 9  # recovered past the missed traffic
    assert not lagger.diverged


def test_queue_mode_partitioned_element_catches_up():
    system = build_kv_system(state_mode="queue")
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("warm", "up")
    lagger, peer = system.domain_elements("kv")[3], system.domain_elements("kv")[0]
    others = {e.pid for e in system.domain_elements("kv")[:3]}
    system.network.partition({lagger.pid}, others)
    fill(stub, 8)
    system.network.heal()
    fill(stub, 4, prefix="post")
    system.settle(4.0)
    # No checkpoint can rebuild its queue, so the element went diverged and
    # fetched its peers' queue image in one catch-up round (§3.1: it
    # catches up or it is expelled).
    assert lagger.catch_up.rounds == 1 and lagger.recovery.transfers_completed == 1
    assert not lagger.diverged
    assert lagger._append_chain == peer._append_chain
    servant = lagger.orb.adapter.servant_for(b"kv")
    assert servant.size() == peer.orb.adapter.servant_for(b"kv").size() == 13


def test_service_unaffected_by_lagging_element_in_either_mode():
    for mode in ("queue", "object"):
        system = build_kv_system(state_mode=mode, seed=3)
        client = system.add_client("alice")
        stub = client.stub(system.ref("kv", b"kv"))
        stub.put("warm", "up")
        lagger = system.domain_elements("kv")[3]
        system.network.partition(
            {lagger.pid}, {e.pid for e in system.domain_elements("kv")[:3]}
        )
        fill(stub, 6)
        assert stub.get("k0") != ""
        assert stub.size() == 7
