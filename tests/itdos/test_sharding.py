"""E20 sharding: the shard map, the client router, BFT cross-shard commit,
the shards=1 equivalence contract, and read-tier rotation (satellite of the
same PR).

The headline invariants:

* single-key traffic reaches exactly its home shard — other shards' ordered
  histories never see it (selective replication);
* ``transact`` is atomic: every touched shard records the same decision,
  commit applies everywhere or nowhere;
* ``shards=1`` through the sharded entry points is construction- and
  wire-identical to a pre-sharding deployment.
"""

from __future__ import annotations

import pytest

from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.sharding import ShardMap, ShardRouter
from repro.workloads.scenarios import (
    ShardKvServant,
    build_sharded_kv_system,
    router_for,
    standard_repository,
)


def make_system(shards=2, cross_shard=True, seed=0, **kwargs):
    system, shard_map = build_sharded_kv_system(
        shards=shards, f=1, seed=seed, cross_shard=cross_shard, **kwargs
    )
    client = system.add_client("alice")
    system.settle(1.0)  # GM bootstrap
    return system, shard_map, client, router_for(system, client, shard_map)


def key_on_shard(shard_map, shard, tag):
    n = 0
    while shard_map.shard_of(f"{tag}.{n}") != shard:
        n += 1
    return f"{tag}.{n}"


def shard_servants(system, shard_map, shard):
    domain_id = shard_map.domain_ids[shard]
    info = system.directory.domain(domain_id)
    return [
        system.elements[pid].orb.adapter.servant_for(b"kv")
        for pid in info.element_ids
    ]


# -- the shard map -------------------------------------------------------------


def test_shard_map_is_deterministic_and_total():
    shard_map = ShardMap("kv", 4)
    assert shard_map.domain_ids == ("kv-s0", "kv-s1", "kv-s2", "kv-s3")
    assert shard_map.coordinator_id == "kv-txc"
    for key in ("a", "b", "some-longer-key", ""):
        shard = shard_map.shard_of(key)
        assert 0 <= shard < 4
        assert shard == shard_map.shard_of(key)  # stable
        assert shard_map.domain_for(key) == f"kv-s{shard}"
    # bytes and str keys agree on the same content
    assert shard_map.shard_of("abc") == shard_map.shard_of(b"abc")


def test_shard_map_single_shard_degenerates_to_base_domain():
    shard_map = ShardMap("kv", 1)
    assert shard_map.domain_ids == ("kv",)
    assert shard_map.domain_for("anything") == "kv"


def test_shard_map_groups_parallel_lists_by_home_shard():
    shard_map = ShardMap("kv", 2)
    keys = [key_on_shard(shard_map, 0, "a"), key_on_shard(shard_map, 1, "b")]
    groups = shard_map.group(keys, ["va", "vb"])
    assert groups == {
        "kv-s0": ([keys[0]], ["va"]),
        "kv-s1": ([keys[1]], ["vb"]),
    }


# -- the router ----------------------------------------------------------------


def test_router_sends_each_key_to_its_home_shard_only():
    system, shard_map, client, router = make_system()
    k0 = key_on_shard(shard_map, 0, "x")
    k1 = key_on_shard(shard_map, 1, "y")
    router.invoke(k0, "put", k0, "v0")
    router.invoke(k1, "put", k1, "v1")
    assert router.routed == {"kv-s0": 1, "kv-s1": 1}
    # Selective replication: each shard's servants hold exactly their
    # partition, and neither shard ordered the other's write.
    for servant in shard_servants(system, shard_map, 0):
        assert servant.data == {k0: "v0"}
    for servant in shard_servants(system, shard_map, 1):
        assert servant.data == {k1: "v1"}


def test_router_reads_come_back_from_the_home_shard():
    system, shard_map, client, router = make_system()
    k0 = key_on_shard(shard_map, 0, "r")
    router.invoke(k0, "put", k0, "hello")
    assert router.invoke(k0, "get", k0) == "hello"
    assert router.invoke(key_on_shard(shard_map, 1, "q"), "get", k0) == ""


def test_router_without_coordinator_refuses_transactions():
    system, shard_map, client, router = make_system(cross_shard=False)
    assert shard_map.coordinator_id not in system.directory.domains
    with pytest.raises(RuntimeError, match="no coordinator"):
        router.transact(["a", "b"], ["1", "2"])


# -- cross-shard commit ----------------------------------------------------------


def test_transact_commits_atomically_across_shards():
    system, shard_map, client, router = make_system()
    k0 = key_on_shard(shard_map, 0, "t")
    k1 = key_on_shard(shard_map, 1, "t")
    assert router.transact([k0, k1], ["v0", "v1"]) == 1
    for servant in shard_servants(system, shard_map, 0):
        assert servant.data[k0] == "v0"
        assert servant.txn_decisions == {"txn-1": "commit"}
        assert servant.pending == {}
    for servant in shard_servants(system, shard_map, 1):
        assert servant.data[k1] == "v1"
        assert servant.txn_decisions == {"txn-1": "commit"}


def test_poisoned_transaction_aborts_everywhere_and_leaks_nothing():
    system, shard_map, client, router = make_system()
    bad = key_on_shard(shard_map, 0, "!p")  # "!" prefix votes no at prepare
    k1 = key_on_shard(shard_map, 1, "t")
    assert router.transact([bad, k1], ["v0", "v1"]) == 0
    for shard in (0, 1):
        for servant in shard_servants(system, shard_map, shard):
            assert servant.data == {}
            assert servant.txn_decisions == {"txn-1": "abort"}
            assert servant.pending == {}  # staged state freed on abort


def test_coordinator_elements_agree_on_every_decision():
    system, shard_map, client, router = make_system()
    k0 = key_on_shard(shard_map, 0, "t")
    k1 = key_on_shard(shard_map, 1, "t")
    assert router.transact([k0, k1], ["a", "b"]) == 1
    assert router.transact([key_on_shard(shard_map, 0, "!x"), k1], ["c", "d"]) == 0
    info = system.directory.domain(shard_map.coordinator_id)
    ledgers = [
        system.elements[pid].orb.adapter.servant_for(b"txc").decisions
        for pid in info.element_ids
    ]
    assert all(
        ledger == [("txn-1", "commit"), ("txn-2", "abort")] for ledger in ledgers
    )


def test_single_shard_transaction_still_goes_through_the_coordinator():
    system, shard_map, client, router = make_system()
    k0 = key_on_shard(shard_map, 0, "solo")
    assert router.transact([k0], ["v"]) == 1
    for servant in shard_servants(system, shard_map, 0):
        assert servant.data == {k0: "v"}
    for servant in shard_servants(system, shard_map, 1):
        assert servant.txn_decisions == {}  # untouched shard never hears of it


def test_torn_prepare_replay_is_refused_after_decision():
    servant = ShardKvServant()
    assert servant.prepare("txn-9", ["k"], ["v"]) == 1
    assert servant.commit("txn-9") == 1
    # A replayed (torn) prepare for a decided transaction must not restage.
    assert servant.prepare("txn-9", ["k"], ["v2"]) == 0
    assert servant.pending == {}
    assert servant.data == {"k": "v"}
    # And a commit without a live prepare changes nothing.
    assert servant.commit("txn-9") == 0


def test_mismatched_transact_arguments_abort_without_side_effects():
    system, shard_map, client, router = make_system()
    assert router.transact(["a", "b"], ["only-one"]) == 0
    for shard in (0, 1):
        for servant in shard_servants(system, shard_map, shard):
            assert servant.data == {}
            assert servant.txn_decisions == {}


# -- shards=1 equivalence ---------------------------------------------------------


def plain_kv_system(seed=0):
    system = ItdosSystem(
        seed=seed, repository=standard_repository(), heterogeneous=False
    )
    system.add_server_domain(
        "kv", f=1, servants=lambda element: {b"kv": ShardKvServant()}
    )
    return system


def test_shards_one_is_construction_identical():
    """add_sharded_domain(shards=1) must not perturb the RNG stream: same
    elements, same keys, same message counts as the pre-sharding build."""
    plain = plain_kv_system()
    sharded, shard_map = build_sharded_kv_system(shards=1, f=1, seed=0)
    assert shard_map.domain_ids == ("kv",)
    assert shard_map.coordinator_id not in sharded.directory.domains
    assert sorted(plain.elements) == sorted(sharded.elements)
    for pid, element in plain.elements.items():
        twin = sharded.elements[pid]
        assert element.queue.total_appended == twin.queue.total_appended
    assert plain.network.stats.messages_sent == sharded.network.stats.messages_sent
    assert plain.network.stats.bytes_sent == sharded.network.stats.bytes_sent


def test_shards_one_wire_and_voter_behavior_is_identical():
    """The same workload through a ShardRouter at shards=1 produces the
    same message counts and the same voter semantics as a plain stub."""
    plain = plain_kv_system()
    plain_client = plain.add_client("alice")
    plain.settle(1.0)
    stub = plain_client.stub(plain.ref("kv", b"kv"))

    sharded, shard_map, sharded_client, router = make_system(shards=1)

    for i in range(4):
        stub.put(f"k{i}", f"v{i}")
        router.invoke(f"k{i}", "put", f"k{i}", f"v{i}")
    assert stub.get("k0") == router.invoke("k0", "get", "k0") == "v0"

    assert plain.network.stats.messages_sent == sharded.network.stats.messages_sent
    assert plain.network.stats.bytes_sent == sharded.network.stats.bytes_sent

    def the_voter(client):
        assert len(client.endpoint.connections) == 1
        return next(iter(client.endpoint.connections.values())).voter

    plain_decision = the_voter(plain_client).decision
    sharded_decision = the_voter(sharded_client).decision
    assert plain_decision.decided and sharded_decision.decided
    assert sorted(plain_decision.supporters) == sorted(sharded_decision.supporters)


# -- read-tier rotation (client-side reader load balancing) -----------------------


def make_read_kv(readers):
    from repro.workloads.scenarios import KvStoreServant

    system = ItdosSystem(
        seed=0,
        repository=standard_repository(),
        heterogeneous=False,
        read_fastpath=True,
    )
    system.add_server_domain(
        "kv",
        f=1,
        servants=lambda element: {b"kv": KvStoreServant()},
        readers=readers,
    )
    system.settle(1.0)
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("k", "v")  # first invocation opens the (single) connection
    assert len(client.endpoint.connections) == 1
    connection = next(iter(client.endpoint.connections.values()))
    return system, stub, connection


def test_reads_rotate_round_robin_across_the_read_tier():
    system, stub, connection = make_read_kv(readers=3)
    polled = []
    for _ in range(6):
        assert stub.get("k") == "v"
        polled.append(connection.read_voter.readers_polled)
    # One reader per read (the quorum always comes from the core), and the
    # pick rotates evenly: 6 reads over 3 readers = 2 polls each.
    assert all(len(p) == connection.READ_TIER_FANOUT == 1 for p in polled)
    assert connection.reader_polls == {"kv-r0": 2, "kv-r1": 2, "kv-r2": 2}
    assert polled[:3] != polled[1:4]  # actually rotating, not sticky


def test_single_reader_is_always_polled():
    system, stub, connection = make_read_kv(readers=1)
    for _ in range(3):
        assert stub.get("k") == "v"
        assert connection.read_voter.readers_polled == ("kv-r0",)
    assert connection.reader_polls == {"kv-r0": 3}


def test_unpolled_reader_ballots_are_not_recorded():
    system, stub, connection = make_read_kv(readers=3)
    assert stub.get("k") == "v"
    system.settle(0.5)  # let any straggler replies land
    voters = {sender for sender, _ in connection.read_voter.reader_ballots}
    assert voters <= set(connection.read_voter.readers_polled)
