"""Topology files: parsing, derived membership, key-material determinism."""

import hashlib

import pytest

from repro.chaos.schedule import ChaosPlan, PartitionWindow
from repro.net.config import (
    TopologyConfig,
    TopologyError,
    _toml_subset_loads,
    load_toml,
)
from repro.net.launcher import write_topology

SAMPLE = """
# cluster topology
[system]
seed = 42        # all key material derives from this
f = 1
domain = "calc"
workload = "calc"
clients = ["client-0", "client-1"]

[net]
host = "127.0.0.1"
base_port = 43210
telemetry = true

[client]
requests = 12

[faults]
horizon = 4.0
p_drop = 0.05
p_duplicate = 0.5
protect = ["gm-0"]
[[faults.partitions]]
start = 0.5
end = 1.25
group_a = ["calc-e3", "calc-e2"]
[[faults.partitions]]
start = 2
end = 3
group_a = ["gm-1"]
"""


def test_subset_parser_matches_tomllib():
    parsed = _toml_subset_loads(SAMPLE)
    try:
        import tomllib
    except ImportError:
        tomllib = None
    if tomllib is not None:
        assert parsed == tomllib.loads(SAMPLE)
    assert parsed["system"]["seed"] == 42
    assert parsed["system"]["clients"] == ["client-0", "client-1"]
    assert parsed["faults"]["partitions"][0]["group_a"] == ["calc-e3", "calc-e2"]


def test_subset_parser_rejects_garbage():
    with pytest.raises(TopologyError):
        _toml_subset_loads("not a toml line")
    with pytest.raises(TopologyError):
        _toml_subset_loads("key = @bogus@")


def test_from_dict_and_derived_membership():
    config = TopologyConfig.from_dict(_toml_subset_loads(SAMPLE))
    assert config.seed == 42
    assert config.gm_ids == ("gm-0", "gm-1", "gm-2", "gm-3")
    assert config.element_ids == ("calc-e0", "calc-e1", "calc-e2", "calc-e3")
    assert config.clients == ("client-0", "client-1")
    assert config.node_ids() == config.gm_ids + config.element_ids + config.clients
    assert config.role_of("gm-2") == "gm"
    assert config.role_of("calc-e0") == "replica"
    assert config.role_of("client-1") == "client"
    with pytest.raises(TopologyError):
        config.role_of("stranger")
    book = config.address_book()
    assert book["gm-0"] == ("127.0.0.1", 43210)
    assert len(set(book.values())) == len(book)  # distinct ports
    assert config.groups() == {"gm": config.gm_ids, "calc": config.element_ids}


def test_validation():
    with pytest.raises(TopologyError):
        TopologyConfig(f=0)
    with pytest.raises(TopologyError):
        TopologyConfig(workload="sql")
    with pytest.raises(TopologyError):
        TopologyConfig(clients=())


def test_faults_table_is_a_chaos_plan():
    plan = TopologyConfig.from_dict(_toml_subset_loads(SAMPLE)).faults
    assert plan == ChaosPlan(
        horizon=4.0,
        p_drop=0.05,
        p_duplicate=0.5,
        protect=frozenset({"gm-0"}),
        partitions=(
            PartitionWindow(0.5, 1.25, frozenset({"calc-e2", "calc-e3"})),
            PartitionWindow(2.0, 3.0, frozenset({"gm-1"})),
        ),
    )
    assert TopologyConfig.from_dict({}).faults is None


@pytest.mark.parametrize(
    "table",
    [
        {"horizon": 3.0, "p_drop": 1.5},
        {"horizon": 3.0, "p_delay": -0.1},
        {"horizon": 3.0, "max_extra_delay": -1.0},
        {"p_drop": 0.1},
        {"horizon": float("inf")},
        {"horizon": 3.0, "drop": 0.01},
        {"horizon": 3.0, "delay": 0.005},
        {"horizon": 3.0, "link": [{"src": "a", "dst": "b", "drop": 1.0}]},
        {"horizon": 3.0, "partitions": [{"start": 2.0, "end": 1.0, "group_a": ["a"]}]},
        {"horizon": 3.0, "partitions": [{"start": 0.0, "end": 1.0}]},
        {"horizon": 3.0, "partitions": [{"start": 0, "end": 1, "group_a": [], "x": 1}]},
    ],
)
def test_bad_fault_plans_fail_at_load(table):
    with pytest.raises(TopologyError):
        TopologyConfig.from_dict({"faults": table})


def test_write_then_load_round_trips(tmp_path):
    config = TopologyConfig.from_dict(_toml_subset_loads(SAMPLE))
    assert config.faults is not None and len(config.faults.partitions) == 2
    path = str(tmp_path / "topology.toml")
    write_topology(config, path)
    loaded = TopologyConfig.load(path)
    assert loaded == config
    # And the subset parser agrees with whatever parser load() picked.
    with open(path, encoding="utf-8") as handle:
        assert TopologyConfig.from_dict(_toml_subset_loads(handle.read())) == config


def test_load_toml_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_toml(str(tmp_path / "absent.toml"))


def test_build_system_key_material_is_deterministic():
    """Two independent constructions from one topology produce identical key
    material — the property that lets every OS process derive the cluster
    PKI locally (the bootstrap doubles as the out-of-band ceremony)."""
    config = TopologyConfig(seed=9)
    one, two = config.build_system(), config.build_system()
    for pid in config.element_ids:  # replica signing keys are the keyring
        assert one.directory.keyring.public_key(pid) == (
            two.directory.keyring.public_key(pid)
        ), f"{pid} RSA keypair diverged between constructions"
    assert one.directory.pairwise_keys == two.directory.pairwise_keys


#: sha256 over the derived deployment of each topology below — process ids,
#: RSA public keys, GM pairwise keys, read keys, platforms and the served
#: interfaces — recorded when ``build_system`` still had one branch per
#: workload. One ``add_sharded_domain`` call must reproduce all of it.
KEY_MATERIAL_PINS = {
    "calc": (
        dict(domain="calc", workload="calc"),
        "e688e842590585d0ff77b65c8d3bec947e0e6c267f0679377160d9eff6dbabc4",
    ),
    "kv": (
        dict(domain="kv", workload="kv"),
        "ecf3d11d9eaf7d5658e9b0e0a0dd08148364ffff99d3971b8d682a5c26f130e8",
    ),
    "kv-readers": (
        dict(domain="kv", workload="kv", readers=2, read_fastpath=True),
        "26e396e038677b578aa8ea557dcfb06581aaf995387c398397aa73a09804fd81",
    ),
    "kv-shards": (
        dict(domain="kv", workload="kv", shards=2),
        "0ad8cf2972082d3893e461e6eb050c6942ab15fff64c3e4cee8c808af9377211",
    ),
}


@pytest.mark.parametrize("case", sorted(KEY_MATERIAL_PINS))
def test_build_system_derives_the_pinned_key_material(case):
    spec, pin = KEY_MATERIAL_PINS[case]
    config = TopologyConfig(seed=11, **spec)
    system = config.build_system()
    directory = system.directory
    pids = list(system.network.processes)
    material = [
        pids,
        [
            (pid, directory.keyring.public_key(pid))
            for pid in pids
            if directory.keyring.knows(pid)
        ],
        sorted(directory.pairwise_keys.items()),
        sorted(directory.read_keys.items()),
        sorted(directory.platforms.items()),
        [
            system.ref(domain_id, config.object_key).interface_name
            for domain_id in config.domain_ids
        ],
    ]
    assert pids == list(config.node_ids())
    assert hashlib.sha256(repr(material).encode()).hexdigest() == pin
