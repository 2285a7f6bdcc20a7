"""A chaos plan on the real wire: nine processes under loss, duplication and
a partition that heals, every request still voted.

The topology's ``[faults]`` table is a ``ChaosPlan``; each node applies it
at its own ``NetWorld.adversary`` slot, so the fault model the simulator's
chaos matrix certifies is the one these OS processes run under.
"""

import pytest

from repro.chaos.schedule import ChaosPlan, PartitionWindow
from repro.net.bench import pick_base_port
from repro.net.config import TopologyConfig
from repro.net.launcher import ClusterLauncher

REQUESTS = 8

#: Windows count from each node's own boot. One replica is cut off for two
#: seconds, inside the f = 1 bound. The horizon outlasts the launcher's
#: ready and client timeouts together, so loss and duplication cover the
#: whole run however slowly the nodes boot. Every node draws from the same
#: seed, whose first drop falls on the 18th copy it rolls for: any server node
#: that sends that many copies outside the partition applies a fault.
PLAN = ChaosPlan(
    horizon=600.0,
    p_drop=0.05,
    p_duplicate=0.1,
    partitions=(PartitionWindow(start=1.0, end=3.0, group_a=frozenset({"calc-e3"})),),
)


@pytest.fixture(scope="module")
def stormy_run(tmp_path_factory):
    config = TopologyConfig(
        seed=13, requests=REQUESTS, telemetry=False, faults=PLAN,
        base_port=pick_base_port(9),
    )
    with ClusterLauncher(config, str(tmp_path_factory.mktemp("net-plan"))) as cluster:
        cluster.start_servers(ready_timeout=90.0)
        report = cluster.run_client(timeout=240.0)
        exit_codes = cluster.shutdown()
        stats = {pid: cluster.stats_of(pid) for pid in config.node_ids()}
    return config, report, exit_codes, stats


def test_every_request_votes_under_the_plan(stormy_run):
    _config, report, exit_codes, stats = stormy_run
    assert report["okay"] == REQUESTS
    assert report["errors"] == []
    assert report["exit_code"] == 0
    assert all(code == 0 for code in exit_codes.values()), exit_codes
    for pid, s in stats.items():
        assert s is not None, pid
        assert s["world"]["delivery_errors"] == 0, pid


def test_every_server_node_applied_faults(stormy_run):
    config, _report, _codes, stats = stormy_run
    for pid in (*config.gm_ids, *config.element_ids):
        applied = stats[pid]["faults_applied"]
        assert sum(applied.values()) > 0, (pid, applied)
        assert set(applied) <= {"drop", "duplicate", "partition"}, (pid, applied)
