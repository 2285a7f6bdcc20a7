"""A chaos plan on the real wire: nine processes under loss, duplication and
a partition that heals, every request still voted.

The topology's ``[faults]`` table is a ``ChaosPlan``; each node applies it
at its own ``NetWorld.adversary`` slot, so the fault model the simulator's
chaos matrix certifies is the one these OS processes run under.
"""

import dataclasses

import pytest

from repro.chaos.adversary import ChaosController
from repro.chaos.schedule import ChaosPlan, PartitionWindow
from repro.net.bench import pick_base_port
from repro.net.config import TopologyConfig
from repro.net.launcher import ClusterLauncher

REQUESTS = 8

#: Windows count from each node's own boot. The client is cut off from every
#: server for two seconds; no server is on the cut side. The horizon outlasts
#: the launcher's ready and client timeouts together, so loss and
#: duplication cover the whole run however slowly the nodes boot. Every node
#: draws from the same seed, whose first fault falls on the 18th copy it
#: rolls for, and every server node rolls many more whatever the timing:
#: each replica takes part in every request, each GM element in the coin
#: toss and the connection. (With a replica on the cut side instead, the
#: requests could fall inside its window, and it then rolled as few as 16.)
PLAN = ChaosPlan(
    horizon=600.0,
    p_drop=0.05,
    p_duplicate=0.1,
    partitions=(PartitionWindow(start=1.0, end=3.0, group_a=frozenset({"client-0"})),),
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


def copies_before_first_fault(plan, seed):
    """How many copies a controller seeded as every node is rolls for until
    its first fault, partitions aside."""

    class Idle:
        now = 0.0

    controller = ChaosController(Idle(), dataclasses.replace(plan, partitions=()), seed=seed)
    while not controller.applied:
        controller.intercept("a", "b", b"copy", 0)
    return controller.rolled


def test_every_server_node_applied_faults(stormy_run):
    config, _report, _codes, stats = stormy_run
    first_fault = copies_before_first_fault(PLAN, config.seed)
    assert first_fault == 18
    for pid in (*config.gm_ids, *config.element_ids):
        assert stats[pid]["faults_rolled"] >= first_fault, (pid, stats[pid]["faults_rolled"])
        applied = stats[pid]["faults_applied"]
        assert sum(applied.values()) > 0, (pid, applied)
        assert set(applied) <= {"drop", "duplicate", "partition"}, (pid, applied)
