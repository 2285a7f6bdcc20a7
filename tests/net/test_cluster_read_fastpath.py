"""Fast-path reads over real processes: every read decides tentatively.

Each node builds the whole deployment from the topology seed, so the read
keys a client and an element MAC with are derived independently in two
OS processes. A single mismatched pair would show as a read discarded with
reason ``"mac"`` and, at three, as a fallback to the ordered path; so this
run asserts that every read was a fast-path hit, that none fell back, and
that no delivery raised on any node.
"""

import pytest

from repro.net.bench import pick_base_port
from repro.net.config import TopologyConfig
from repro.net.launcher import ClusterLauncher

REQUESTS = 8


@pytest.fixture(scope="module")
def read_run(tmp_path_factory):
    config = TopologyConfig(
        seed=19,
        requests=REQUESTS,
        workload="kv",
        domain="kv",
        readers=1,
        read_fastpath=True,
        read_fraction=0.75,
        telemetry=False,
    )
    config.base_port = pick_base_port(len(config.node_ids()))
    with ClusterLauncher(config, str(tmp_path_factory.mktemp("net-reads"))) as cluster:
        cluster.start_servers(ready_timeout=90.0)
        report = cluster.run_client(timeout=180.0)
        exit_codes = cluster.shutdown()
        stats = {pid: cluster.stats_of(pid) for pid in config.node_ids()}
    return report, exit_codes, stats


def test_every_read_decides_on_the_fast_path(read_run):
    report, exit_codes, _ = read_run
    assert report["okay"] == REQUESTS
    assert report["errors"] == []
    assert report["exit_code"] == 0
    assert all(code == 0 for code in exit_codes.values()), exit_codes
    assert report["reads"] == 6  # W R R R W R R R
    assert report["reads_sent"] == report["reads"]
    assert report["read_fastpath_hits"] == report["reads"]
    assert report["read_fastpath_fallbacks"] == 0


def test_no_delivery_raised_on_any_node(read_run):
    _, _, stats = read_run
    assert all(s is not None for s in stats.values()), stats
    for pid, s in stats.items():
        assert s["world"]["delivery_errors"] == 0, pid
    assert stats["kv-r0"]["read_only"]["reads_served"] > 0
