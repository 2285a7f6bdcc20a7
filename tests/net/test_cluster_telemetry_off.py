"""The real wire with telemetry off: every request votes, nothing raises.

A disabled ``Telemetry`` has no sinks (they are ``None``), so an
instrumentation site that forgets its ``telemetry.enabled`` guard raises.
``NetWorld.deliver`` counts such an exception as a delivery error instead
of propagating it, so this test reads that counter on every node as well
as the client's voted results.
"""

import pytest

from repro.net.bench import pick_base_port
from repro.net.config import TopologyConfig
from repro.net.launcher import ClusterLauncher

REQUESTS = 8


@pytest.fixture(scope="module")
def untraced_run(tmp_path_factory):
    config = TopologyConfig(
        seed=11, requests=REQUESTS, telemetry=False, base_port=pick_base_port(9)
    )
    with ClusterLauncher(config, str(tmp_path_factory.mktemp("net-off"))) as cluster:
        cluster.start_servers(ready_timeout=90.0)
        report = cluster.run_client(timeout=180.0)
        exit_codes = cluster.shutdown()
        stats = {
            pid: cluster.stats_of(pid)
            for pid in (*config.gm_ids, *config.element_ids)
        }
    return report, exit_codes, stats


def test_telemetry_off_cluster_votes_every_request(untraced_run):
    report, exit_codes, stats = untraced_run
    assert report["okay"] == REQUESTS
    assert report["errors"] == []
    assert report["exit_code"] == 0
    assert all(code == 0 for code in exit_codes.values()), exit_codes
    assert all(s is not None for s in stats.values())
    for pid, s in stats.items():
        assert s["world"]["delivery_errors"] == 0, pid
