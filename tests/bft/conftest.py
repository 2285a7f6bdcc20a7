"""Shared fixtures for BFT protocol tests."""

from __future__ import annotations

import pytest

from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.replica import BftReplica, build_group
from repro.sim import FixedLatency, Network, NetworkConfig
from tests.history import History


def make_config(f=1, group_id="grp", **overrides):
    n = 3 * f + 1
    defaults = dict(
        group_id=group_id,
        replica_ids=tuple(f"{group_id}-r{i}" for i in range(n)),
        f=f,
        checkpoint_interval=4,
        view_change_timeout=0.25,
        client_retry_timeout=0.5,
    )
    defaults.update(overrides)
    return BftConfig(**defaults)


class Harness:
    """One network + one replication group + helper clients."""

    def __init__(self, f=1, seed=0, latency=None, byzantine=None, config_overrides=None):
        self.network = Network(
            NetworkConfig(seed=seed, latency=latency or FixedLatency(0.001))
        )
        self.config = make_config(f=f, **(config_overrides or {}))
        self.replicas = build_group(self.network, self.config, byzantine=byzantine)
        self.history = History(self.network)
        self.clients: dict[str, BftClient] = {}

    def executions(self, replica) -> list:
        """``(seq, client, timestamp)`` per request ``replica`` executed."""
        return self.history.executions[replica.pid]

    def client(self, name="client") -> BftClient:
        if name not in self.clients:
            client = BftClient(name, self.config)
            self.network.add_process(client)
            self.clients[name] = client
        return self.clients[name]

    def replica(self, index) -> BftReplica:
        return self.replicas[index]

    def run(self, until=None, max_events=200_000):
        self.network.run(until=until, max_events=max_events)

    def run_until(self, predicate, max_events=200_000):
        self.network.run(stop_when=predicate, max_events=max_events)

    def invoke_and_run(self, payloads, client_name="client", until=None):
        """Submit payloads sequentially (each after the previous completes)."""
        client = self.client(client_name)
        results = []
        remaining = list(payloads)

        def submit_next():
            if remaining:
                payload = remaining.pop(0)
                client.invoke(payload, lambda r: (results.append(r), submit_next()))

        submit_next()
        self.run_until(lambda: len(results) == len(payloads))
        return results


@pytest.fixture()
def harness():
    return Harness()
