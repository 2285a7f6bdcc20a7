"""E14 — batched, pipelined ordering: throughput vs batch size and auth.

Castro–Liskov batch requests into one protocol instance precisely because
the three-phase exchange, not the request payload, dominates ordering cost.
With batching the quadratic prepare/commit traffic amortizes over the batch
and the authenticator vectors are computed once per batch rather than once
per request; the pipeline window keeps several instances in flight so the
group's links stay busy.

Measured, for batch size B ∈ {1, 4, 16} under each auth mode
(null / hmac / rsa), with 64 single-outstanding clients driving a closed
loop over an f=1 group:

* ordered-requests/second of simulated time;
* protocol messages per ordered request;
* mean request latency.

Asserted shape: batching >= 5x throughput at B=16 under NullAuth, message
cost per request collapses with B, and a view change mid-burst re-proposes
uncommitted batches (no request lost or duplicated).
"""

import time

from benchmarks.conftest import once, print_table
from repro.bft.auth import HmacAuth, RsaAuth
from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.replica import build_group
from repro.crypto.signing import HmacAuthenticator, KeyRing
from repro.sim import FixedLatency, Network, NetworkConfig
from tests.history import History

BATCH_SIZES = [1, 4, 16]
AUTH_MODES = ["null", "hmac", "rsa"]
CLIENTS = 64
REQUESTS_PER_CLIENT = 4  # 256 ordered requests per cell


def make_auth_factory(mode: str, replica_ids: tuple[str, ...]):
    if mode == "null":
        return None
    if mode == "hmac":
        auths = HmacAuthenticator.bootstrap(list(replica_ids), seed=7)
        return lambda pid: HmacAuth(auths[pid])
    ring, signers = KeyRing.bootstrap(list(replica_ids), bits=256, seed=7)
    return lambda pid: RsaAuth(signers[pid], ring)


def run_cell(batch_size: int, auth_mode: str, seed: int = 14):
    """(sim requests/sec, messages/request, mean latency, wall seconds).

    Simulated throughput is latency-and-message-count bound; wall time is
    where the crypto cost (and the digest/marshal/stamp caches) shows up.
    """
    network = Network(NetworkConfig(seed=seed, latency=FixedLatency(0.001)))
    config = BftConfig(
        group_id="grp",
        replica_ids=tuple(f"r{i}" for i in range(4)),
        f=1,
        checkpoint_interval=32,
        view_change_timeout=5.0,
        client_retry_timeout=5.0,
        batch_size=batch_size,
        batch_delay=0.002,
        pipeline_window=4,
    )
    build_group(
        network, config, auth_factory=make_auth_factory(auth_mode, config.replica_ids)
    )
    total = CLIENTS * REQUESTS_PER_CLIENT
    completions: list[float] = []
    started = {}

    clients = []
    for c in range(CLIENTS):
        client = BftClient(f"c{c}", config, max_outstanding=1)
        network.add_process(client)
        clients.append(client)

    def submit(client, index):
        key = (client.pid, index)
        started[key] = network.now

        def on_reply(result, client=client, index=index, key=key):
            completions.append(network.now - started[key])
            if index + 1 < REQUESTS_PER_CLIENT:
                submit(client, index + 1)

        client.invoke(f"{client.pid}:{index}".encode(), on_reply)

    before = network.stats.snapshot()
    start = network.now
    wall_start = time.perf_counter()
    for client in clients:
        submit(client, 0)
    network.run(stop_when=lambda: len(completions) >= total, max_events=10**7)
    wall = time.perf_counter() - wall_start
    duration = network.now - start
    delta = before.delta(network.stats)
    assert len(completions) >= total
    return (
        total / duration,
        delta.messages_sent / total,
        sum(completions) / len(completions),
        wall,
    )


def test_e14_batching_throughput(benchmark):
    def scenario():
        return {
            (batch, mode): run_cell(batch, mode)
            for mode in AUTH_MODES
            for batch in BATCH_SIZES
        }

    table = once(benchmark, scenario)
    rows = []
    for mode in AUTH_MODES:
        for batch in BATCH_SIZES:
            throughput, msgs, latency, wall = table[(batch, mode)]
            rows.append(
                [
                    mode,
                    batch,
                    f"{throughput:,.0f}",
                    f"{msgs:.1f}",
                    f"{latency * 1e3:.2f}",
                    f"{wall:.2f}",
                ]
            )
    print_table(
        "E14 — batched + pipelined ordering (f=1, 64 closed-loop clients)",
        ["auth", "batch size", "ordered req/s (sim)", "msgs/request",
         "mean latency (ms)", "wall time (s)"],
        rows,
    )
    # The headline claim: >= 5x ordered throughput at B=16 under NullAuth.
    base = table[(1, "null")][0]
    batched = table[(16, "null")][0]
    assert batched >= 5 * base, (base, batched)
    # Batching must help every auth mode, and per-request message cost must
    # collapse roughly with the batch factor.
    for mode in AUTH_MODES:
        assert table[(16, mode)][0] > 2 * table[(1, mode)][0], mode
        assert table[(16, mode)][1] < table[(1, mode)][1] / 2, mode
    benchmark.extra_info["requests_per_second"] = {
        f"{mode}/b{batch}": table[(batch, mode)][0]
        for mode in AUTH_MODES
        for batch in BATCH_SIZES
    }
    benchmark.extra_info["messages_per_request"] = {
        f"{mode}/b{batch}": table[(batch, mode)][1]
        for mode in AUTH_MODES
        for batch in BATCH_SIZES
    }


def test_e14_view_change_reproposes_batches(benchmark):
    """Crash the primary mid-burst: every in-flight batch either commits in
    view 0 or is re-proposed by the new primary — nothing lost, nothing
    executed twice."""

    def scenario():
        network = Network(NetworkConfig(seed=3, latency=FixedLatency(0.001)))
        config = BftConfig(
            group_id="grp",
            replica_ids=tuple(f"r{i}" for i in range(4)),
            f=1,
            checkpoint_interval=32,
            view_change_timeout=0.25,
            batch_size=4,
            batch_delay=0.002,
            pipeline_window=4,
        )
        replicas = build_group(network, config)
        history = History(network)
        total = 32
        results: dict[str, bytes] = {}
        clients = []
        for c in range(total):
            client = BftClient(f"c{c}", config, max_outstanding=1)
            network.add_process(client)
            clients.append(client)
            client.invoke(
                f"c{c}-op".encode(),
                lambda r, pid=client.pid: results.setdefault(pid, r),
            )
        # Kill the primary with the first batch wave pre-prepared but not
        # yet committed, and the second wave still in its accumulator: the
        # first wave must be re-proposed or commit as-is, the second must
        # reach the new primary via client retransmission.
        network.run(until=0.0035)
        replicas[0].crash()
        network.run(
            stop_when=lambda: len(results) >= total, max_events=10**7
        )
        live = [r for r in replicas if not r.crashed]
        return results, live, total, history

    results, live, total, history = once(benchmark, scenario)
    assert len(results) == total
    for replica in live:
        assert replica.view >= 1
        # Exactly-once execution across the view change.
        executed = [(c, t) for _, c, t in history.executions[replica.pid]]
        assert len(executed) == len(set(executed))
        assert len(executed) == total
        assert history.executions[replica.pid] == history.executions[live[0].pid]
    benchmark.extra_info["completed_across_view_change"] = len(results)
