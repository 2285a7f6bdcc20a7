"""E1 — §3.2: ordering-group size drives super-linear cost.

"BFT total-ordering protocols are expensive; ... the number of messages
exchanged is directly related to the number of members in the ordering
group. Given the non-linear performance penalties in large ordering groups,
the ordering groups should be as small as possible. For that reason,
clients cannot be in the same ordering group as the servers."

Measured: per-request point-to-point message deliveries and simulated
latency of the ordering protocol as n = 3f+1 grows, plus the cost of the
rejected design (clients folded into the ordering group — modelled as an
ordering group enlarged by the client population, since every member pays
the quadratic exchange).
"""

from benchmarks.conftest import once, print_table
from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.replica import build_group
from repro.sim import FixedLatency, Network, NetworkConfig


def ordering_cost(n: int, f: int, requests: int = 5) -> tuple[float, float]:
    """(messages per request, mean simulated latency) for a group of n."""
    network = Network(NetworkConfig(seed=0, latency=FixedLatency(0.001)))
    config = BftConfig(
        group_id="grp",
        replica_ids=tuple(f"r{i}" for i in range(n)),
        f=f,
        checkpoint_interval=64,
    )
    build_group(network, config)
    client = BftClient("client", config)
    network.add_process(client)
    # One warm-up request so steady-state is measured.
    done = []
    client.invoke(b"warmup", done.append)
    network.run(stop_when=lambda: bool(done), max_events=10**6)
    before = network.stats.snapshot()
    latencies = []
    for _ in range(requests):
        start = network.now
        finished = []
        client.invoke(b"op", finished.append)
        network.run(stop_when=lambda: bool(finished), max_events=10**6)
        latencies.append(network.now - start)
    network.run(until=network.now + 1.0)  # drain trailing protocol traffic
    delta = before.delta(network.stats)
    return delta.messages_sent / requests, sum(latencies) / len(latencies)


def test_e1_ordering_group_size(benchmark):
    def scenario():
        results = {}
        for f in (1, 2, 3, 4):
            n = 3 * f + 1
            results[n] = ordering_cost(n, f)
        return results

    results = once(benchmark, scenario)
    rows = []
    sizes = sorted(results)
    for n in sizes:
        messages, latency = results[n]
        rows.append([f"3f+1 = {n}", f"{messages:.1f}", f"{latency * 1000:.2f}"])
    print_table(
        "E1a — ordering cost vs group size",
        ["ordering group", "messages/request", "latency (ms)"],
        rows,
    )

    # Shape: super-linear message growth (quadratic protocol). Doubling-ish
    # n from 4 to 7 must much more than double messages relative to linear.
    msgs = {n: results[n][0] for n in sizes}
    for small, large in zip(sizes, sizes[1:]):
        linear_prediction = msgs[small] * large / small
        assert msgs[large] > 1.25 * linear_prediction, (
            f"expected super-linear growth: {msgs[large]:.0f} vs linear "
            f"{linear_prediction:.0f}"
        )

    # E1b: the rejected design — clients inside the ordering group. With c
    # clients the group becomes n + c; compare the per-request cost of
    # ITDOS's design (group stays at n) against the merged group.
    n = 4
    merged_rows = []
    for clients in (1, 4, 8):
        merged_n = n + clients
        merged_f = (merged_n - 1) // 3
        merged_msgs, _ = ordering_cost(merged_n, merged_f)
        merged_rows.append(
            [f"{clients} clients", f"{msgs[4]:.1f}", f"{merged_msgs:.1f}"]
        )
        assert merged_msgs > msgs[4]
    print_table(
        "E1b — clients outside (ITDOS) vs inside the ordering group",
        ["client population", "ITDOS msgs/req (group stays 4)", "merged-group msgs/req"],
        merged_rows,
    )
    benchmark.extra_info["messages_per_request"] = {
        str(n): results[n][0] for n in sizes
    }
