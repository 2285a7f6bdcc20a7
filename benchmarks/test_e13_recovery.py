"""E13 — recovery: rejoin latency and transfer cost vs missed-traffic depth.

The recovery subsystem (repro.recovery) closes the loop E4 leaves open: in
queue mode a lagging element "diverged -> expel" was terminal. Now an
expelled element petitions back in (signed rejoin handshake), adopts a
cross-validated ``MessageQueue`` snapshot from 2f+1 peers, and replays the
ordered tail. Because the queue view is *bounded*, the transfer cost should
stay flat as the amount of traffic the element missed grows — the same
scalability argument §3.1 makes for checkpoints, now applied to recovery.

Measured, for missed-traffic depth D ∈ {8, 32, 128} voted invocations:

* rejoin latency — simulated seconds from ``recover_membership()`` to the
  coordinator reporting success (petition + fetch + restore + replay);
* state-transfer bytes — the queue-state responses' wire size;
* recovery-window wire bytes — total network delta during recovery
  (includes the membership rekey fan-out).
"""

from benchmarks.conftest import once, print_table
from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.faults import LyingElement
from repro.workloads.scenarios import CalculatorServant, standard_repository

MISSED_DEPTHS = [8, 32, 128]


def run_depth(depth: int, seed: int):
    """Returns (rejoin_latency, transfer_bytes, window_bytes, recovered?,
    votes_with_majority?)."""
    system = ItdosSystem(
        seed=seed, repository=standard_repository(), checkpoint_interval=8
    )
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        byzantine={2: LyingElement},
    )
    client = system.add_client("driver")
    stub = client.stub(system.ref("calc", b"calc"))
    # Detection + expulsion of the liar.
    stub.add(2.0, 3.0)
    system.settle(3.0)
    liar = system.elements["calc-e2"]
    assert all("calc-e2" in gm.state.expelled for gm in system.gm_elements)
    # The traffic the expelled element misses.
    for i in range(depth):
        stub.add(float(i), 1.0)
    system.settle(1.0)
    # Repair and recover.
    liar.repaired = True
    before = system.network.stats.snapshot()
    started = system.network.now
    done: list[bool] = []
    liar.recover_membership(on_complete=done.append)
    system.run_until(lambda: bool(done))
    latency = system.network.now - started
    window = before.delta(system.network.stats)
    # Post-recovery: the readmitted element votes with the majority.
    served_before = len(liar.dispatched)
    assert stub.add(10.0, 20.0) == 30.0
    system.settle(1.0)
    votes = len(liar.dispatched) > served_before
    return (
        latency,
        liar.recovery.bytes_transferred,
        window.bytes_sent,
        done[0] and not liar.diverged,
        votes,
    )


def test_e13_recovery_latency_vs_queue_depth(benchmark):
    def scenario():
        return {depth: run_depth(depth, seed=21) for depth in MISSED_DEPTHS}

    table = once(benchmark, scenario)
    rows = []
    for depth, (latency, transfer, window, recovered, votes) in table.items():
        rows.append(
            [
                depth,
                f"{latency * 1e3:.1f}",
                f"{transfer:,}",
                f"{window:,}",
                "recovered" if recovered else "FAILED",
                "yes" if votes else "NO",
            ]
        )
    print_table(
        "E13 — readmission + queue state transfer vs missed traffic (f=1)",
        ["missed invocations", "rejoin latency (ms)", "transfer bytes",
         "recovery-window wire bytes", "outcome", "votes with majority"],
        rows,
    )
    # Every depth recovers and rejoins the voting majority.
    for depth in MISSED_DEPTHS:
        latency, transfer, window, recovered, votes = table[depth]
        assert recovered, f"depth {depth}: recovery failed"
        assert votes, f"depth {depth}: readmitted element not voting"
    # The bounded-queue claim: missing 16x more traffic must not inflate
    # the state transfer by anything close to 16x (peers drained their
    # queues, so the snapshot stays small regardless of history length).
    smallest = table[MISSED_DEPTHS[0]][1]
    largest = table[MISSED_DEPTHS[-1]][1]
    assert largest < 4 * smallest, (smallest, largest)
    # One fetch round suffices at every depth: latency stays flat (within
    # a small factor), far from scaling with D.
    lat_small = table[MISSED_DEPTHS[0]][0]
    lat_large = table[MISSED_DEPTHS[-1]][0]
    assert lat_large < 4 * max(lat_small, 1e-9), (lat_small, lat_large)
    benchmark.extra_info["rejoin_latency_s"] = {
        str(d): table[d][0] for d in MISSED_DEPTHS
    }
    benchmark.extra_info["transfer_bytes"] = {
        str(d): table[d][1] for d in MISSED_DEPTHS
    }
    benchmark.extra_info["window_bytes"] = {
        str(d): table[d][2] for d in MISSED_DEPTHS
    }
