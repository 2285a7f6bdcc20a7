"""E4 — §3.1/§5: message-queue state sync scales independently of object size.

"ITDOS improves scalability independent of the number of objects by using a
message queue to synchronize replica state, as opposed to state transfer
techniques." — and §3.1: "Object state synchronization could create
performance problems, and create scalability issues."

Measured: checkpoint snapshot size and the bytes a recovering (partitioned)
element pulls over the wire, as the application's object state grows, under

* ``object`` mode — the Castro–Liskov baseline (full-state checkpoints), and
* ``queue`` mode — the paper's design (bounded queue view: no checkpoint
  can rebuild a queue, so a lagging element goes diverged and fetches its
  peers' queue image in one catch-up round — it catches up or it is
  expelled, §3.1).
"""

import random

from benchmarks.conftest import once, print_table
from repro.workloads.generators import random_strings
from repro.workloads.scenarios import build_kv_system

STATE_SIZES = [1_000, 10_000, 50_000]  # approximate bytes of servant state


def run_mode(mode: str, state_bytes: int, seed: int):
    """Returns (snapshot_size, recovery_bytes, recovered?)."""
    value_size = 100
    entries = max(1, state_bytes // value_size)
    system = build_kv_system(state_mode=mode, seed=seed, checkpoint_interval=4)
    client = system.add_client("driver")
    stub = client.stub(system.ref("kv", b"kv"))
    values = random_strings(random.Random(seed), entries, length=value_size)
    # Phase 1: build up the object state with everyone healthy.
    for i, value in enumerate(values):
        stub.put(f"key-{i}", value)
    system.settle(1.0)
    element = system.domain_elements("kv")[3]
    snapshot_size = len(element._snapshot())
    # Phase 2: partition one element, generate traffic past a checkpoint,
    # then heal and measure what recovery costs on the wire.
    others = {e.pid for e in system.domain_elements("kv")[:3]}
    system.network.partition({element.pid}, others)
    for i in range(8):
        stub.put(f"post-{i}", "x" * value_size)
    system.network.heal()
    before = system.network.stats.snapshot()
    for i in range(8):
        stub.put(f"post2-{i}", "x" * value_size)
    system.settle(4.0)
    delta = before.delta(system.network.stats)
    servant = element.orb.adapter.servant_for(b"kv")
    recovered = not element.diverged and servant.size() >= entries + 8
    return snapshot_size, delta.bytes_sent, recovered


def test_e4_state_synchronisation(benchmark):
    def scenario():
        table = {}
        for mode in ("object", "queue"):
            for state_bytes in STATE_SIZES:
                table[(mode, state_bytes)] = run_mode(mode, state_bytes, seed=9)
        return table

    table = once(benchmark, scenario)
    rows = []
    for (mode, state_bytes), (snap, wire, recovered) in table.items():
        rows.append(
            [
                mode,
                f"{state_bytes:,}",
                f"{snap:,}",
                f"{wire:,}",
                "recovered" if recovered else "diverged",
            ]
        )
    print_table(
        "E4 — state sync cost vs application state size (f=1, ckpt every 4)",
        ["mode", "object state (B)", "checkpoint snapshot (B)",
         "wire bytes during recovery window", "lagging element outcome"],
        rows,
    )
    # Shape: object-mode snapshots grow with the state...
    object_snaps = [table[("object", s)][0] for s in STATE_SIZES]
    assert object_snaps[-1] > 10 * object_snaps[0]
    # ...queue-mode snapshots do not.
    queue_snaps = [table[("queue", s)][0] for s in STATE_SIZES]
    assert max(queue_snaps) - min(queue_snaps) < 128
    assert max(queue_snaps) < object_snaps[0]
    # Both modes bring the laggard back: object mode by restoring a
    # checkpoint, queue mode by adopting its peers' queue image.
    for s in STATE_SIZES:
        assert table[("object", s)][2] is True
        assert table[("queue", s)][2] is True
    # The recovery window costs about the same in both modes: a queue image
    # carries the servant state at its processed position, as an object-mode
    # checkpoint does (voting on that state instead is ROADMAP item 6).
    big = STATE_SIZES[-1]
    assert abs(table[("object", big)][1] - table[("queue", big)][1]) < 0.05 * table[("object", big)][1]
    benchmark.extra_info["object_snapshot_bytes"] = object_snaps
    benchmark.extra_info["queue_snapshot_bytes"] = queue_snaps
