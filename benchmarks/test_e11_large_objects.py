"""E11 (extension) — §4: moving large objects efficiently.

"Transferring large objects poses another obstacle to efficient
performance. ... we must find an efficient way of moving larger messages
through the system with confidentiality, authentication, and integrity."

The implemented answer: digest voting — replicas send 32-byte value digests
(signed, encrypted); the client votes digests and fetches the body once,
verifying it against the voted digest. Measured: wire bytes and latency per
fetch of an object of growing size, full-body voting vs digest voting, and
integrity under a lying replica.
"""

from benchmarks.conftest import once, print_table
from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.faults import LyingElement
from repro.workloads.scenarios import KvStoreServant, standard_repository

SIZES = [2_000, 20_000, 200_000]
THRESHOLD = 1024


def measure(threshold, size, seed=77, byzantine=None):
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        large_reply_threshold=threshold,
    )
    system.add_server_domain(
        "kv",
        f=1,
        servants=lambda element: {b"kv": KvStoreServant()},
        byzantine=byzantine or {},
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    payload = "x" * size
    stub.put("obj", payload)
    before = system.network.stats.snapshot()
    start = system.network.now
    result = stub.get("obj")
    assert result == payload
    delta = before.delta(system.network.stats)
    return delta.bytes_sent, (system.network.now - start) * 1000


def test_e11_large_object_digest_voting(benchmark):
    def scenario():
        table = {}
        for size in SIZES:
            table[size] = {
                "full": measure(None, size),
                "digest": measure(THRESHOLD, size),
            }
        return table

    table = once(benchmark, scenario)
    rows = []
    for size in SIZES:
        full_bytes, full_ms = table[size]["full"]
        digest_bytes, digest_ms = table[size]["digest"]
        rows.append(
            [
                f"{size:,} B",
                f"{full_bytes:,}",
                f"{digest_bytes:,}",
                f"{full_bytes / digest_bytes:.1f}x",
                f"{full_ms:.1f} / {digest_ms:.1f}",
            ]
        )
    print_table(
        "E11 — fetching one large object (f=1, n=4), per invocation",
        ["object size", "full-body voting (B)", "digest voting (B)",
         "bandwidth saved", "latency ms (full/digest)"],
        rows,
    )
    # Shape: savings grow with object size, approaching the n-replies-to-
    # one-body ratio; the largest object must save at least 2x.
    savings = [
        table[size]["full"][0] / table[size]["digest"][0] for size in SIZES
    ]
    assert savings[-1] > 2.0
    assert savings[-1] >= savings[0]

    # Integrity: a lying element cannot corrupt the digest-voted object.
    digest_bytes, _ = measure(THRESHOLD, 20_000, byzantine={1: LyingElement})
    print_table(
        "E11b — digest voting under one lying element",
        ["object", "delivered correctly", "wire bytes"],
        [["20,000 B", True, f"{digest_bytes:,}"]],
    )
    benchmark.extra_info["savings"] = {str(s): sv for s, sv in zip(SIZES, savings)}
