"""E10 — §4/§5: the price of intrusion tolerance, and where it goes.

"Once we fully implement ITDOS, we will analyze the performance tradeoffs
required for given levels of intrusion tolerance." — the analysis the paper
deferred, run here: end-to-end cost of ITDOS vs the unreplicated IIOP
baseline, scaling with message size ("Transferring large objects poses
another obstacle to efficient performance", §4), and the per-mechanism
ablation (signing, encryption, threshold keys) in real CPU time.
"""

import random
import time

from benchmarks.conftest import once, print_table
from repro.crypto.dprf import combine_verified, dprf_setup
from repro.crypto.groups import SIM_GROUP
from repro.crypto.rsa import generate_rsa_keypair, verify
from repro.crypto.signing import HmacAuthenticator
from repro.crypto.symmetric import NONCE_SIZE, SymmetricKey, decrypt, encrypt
from repro.orb.core import Orb
from repro.orb.iiop import IiopClient, IiopServer
from repro.sim import FixedLatency, Network, NetworkConfig
from repro.workloads.scenarios import (
    KvStoreServant,
    build_kv_system,
    standard_repository,
)

SIZES = [64, 1024, 16384]
CALLS = 6


def run_itdos(value_size: int):
    system = build_kv_system(f=1, seed=60, checkpoint_interval=32)
    client = system.add_client("driver")
    stub = client.stub(system.ref("kv", b"kv"))
    stub.put("warm", "x")
    before = system.network.stats.snapshot()
    latencies = []
    payload = "v" * value_size
    for i in range(CALLS):
        start = system.network.now
        stub.put(f"key-{i}", payload)
        latencies.append(system.network.now - start)
    delta = before.delta(system.network.stats)
    return (
        sum(latencies) / len(latencies),
        delta.messages_sent / CALLS,
        delta.bytes_sent / CALLS,
    )


def run_iiop(value_size: int):
    network = Network(NetworkConfig(seed=60, latency=FixedLatency(0.001)))
    repo = standard_repository()
    server_orb = Orb(repo)
    server_orb.adapter.activate(b"kv", KvStoreServant())
    server = IiopServer("server", server_orb)
    network.add_process(server)
    client = IiopClient("client", Orb(repo))
    network.add_process(client)
    stub = client.stub(server.ref_for(b"kv"))
    stub.put("warm", "x")
    before = network.stats.snapshot()
    latencies = []
    payload = "v" * value_size
    for i in range(CALLS):
        start = network.now
        stub.put(f"key-{i}", payload)
        latencies.append(network.now - start)
    delta = before.delta(network.stats)
    return (
        sum(latencies) / len(latencies),
        delta.messages_sent / CALLS,
        delta.bytes_sent / CALLS,
    )


def test_e10_cost_of_intrusion_tolerance(benchmark):
    def scenario():
        return {
            size: {"itdos": run_itdos(size), "iiop": run_iiop(size)}
            for size in SIZES
        }

    table = once(benchmark, scenario)
    rows = []
    for size in SIZES:
        it_lat, it_msgs, it_bytes = table[size]["itdos"]
        ii_lat, ii_msgs, ii_bytes = table[size]["iiop"]
        rows.append(
            [
                f"{size:,} B",
                f"{ii_lat * 1000:.2f} / {it_lat * 1000:.2f}",
                f"{it_lat / ii_lat:.1f}x",
                f"{ii_msgs:.0f} / {it_msgs:.0f}",
                f"{ii_bytes:,.0f} / {it_bytes:,.0f}",
            ]
        )
    print_table(
        "E10a — plain IIOP vs ITDOS (f=1), per invocation",
        ["payload", "latency ms (IIOP/ITDOS)", "slowdown",
         "messages (IIOP/ITDOS)", "bytes (IIOP/ITDOS)"],
        rows,
    )
    for size in SIZES:
        it_lat = table[size]["itdos"][0]
        ii_lat = table[size]["iiop"][0]
        # ITDOS pays for ordering + voting: slower, but bounded overhead.
        assert 1.5 < it_lat / ii_lat < 40
        # and vastly more messages (the quadratic ordering).
        assert table[size]["itdos"][1] > 5 * table[size]["iiop"][1]

    # E10b: where the CPU goes — per-mechanism microbenchmarks.
    rng = random.Random(0)
    keypair = generate_rsa_keypair(512, rng)
    hmac = HmacAuthenticator.bootstrap(["a", "b"], seed=0)["a"]
    key = SymmetricKey(material=bytes(32))
    mech_rows = []
    for size in SIZES:
        blob = bytes(size)
        timings = {}
        for name, fn in [
            ("RSA-512 sign", lambda: keypair.sign(blob)),
            ("RSA-512 verify", lambda: verify(keypair.public, blob, keypair.sign(blob))),
            ("HMAC authenticator", lambda: hmac.mac_for("b", blob)),
            ("encrypt+decrypt", lambda: decrypt(key, encrypt(key, blob, bytes(NONCE_SIZE)))),
        ]:
            start = time.perf_counter()
            iterations = 20
            for _ in range(iterations):
                fn()
            timings[name] = (time.perf_counter() - start) / iterations * 1e6
        mech_rows.append(
            [f"{size:,} B"] + [f"{timings[n]:,.0f}" for n in (
                "RSA-512 sign", "RSA-512 verify", "HMAC authenticator", "encrypt+decrypt"
            )]
        )
    print_table(
        "E10b — mechanism cost (µs per operation, wall clock)",
        ["payload", "RSA sign", "RSA sign+verify", "HMAC", "encrypt+decrypt"],
        mech_rows,
    )

    # The DPRF key path (§3.5) at the simulations' group: a GM element's share
    # with its proof, a participant's check of one share against a nonce it
    # has hashed already, and the f+1 interpolation of checked shares.
    public, holders = dprf_setup(SIM_GROUP, n=4, f=1, rng=random.Random(0))
    nonce = b"e10b-nonce"
    point = public.hash_input(nonce)
    shares = [holder.evaluate(nonce) for holder in holders[:2]]
    key_rows = []
    for name, fn in [
        ("share evaluation", lambda: holders[0].evaluate(nonce)),
        ("share check", lambda: public.check_share(point, shares[0])),
        ("f+1 interpolation", lambda: combine_verified(public, nonce, shares)),
    ]:
        start = time.perf_counter()
        iterations = 20
        for _ in range(iterations):
            fn()
        key_rows.append([name, f"{(time.perf_counter() - start) / iterations * 1e6:,.0f}"])
    print_table(
        "E10b — DPRF key path, SIM_GROUP, f = 1 (µs per operation, wall clock)",
        ["operation", "µs"],
        key_rows,
    )
    assert all(public.check_share(point, share) for share in shares)

    # Signing dwarfs MACs (why Castro-Liskov moved to authenticators, and
    # why §4 worries about signing multi-gigabyte objects).
    benchmark.extra_info["slowdown"] = {
        str(size): table[size]["itdos"][0] / table[size]["iiop"][0] for size in SIZES
    }
