"""Two informational baselines beside the per-layer budget. Never bounded.

* :func:`plain_iiop` — ``Calculator.add`` through the unreplicated
  ``repro.baselines.plain_iiop`` on the simulator: the single-node floor
  under every voted invocation.
* :func:`launcher_cluster` — one 300-request ``run_wire_benchmark`` of the
  real nine-process ``repro serve`` cluster: what the deployable artifact
  does, in raw seconds, next to the in-process ``wire_null``.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from time import perf_counter

from bench.refkernel import timed_kernel, to_ref_us

IIOP_REQUESTS = 300
LAUNCHER_REQUESTS = 300


def plain_iiop(seed: int) -> float:
    """ref-us per ``add`` over plain IIOP (one server, no voting, no crypto)."""
    from repro.baselines.plain_iiop import IiopClient, IiopServer
    from repro.orb.core import Orb
    from repro.sim import FixedLatency, Network, NetworkConfig
    from repro.workloads.scenarios import CalculatorServant, standard_repository

    network = Network(NetworkConfig(seed=seed, latency=FixedLatency(0.001)))
    repository = standard_repository()
    server_orb = Orb(repository)
    server_orb.adapter.activate(b"calc", CalculatorServant())
    server = IiopServer("server", server_orb)
    network.add_process(server)
    client = IiopClient("client", Orb(repository))
    network.add_process(client)
    stub = client.stub(server.ref_for(b"calc"))
    rng = random.Random(seed)
    pairs = [(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(IIOP_REQUESTS + 20)]
    for a, b in pairs[:20]:
        stub.add(a, b)
    kernel = timed_kernel()
    started = perf_counter()
    for a, b in pairs[20:]:
        if stub.add(a, b) != a + b:
            raise AssertionError("plain IIOP returned a wrong sum")
    elapsed = perf_counter() - started
    kernel = (kernel + timed_kernel()) / 2
    return to_ref_us(elapsed / IIOP_REQUESTS, kernel)


def launcher_cluster(seed: int, scratch: str) -> tuple[float, float]:
    """(seconds until the nine processes are ready, raw us per request).

    ``scratch`` is a directory inside the checkout; the cluster's topology
    file, logs and breadcrumbs live in a temporary directory under it that
    is removed again. ``run_wire_benchmark`` stops and reaps every process.
    """
    from repro.net.bench import run_wire_benchmark

    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="launcher-", dir=scratch)
    try:
        report = run_wire_benchmark(
            requests=LAUNCHER_REQUESTS, seed=seed, work_dir=work_dir, telemetry=False
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if report["okay"] != LAUNCHER_REQUESTS or report["server_exit_codes"]:
        raise RuntimeError(f"launcher cluster run was not clean: {report}")
    return report["barrier_seconds"], 1e6 / report["requests_per_second"]
