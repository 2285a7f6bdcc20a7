"""The six named workloads: deployment, request stream, expected replies.

Every workload is a closed loop (an ITDOS connection permits one
outstanding request, §3.6, and callers wait for the voted reply) at f = 1,
f_gm = 1, on the default "paper" profile: batch 1, window 0,
``protocol_auth="none"``, ``rsa_bits=256``, checkpoint interval 16 —
unless the workload's own line says otherwise. ``protocol_auth`` stays
``"none"`` because ``"hmac"`` fails under concurrent clients; see
``bench/tests/test_known_gaps.py``.

Requests come from ``random.Random(seed)`` only, and each carries the
value the reply must equal, taken from a model of the servant kept here.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.net.config import TopologyConfig
from repro.workloads.generators import read_write_mix
from repro.workloads.scenarios import build_kv_system, build_read_heavy_system

from bench.clusters import SimCluster, WireCluster

#: One request: (operation, args, the value the voted reply must match).
Op = tuple[str, tuple, Any]
#: One slice: for each client, the requests it issues back to back.
Plan = list[list[Op]]

#: Requests every set-up issues (and checks) before anything is timed, so
#: connections are keyed, codecs compiled and caches filled.
WARMUP_REQUESTS = 50
PAYLOAD_CHARS = 16 * 1024
KEYS = 32


def reply_matches(value: Any, expected: Any) -> bool:
    """Is ``value`` the reply the model expects?

    Replicas run on heterogeneous platform profiles whose doubles differ in
    the low mantissa bits, and the voter hands back whichever agreeing copy
    arrived first — on the wire that varies from run to run. So a double is
    right when it is within the deployment's voting tolerance (the
    ``ItdosSystem`` defaults, 1e-9 relative and absolute); everything else
    must be equal.
    """
    if isinstance(expected, float):
        return isinstance(value, float) and math.isclose(
            value, expected, rel_tol=1e-9, abs_tol=1e-9
        )
    return value == expected


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> a built, not yet settled, cluster
    build: Callable[[int], Any]
    #: (rng, model) -> endless iterator of slices, each a whole number of
    #: checkpoint intervals' worth of ordered requests, so slices cost
    #: alike. ``model`` is the KvStore content the stream has written so
    #: far; every replica must hold exactly it when the run ends.
    slices: Callable[[random.Random, dict], Iterator[Plan]]


# -- deployments -----------------------------------------------------------------


def _topology(seed: int, workload: str) -> TopologyConfig:
    return TopologyConfig(
        seed=seed, workload=workload, domain=workload, telemetry=False
    )


def _sim_topology(workload: str) -> Callable[[int], SimCluster]:
    """The deployment ``repro serve`` would boot, left on the simulator —
    so a sim workload and its wire twin do identical protocol work."""

    def build(seed: int) -> SimCluster:
        config = _topology(seed, workload)
        return SimCluster(config.build_system(), config.domain, config.object_key, 1)

    return build


def _wire_topology(workload: str) -> Callable[[int], WireCluster]:
    def build(seed: int) -> WireCluster:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        return WireCluster(_topology(seed, workload), loop)

    return build


def _build_readmix(seed: int) -> SimCluster:
    system = build_read_heavy_system(f=1, seed=seed, readers=2, read_fastpath=True)
    return SimCluster(system, "kv", b"kv", 1)


BATCHED_CLIENTS = 8


def _build_batched(seed: int) -> SimCluster:
    system = build_kv_system(
        f=1,
        seed=seed,
        checkpoint_interval=16,
        bft_batch_size=8,
        bft_batch_delay=0.002,
        bft_pipeline_window=4,
    )
    return SimCluster(system, "kv", b"kv", BATCHED_CLIENTS)


# -- request streams -------------------------------------------------------------


def _null_slices(rng: random.Random, model: dict) -> Iterator[Plan]:
    while True:
        ops = []
        for _ in range(32):
            a, b = rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)
            ops.append(("add", (a, b), a + b))
        yield [ops]


def _payload_slices(rng: random.Random, model: dict) -> Iterator[Plan]:
    while True:
        ops = []
        for _ in range(8):
            key = f"k{rng.randrange(KEYS):02d}"
            value = model[key] = rng.randbytes(PAYLOAD_CHARS // 2).hex()
            ops.append(("put", (key, value), None))
            ops.append(("get", (key,), value))
        yield [ops]


def _readmix_slices(rng: random.Random, model: dict) -> Iterator[Plan]:
    """Exactly 90/10 within every slice of 40, order from the seed.

    The first slice (always inside the warm-up) writes every key once, so
    no later read returns the shorter never-written value and slices stay
    alike in bytes.
    """
    version = KEYS
    for index in range(KEYS):
        model[f"k{index:02d}"] = f"v{index + 1:08d}"
    yield [
        [("put", (key, value), None) for key, value in model.items()]
        + [("get", (key,), model[key]) for key in list(model)[: 40 - KEYS]]
    ]
    while True:
        ops = []
        for kind in read_write_mix(rng, 40, 0.9):
            key = f"k{rng.randrange(KEYS):02d}"
            if kind == "read":
                ops.append(("get", (key,), model.get(key, "")))
            else:
                version += 1
                model[key] = f"v{version:08d}"
                ops.append(("put", (key, model[key]), None))
        yield [ops]


def _batched_slices(rng: random.Random, model: dict) -> Iterator[Plan]:
    version = 0
    while True:
        plan = []
        for client in range(BATCHED_CLIENTS):
            ops = []
            for _ in range(16):
                version += 1
                key = f"c{client}-k{rng.randrange(KEYS):02d}"
                model[key] = f"v{version:08d}"
                ops.append(("put", (key, model[key]), None))
            plan.append(ops)
        yield plan


#: Why each one is here is its ``why`` line in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim_null", _sim_topology("calc"), _null_slices),
        Workload("sim_payload16k", _sim_topology("kv"), _payload_slices),
        Workload("sim_readmix", _build_readmix, _readmix_slices),
        Workload("sim_batched", _build_batched, _batched_slices),
        Workload("wire_null", _wire_topology("calc"), _null_slices),
        Workload("wire_payload16k", _wire_topology("kv"), _payload_slices),
    )
}


def warmup_plans(slices: Iterator[Plan]) -> list[Plan]:
    """Whole slices off the front of the stream, at least
    :data:`WARMUP_REQUESTS` requests of them."""
    plans: list[Plan] = []
    while sum(len(ops) for plan in plans for ops in plan) < WARMUP_REQUESTS:
        plans.append(next(slices))
    return plans
