"""Canonical interfaces, servants, and deployments for benchmarks/examples.

These are the workloads the paper's introduction motivates: mission-critical
services (a bank with an audit ledger), data fusion over heterogeneous
sensors (the inexact-voting case), plus a key-value store whose value size
is the knob for the state-synchronisation experiment (E4).
"""

from __future__ import annotations

from typing import Any

from repro.giop.idl import InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.typecodes import (
    TC_DOUBLE,
    TC_LONG,
    TC_STRING,
    TC_VOID,
    SequenceType,
    StructType,
)
from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.sharding import TXN_COORDINATOR, ShardMap, ShardRouter
from repro.orb.errors import UserException
from repro.orb.servant import Servant

# -- interfaces -------------------------------------------------------------------

CALCULATOR = InterfaceDef(
    "Calculator",
    (
        Operation("add", (Parameter("a", TC_DOUBLE), Parameter("b", TC_DOUBLE)), TC_DOUBLE),
        Operation("divide", (Parameter("a", TC_DOUBLE), Parameter("b", TC_DOUBLE)), TC_DOUBLE),
        Operation(
            "mean", (Parameter("xs", SequenceType(TC_DOUBLE)),), TC_DOUBLE,
            read_only=True,
        ),
        Operation("store", (Parameter("v", TC_DOUBLE),), TC_VOID),
        Operation("history", (), SequenceType(TC_DOUBLE), read_only=True),
    ),
)

LEDGER = InterfaceDef(
    "Ledger",
    (
        Operation("record", (Parameter("entry", TC_STRING),), TC_LONG),
        Operation("count", (), TC_LONG, read_only=True),
    ),
)

BANK = InterfaceDef(
    "Bank",
    (
        Operation(
            "deposit",
            (Parameter("account", TC_STRING), Parameter("amount", TC_DOUBLE)),
            TC_DOUBLE,
        ),
        Operation(
            "withdraw",
            (Parameter("account", TC_STRING), Parameter("amount", TC_DOUBLE)),
            TC_DOUBLE,
        ),
        Operation(
            "balance", (Parameter("account", TC_STRING),), TC_DOUBLE, read_only=True
        ),
        Operation(
            "audited_deposit",
            (Parameter("account", TC_STRING), Parameter("amount", TC_DOUBLE)),
            TC_DOUBLE,
        ),
    ),
)

READING = StructType(
    "Reading", (("value", TC_DOUBLE), ("weight", TC_DOUBLE))
)

SENSOR_FUSION = InterfaceDef(
    "SensorFusion",
    (
        Operation("fuse", (Parameter("readings", SequenceType(READING)),), TC_DOUBLE),
        Operation("estimate", (), TC_DOUBLE, read_only=True),
        Operation("rounds", (), TC_LONG, read_only=True),
    ),
)

KVSTORE = InterfaceDef(
    "KvStore",
    (
        Operation("put", (Parameter("key", TC_STRING), Parameter("value", TC_STRING)), TC_VOID),
        Operation("get", (Parameter("key", TC_STRING),), TC_STRING, read_only=True),
        Operation("size", (), TC_LONG, read_only=True),
    ),
)


SHARD_KV = InterfaceDef(
    "ShardKv",
    (
        Operation("put", (Parameter("key", TC_STRING), Parameter("value", TC_STRING)), TC_VOID),
        Operation("get", (Parameter("key", TC_STRING),), TC_STRING, read_only=True),
        Operation("size", (), TC_LONG, read_only=True),
        # BFT cross-shard commit (E20): the 2PC records the coordinator
        # domain writes into this shard's ordering.
        Operation(
            "prepare",
            (
                Parameter("txn", TC_STRING),
                Parameter("keys", SequenceType(TC_STRING)),
                Parameter("values", SequenceType(TC_STRING)),
            ),
            TC_LONG,
        ),
        Operation("commit", (Parameter("txn", TC_STRING),), TC_LONG),
        Operation("abort", (Parameter("txn", TC_STRING),), TC_LONG),
        Operation("decision", (Parameter("txn", TC_STRING),), TC_STRING, read_only=True),
    ),
)


def standard_repository() -> InterfaceRepository:
    repo = InterfaceRepository()
    for interface in (
        CALCULATOR,
        LEDGER,
        BANK,
        SENSOR_FUSION,
        KVSTORE,
        SHARD_KV,
        TXN_COORDINATOR,
    ):
        repo.register(interface)
    return repo


# -- servants ----------------------------------------------------------------------


class CalculatorServant(Servant):
    interface = CALCULATOR

    def __init__(self) -> None:
        self._history: list[float] = []

    def add(self, a: float, b: float) -> float:
        return a + b

    def divide(self, a: float, b: float) -> float:
        if b == 0:
            raise UserException("IDL:demo/DivideByZero:1.0", "denominator was zero")
        return a / b

    def mean(self, xs: list[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    def store(self, v: float) -> None:
        self._history.append(v)

    def history(self) -> list[float]:
        return list(self._history)


class LedgerServant(Servant):
    interface = LEDGER

    def __init__(self) -> None:
        self.entries: list[str] = []

    def record(self, entry: str) -> int:
        self.entries.append(entry)
        return len(self.entries)

    def count(self) -> int:
        return len(self.entries)


class BankServant(Servant):
    """Bank whose audited deposits nest an invocation to the audit ledger."""

    interface = BANK

    def __init__(self, element: Any = None, ledger_ref: Any = None) -> None:
        self.balances: dict[str, float] = {}
        self._element = element
        self._ledger_ref = ledger_ref

    def deposit(self, account: str, amount: float) -> float:
        self.balances[account] = self.balances.get(account, 0.0) + amount
        return self.balances[account]

    def withdraw(self, account: str, amount: float) -> float:
        balance = self.balances.get(account, 0.0)
        if amount > balance:
            raise UserException(
                "IDL:demo/InsufficientFunds:1.0",
                f"balance {balance} < withdrawal {amount}",
            )
        self.balances[account] = balance - amount
        return self.balances[account]

    def balance(self, account: str) -> float:
        return self.balances.get(account, 0.0)

    def audited_deposit(self, account: str, amount: float):
        if self._element is None or self._ledger_ref is None:
            raise UserException("IDL:demo/NoLedger:1.0", "bank deployed without ledger")
        ledger = self._element.stub(self._ledger_ref)
        yield ledger.record(f"deposit {account} {amount}")
        self.balances[account] = self.balances.get(account, 0.0) + amount
        return self.balances[account]


class SensorFusionServant(Servant):
    """Weighted fusion of float readings — the inexact-values workload."""

    interface = SENSOR_FUSION

    def __init__(self) -> None:
        self._estimate = 0.0
        self._rounds = 0

    def fuse(self, readings: list[dict[str, float]]) -> float:
        if not readings:
            return self._estimate
        total_weight = sum(r["weight"] for r in readings)
        fused = sum(r["value"] * r["weight"] for r in readings) / total_weight
        # Exponentially weighted running estimate: plenty of float churn.
        self._rounds += 1
        alpha = 2.0 / (self._rounds + 1.0)
        self._estimate = alpha * fused + (1.0 - alpha) * self._estimate
        return self._estimate

    def estimate(self) -> float:
        return self._estimate

    def rounds(self) -> int:
        return self._rounds


class KvStoreServant(Servant):
    """A store whose total state size is controlled by the workload (E4)."""

    interface = KVSTORE

    def __init__(self) -> None:
        self.data: dict[str, str] = {}

    def put(self, key: str, value: str) -> None:
        self.data[key] = value

    def get(self, key: str) -> str:
        return self.data.get(key, "")

    def size(self) -> int:
        return len(self.data)

    # Catch-up ships the store with the queue position it belongs to, and
    # object-mode checkpoints (the Castro–Liskov baseline in experiment E4)
    # carry it.
    def get_state(self) -> dict[str, str]:
        return dict(self.data)

    def set_state(self, state: dict[str, str]) -> None:
        if not isinstance(state, dict) or not all(
            isinstance(value, str) for value in state.values()
        ):
            raise TypeError("KV state maps keys to str values")
        self.data = dict(state)


class ShardKvServant(KvStoreServant):
    """KV participant in the BFT cross-shard commit (E20).

    ``prepare`` stages a transaction's writes for this shard's partition
    (voting no deterministically on any ``!``-prefixed key — the poison
    hook tests and chaos use to force aborts); ``commit``/``abort`` apply
    or drop the staged writes and record the decision. All three arrive
    through the shard's BFT ordering from the coordinator *domain*, so the
    participant-side request voting has already screened out records a
    Byzantine coordinator minority forged.
    """

    interface = SHARD_KV

    def __init__(self) -> None:
        super().__init__()
        self.pending: dict[str, list[tuple[str, str]]] = {}
        #: txn -> "commit" | "abort" — the chaos atomicity oracle reads this.
        self.txn_decisions: dict[str, str] = {}

    def prepare(self, txn: str, keys: list[str], values: list[str]) -> int:
        if txn in self.txn_decisions:
            return 0  # torn-prepare replay of an already-decided transaction
        if any(key.startswith("!") for key in keys):
            return 0
        self.pending[txn] = list(zip(keys, values))
        return 1

    def commit(self, txn: str) -> int:
        staged = self.pending.pop(txn, None)
        if staged is None:
            return 0  # commit without a live prepare: refuse, change nothing
        for key, value in staged:
            self.data[key] = value
        self.txn_decisions[txn] = "commit"
        return 1

    def abort(self, txn: str) -> int:
        self.pending.pop(txn, None)
        self.txn_decisions[txn] = "abort"
        return 1

    def decision(self, txn: str) -> str:
        return self.txn_decisions.get(txn, "")

    # A recovered participant needs its peers' staged prepares and decisions
    # as well as their data: commits, and refusing torn prepares, use them.
    def get_state(self) -> dict[str, Any]:
        return {
            "data": dict(self.data),
            "pending": dict(self.pending),
            "txn_decisions": dict(self.txn_decisions),
        }

    def set_state(self, state: dict[str, Any]) -> None:
        pending = {
            txn: [(key, value) for key, value in writes]
            for txn, writes in dict(state["pending"]).items()
        }
        decisions = dict(state["txn_decisions"])
        super().set_state(state["data"])
        self.pending, self.txn_decisions = pending, decisions


# -- deployments --------------------------------------------------------------------


def build_calc_system(
    f: int = 1, seed: int = 0, heterogeneous: bool = True, **kwargs: Any
) -> ItdosSystem:
    """Replicated calculator behind the Group Manager."""
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=heterogeneous,
        **kwargs,
    )
    system.add_server_domain(
        "calc", f=f, servants=lambda element: {b"calc": CalculatorServant()}
    )
    return system


def build_bank_system(
    f: int = 1, seed: int = 0, heterogeneous: bool = True, **kwargs: Any
) -> ItdosSystem:
    """Bank domain nested on a ledger domain (replicated client case)."""
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=heterogeneous,
        **kwargs,
    )
    system.add_server_domain(
        "ledger", f=f, servants=lambda element: {b"ledger": LedgerServant()}
    )
    ledger_ref = system.ref("ledger", b"ledger")
    system.add_server_domain(
        "bank",
        f=f,
        servants=lambda element: {
            b"bank": BankServant(element=element, ledger_ref=ledger_ref)
        },
    )
    return system


def build_read_heavy_system(
    f: int = 1,
    seed: int = 0,
    readers: int = 2,
    read_fastpath: bool = True,
    **kwargs: Any,
) -> ItdosSystem:
    """KV domain tuned for the read fast path (E19): a non-voting read
    tier behind the core elements, tentative reads enabled at clients.

    Drive it with :func:`repro.workloads.generators.read_write_mix` —
    ``get``/``size`` ride the fast path, ``put`` goes through ordering.
    """
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=False,
        read_fastpath=read_fastpath,
        **kwargs,
    )
    system.add_server_domain(
        "kv",
        f=f,
        servants=lambda element: {b"kv": KvStoreServant()},
        readers=readers,
    )
    return system


def build_sharded_kv_system(
    shards: int = 2,
    f: int = 1,
    seed: int = 0,
    cross_shard: bool = True,
    **kwargs: Any,
) -> tuple[ItdosSystem, ShardMap]:
    """KV object space partitioned across ``shards`` replication domains (E20).

    Every shard domain hosts a :class:`ShardKvServant` and owns one key
    range of the hash space; with ``cross_shard=True`` (and more than one
    shard) a coordinator domain carries BFT atomic commit for multi-shard
    writes. Route traffic with :func:`router_for` — single-key operations
    go straight to the home shard, ``transact`` spans shards atomically.
    """
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=False,
        **kwargs,
    )
    shard_map = system.add_sharded_domain(
        "kv",
        shards=shards,
        f=f,
        servants=lambda element: {b"kv": ShardKvServant()},
        object_key=b"kv",
        cross_shard=cross_shard,
    )
    return system, shard_map


def router_for(
    system: ItdosSystem, client: Any, shard_map: ShardMap, object_key: bytes = b"kv"
) -> ShardRouter:
    """Client-side shard router bound to a simulated sharded system."""
    return ShardRouter.for_system(system, client, shard_map, object_key=object_key)


def build_kv_system(
    f: int = 1,
    seed: int = 0,
    state_mode: str = "queue",
    checkpoint_interval: int = 4,
    **kwargs: Any,
) -> ItdosSystem:
    """Key-value domain configured for one of the two state modes (E4).

    Object mode requires homogeneous platforms so that application state
    digests agree bit-for-bit in checkpoints.
    """
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=False,
        checkpoint_interval=checkpoint_interval,
        **kwargs,
    )
    system.add_server_domain(
        "kv",
        f=f,
        servants=lambda element: {b"kv": KvStoreServant()},
        state_mode=state_mode,
    )
    return system
