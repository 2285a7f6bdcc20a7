"""Topology files: the out-of-band configuration of a real deployment.

The paper assumes deployment-time configuration distributed out of band
(§2.2): domain membership, key material, addresses. For the wire backend
that is a TOML file every node reads at boot::

    [system]
    seed = 42          # ALL key material derives from this — every node
    f = 1              # must boot from the byte-identical topology file
    domain = "calc"
    workload = "calc"  # calc | kv
    clients = ["client-0"]
    readers = 0        # non-voting read-tier nodes (role "read-only", E19)
    read_fastpath = false  # allow tentative reads at the clients

    [net]
    host = "127.0.0.1"
    base_port = 42000

    [client]
    requests = 20
    read_fraction = 0.0    # share of client requests that are reads

    [faults]           # optional: a repro.chaos ChaosPlan, keys = its fields
    horizon = 3.0      # required; seconds after each node's own boot
    p_drop = 0.01
    p_duplicate = 0.02
    [[faults.partitions]]
    start = 0.5
    end = 1.5
    group_a = ["calc-e3"]

Every process constructs the *entire* :class:`ItdosSystem` from the same
seed in the same order, so RSA keypairs, GM pairwise keys, and DPRF shares
come out identical across OS processes — the simulator's bootstrap doubles
as the PKI ceremony. Each node then lifts only its own element onto the
wire; the rest of the in-memory deployment is inert scaffolding.

The ``[faults]`` table is parsed into a plan at load time, so a bad plan
fails at boot; each node's :class:`~repro.chaos.adversary.ChaosController`
(seeded with the topology seed) applies it at its world's ``adversary``
slot, the gate the simulator's chaos runs use.

Parsed with :mod:`tomllib` where available (Python >= 3.11); a small
built-in subset parser covers 3.10 so the CI matrix needs no new deps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

from repro.net.framing import DEFAULT_MAX_FRAME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.schedule import ChaosPlan


class TopologyError(ValueError):
    """A topology file is missing, malformed, or inconsistent."""


# -- TOML loading (tomllib >= 3.11, subset fallback for 3.10) ----------------


def _parse_value(text: str) -> Any:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        # Split on commas outside quotes (subset: no nested arrays).
        items, depth, quote, start = [], 0, None, 0
        for at, ch in enumerate(inner):
            if quote:
                if ch == quote:
                    quote = None
            elif ch in "\"'":
                quote = ch
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                items.append(inner[start:at])
                start = at + 1
        items.append(inner[start:])
        return [_parse_value(item) for item in items if item.strip()]
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise TopologyError(f"cannot parse TOML value {text!r}") from None


def _strip_comment(line: str) -> str:
    quote = None
    for at, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return line[:at]
    return line


def _toml_subset_loads(text: str) -> dict:
    """Minimal TOML reader: tables, arrays of tables, scalar/array values.

    Only what topology files use — Python 3.10 lacks ``tomllib`` and the
    container bakes no third-party parser.
    """
    root: dict[str, Any] = {}
    current = root
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            target = root
            parts = line[2:-2].strip().split(".")
            for part in parts[:-1]:
                target = target.setdefault(part, {})
            current = {}
            target.setdefault(parts[-1], []).append(current)
        elif line.startswith("[") and line.endswith("]"):
            target = root
            for part in line[1:-1].strip().split("."):
                target = target.setdefault(part, {})
            current = target
        elif "=" in line:
            key, _, value = line.partition("=")
            current[key.strip()] = _parse_value(value)
        else:
            raise TopologyError(f"cannot parse TOML line {raw!r}")
    return root


def load_toml(path: str) -> dict:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:
        tomllib = None
    with open(path, "rb") as handle:
        data = handle.read()
    if tomllib is not None:
        try:
            return tomllib.loads(data.decode("utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise TopologyError(f"{path}: {exc}") from exc
    return _toml_subset_loads(data.decode("utf-8"))


def parse_fault_plan(table: dict) -> ChaosPlan:
    """A topology's ``[faults]`` table as a :class:`ChaosPlan`: its keys are
    the plan's field names, partitions are ``[[faults.partitions]]``."""
    # Imported here: repro.chaos pulls in the bootstrap, which imports repro.net.
    from repro.chaos.schedule import ChaosPlan, PartitionWindow

    unknown = set(table) - {spec.name for spec in fields(ChaosPlan)}
    if unknown:
        raise TopologyError(f"unknown [faults] keys: {sorted(unknown)}")
    if "horizon" not in table:
        raise TopologyError("[faults] needs a horizon")
    spec = dict(table)
    try:
        spec["partitions"] = tuple(
            PartitionWindow(**{**window, "group_a": frozenset(window["group_a"])})
            for window in table.get("partitions", ())
        )
        for key in ("equivocators", "protect"):
            spec[key] = frozenset(table.get(key, ()))
        return ChaosPlan(**spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"bad [faults] plan: {exc}") from exc


# -- the topology ------------------------------------------------------------


@dataclass
class TopologyConfig:
    """One cluster deployment, shared byte-identically by every node."""

    seed: int = 0
    f: int = 1
    f_gm: int = 1
    domain: str = "calc"
    workload: str = "calc"
    clients: tuple[str, ...] = ("client-0",)
    host: str = "127.0.0.1"
    base_port: int = 42000
    requests: int = 20
    telemetry: bool = True
    max_frame_bytes: int = DEFAULT_MAX_FRAME
    queue_limit: int = 1024
    faults: ChaosPlan | None = None  # link faults on every node's wire
    # Read fast path (E19): number of non-voting read-tier nodes (role
    # "read-only"), whether clients may use tentative reads at all, and
    # what fraction of the client workload is reads (0.0 = all writes,
    # 0.9 = the 90/10 mix, 0.99 = the 99/1 mix).
    readers: int = 0
    read_fastpath: bool = False
    read_fraction: float = 0.0
    # Sharding (E20): partition the object space across this many
    # replication domains ("{domain}-s{i}"). shards = 1 is the unsharded
    # topology, byte-identical to a pre-sharding deployment. The wire
    # backend shards the kv workload's single-key traffic; cross-shard
    # transactions (the coordinator domain) are exercised in the simulator.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.f < 1 or self.f_gm < 1:
            raise TopologyError("f and f_gm must be >= 1")
        if self.workload not in ("calc", "kv"):
            raise TopologyError(f"unknown workload {self.workload!r}")
        if not self.clients:
            raise TopologyError("topology needs at least one client")
        if self.readers < 0:
            raise TopologyError("readers must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise TopologyError("read_fraction must be in [0, 1]")
        if self.shards < 1:
            raise TopologyError("shards must be >= 1")
        if self.shards > 1 and self.workload != "kv":
            raise TopologyError("sharded topologies require the kv workload")
        if self.shards > 1 and self.readers:
            raise TopologyError("sharded topologies do not take a read tier")
        self.clients = tuple(self.clients)

    # -- derived membership (must match ItdosSystem's naming exactly) -------

    @property
    def gm_ids(self) -> tuple[str, ...]:
        return tuple(f"gm-{i}" for i in range(3 * self.f_gm + 1))

    def shard_map(self):
        """The key → shard-domain layout every node and client agrees on."""
        from repro.itdos.sharding import ShardMap

        return ShardMap(self.domain, self.shards)

    @property
    def domain_ids(self) -> tuple[str, ...]:
        """Every shard replication domain (just ``domain`` when unsharded)."""
        if self.shards == 1:
            return (self.domain,)
        return tuple(f"{self.domain}-s{i}" for i in range(self.shards))

    def element_ids_of(self, domain_id: str) -> tuple[str, ...]:
        return tuple(f"{domain_id}-e{i}" for i in range(3 * self.f + 1))

    @property
    def element_ids(self) -> tuple[str, ...]:
        """All replica ids across every shard, in shard order."""
        return tuple(
            pid
            for domain_id in self.domain_ids
            for pid in self.element_ids_of(domain_id)
        )

    @property
    def read_only_ids(self) -> tuple[str, ...]:
        return tuple(f"{self.domain}-r{i}" for i in range(self.readers))

    @property
    def object_key(self) -> bytes:
        return b"calc" if self.workload == "calc" else b"kv"

    def node_ids(self) -> tuple[str, ...]:
        """Every OS process in the cluster, in canonical boot order."""
        return self.gm_ids + self.element_ids + self.read_only_ids + self.clients

    def role_of(self, node_id: str) -> str:
        if node_id in self.gm_ids:
            return "gm"
        if node_id in self.element_ids:
            return "replica"
        if node_id in self.read_only_ids:
            return "read-only"
        if node_id in self.clients:
            return "client"
        raise TopologyError(f"unknown node {node_id!r}")

    def address_book(self) -> dict[str, tuple[str, int]]:
        return {
            pid: (self.host, self.base_port + index)
            for index, pid in enumerate(self.node_ids())
        }

    def groups(self) -> dict[str, tuple[str, ...]]:
        """Multicast address map (same shape the sim's group registry has)."""
        out: dict[str, tuple[str, ...]] = {"gm": self.gm_ids}
        for domain_id in self.domain_ids:
            out[domain_id] = self.element_ids_of(domain_id)
        return out

    # -- deterministic deployment -------------------------------------------

    def build_system(self):
        """The full in-memory deployment every node derives its keys from.

        Construction order is the contract: GM domain, then the server
        domain, then clients in listed order — any deviation desynchronises
        the RNG stream and the cluster's key material stops matching.
        """
        from repro.itdos.bootstrap import ItdosSystem
        from repro.workloads.scenarios import (
            CalculatorServant,
            KvStoreServant,
            ShardKvServant,
            kv_state_hooks,
            standard_repository,
        )

        system = ItdosSystem(
            seed=self.seed,
            f_gm=self.f_gm,
            repository=standard_repository(),
            read_fastpath=self.read_fastpath,
        )
        if self.shards > 1:
            # Shard domains only: single-key traffic fans out per shard on
            # the wire; the cross-shard coordinator stays a simulator
            # concern, so no "{domain}-txc" processes exist out here.
            system.add_sharded_domain(
                self.domain,
                shards=self.shards,
                f=self.f,
                servants=lambda element: {b"kv": ShardKvServant()},
                object_key=b"kv",
                cross_shard=False,
            )
        elif self.workload == "kv":
            system.add_server_domain(
                self.domain,
                f=self.f,
                servants=lambda element: {b"kv": KvStoreServant()},
                readers=self.readers,
                **kv_state_hooks(),
            )
        else:
            system.add_server_domain(
                self.domain,
                f=self.f,
                servants=lambda element: {b"calc": CalculatorServant()},
                readers=self.readers,
            )
        for name in self.clients:
            system.add_client(name)
        return system

    # -- loading -------------------------------------------------------------

    @staticmethod
    def from_dict(spec: dict) -> "TopologyConfig":
        system = spec.get("system", {})
        net = spec.get("net", {})
        client = spec.get("client", {})
        clients = system.get("clients", ["client-0"])
        if isinstance(clients, str):
            clients = [clients]
        return TopologyConfig(
            seed=int(system.get("seed", 0)),
            f=int(system.get("f", 1)),
            f_gm=int(system.get("f_gm", 1)),
            domain=str(system.get("domain", "calc")),
            workload=str(system.get("workload", "calc")),
            clients=tuple(str(name) for name in clients),
            host=str(net.get("host", "127.0.0.1")),
            base_port=int(net.get("base_port", 42000)),
            requests=int(client.get("requests", 20)),
            telemetry=bool(net.get("telemetry", True)),
            max_frame_bytes=int(net.get("max_frame", DEFAULT_MAX_FRAME)),
            queue_limit=int(net.get("queue_limit", 1024)),
            faults=parse_fault_plan(spec["faults"]) if "faults" in spec else None,
            readers=int(system.get("readers", 0)),
            read_fastpath=bool(system.get("read_fastpath", False)),
            read_fraction=float(client.get("read_fraction", 0.0)),
            shards=int(system.get("shards", 1)),
        )

    @staticmethod
    def load(path: str) -> "TopologyConfig":
        return TopologyConfig.from_dict(load_toml(path))
