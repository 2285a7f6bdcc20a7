"""System bootstrap: assemble a full ITDOS deployment on one simulator.

Deployment-time material (domain membership, RSA keypairs, GM pairwise
keys, DPRF shares, read keys) is generated here — this is the paper's
out-of-band configuration and PKI (§2.2). Typical use::

    system = ItdosSystem(seed=1)
    system.add_server_domain(
        "calc", f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
    )
    client = system.add_client("alice")
    ref = system.ref("calc", b"calc")
    stub = client.stub(ref)
    stub.add(2.0, 3.0)      # runs the simulation until the voted reply
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable

from repro.crypto.dprf import dprf_setup
from repro.crypto.groups import SIM_GROUP, DlGroup
from repro.crypto.rsa import generate_rsa_keypair
from repro.crypto.signing import RsaSigner
from repro.giop.idl import InterfaceRepository
from repro.giop.ior import ObjectRef
from repro.giop.platforms import (
    PlatformProfile,
    assign_heterogeneous,
    assign_homogeneous,
)
from repro.itdos.client import ItdosClient
from repro.itdos.domain import DomainInfo, SystemDirectory
from repro.itdos.element import QueueElement
from repro.itdos.group_manager import GroupManagerElement
from repro.itdos.readtier import ReadOnlyElement
from repro.itdos.replica import ItdosServerElement
from repro.orb.core import Orb
from repro.orb.servant import Servant
from repro.sim import FixedLatency, Network, NetworkConfig
from repro.sim.latency import LatencyModel

ServantFactory = Callable[[QueueElement], dict[bytes, Servant]]


class ItdosSystem:
    """A complete simulated ITDOS deployment."""

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel | None = None,
        f_gm: int = 1,
        repository: InterfaceRepository | None = None,
        group: DlGroup = SIM_GROUP,
        rsa_bits: int = 256,
        checkpoint_interval: int = 16,
        heterogeneous: bool = True,
        large_reply_threshold: int | None = None,
        rekey_interval: float | None = None,
        protocol_auth: str = "none",
        telemetry: bool = False,
        bft_batch_size: int = 1,
        bft_batch_delay: float = 0.0,
        bft_pipeline_window: int = 0,
        read_fastpath: bool = False,
    ) -> None:
        if protocol_auth not in ("none", "hmac"):
            raise ValueError(f"unsupported protocol_auth {protocol_auth!r}")
        self.network = Network(
            NetworkConfig(seed=seed, latency=latency or FixedLatency(0.001))
        )
        if telemetry:
            self.network.enable_telemetry()
        self.rng = random.Random(seed ^ 0x17D05)
        # Own stream: no ``self.rng`` draw moves with the read fast path.
        self.read_key_rng = random.Random(seed ^ 0x4EAD)
        self.rsa_bits = rsa_bits
        self.heterogeneous = heterogeneous
        # Replica-to-replica BFT message authentication: "none" trusts the
        # simulator's honest source addressing; "hmac" uses Castro–Liskov
        # style pairwise authenticator vectors within each domain.
        self.protocol_auth = protocol_auth
        self.directory = SystemDirectory(
            repository=repository or InterfaceRepository(),
            checkpoint_interval=checkpoint_interval,
            large_reply_threshold=large_reply_threshold,
            telemetry=self.network.telemetry,
            bft_batch_size=bft_batch_size,
            bft_batch_delay=bft_batch_delay,
            bft_pipeline_window=bft_pipeline_window,
            read_fastpath=read_fastpath,
        )
        self.clients: dict[str, ItdosClient] = {}
        # Every server-domain process by pid, read tier included.
        self.elements: dict[str, ItdosServerElement | ReadOnlyElement] = {}
        self.gm_elements: list[GroupManagerElement] = []
        # -- Group Manager domain -------------------------------------------
        n_gm = 3 * f_gm + 1
        gm_ids = tuple(f"gm-{i}" for i in range(n_gm))
        gm_info = DomainInfo(domain_id="gm", element_ids=gm_ids, f=f_gm, kind="gm")
        self.directory.add_domain(gm_info)
        public, holders = dprf_setup(group, n=n_gm, f=f_gm, rng=self.rng)
        self.directory.dprf_public = public
        group_addr = self.network.create_group(gm_info.domain_id)
        gm_auth = self._domain_auth(list(gm_ids))
        for pid, holder in zip(gm_ids, holders):
            element = GroupManagerElement(
                pid,
                self.directory,
                holder,
                coin_rng_seed=self.rng.randrange(2**63),
                rekey_interval=rekey_interval,
                auth=gm_auth(pid),
            )
            self.network.add_process(element)
            group_addr.join(pid)
            self.gm_elements.append(element)
        for element in self.gm_elements:
            # Kick the coin-toss bootstrap once the whole group is wired.
            self.network.scheduler.schedule(0.0, element.start)

    def _domain_auth(self, element_ids: list[str]):
        """Per-element BFT message-auth factory for one domain."""
        if self.protocol_auth == "none":
            return lambda pid: None
        from repro.bft.auth import HmacAuth
        from repro.crypto.signing import HmacAuthenticator

        authenticators = HmacAuthenticator.bootstrap(
            element_ids, seed=self.rng.randrange(2**63)
        )
        return lambda pid: HmacAuth(authenticators[pid])

    # -- registration helpers ------------------------------------------------

    def _register_pairwise(self, pid: str) -> None:
        for gm_pid in self.directory.gm_domain.element_ids:
            key = (gm_pid, pid)
            if key not in self.directory.pairwise_keys:
                self.directory.pairwise_keys[key] = self.rng.randbytes(32)

    def _register_read_keys(self, clients, elements) -> None:
        """One read-reply MAC key per (client, server element) pair."""
        if self.directory.read_fastpath:
            for pair in itertools.product(clients, elements):
                self.directory.read_keys[pair] = self.read_key_rng.randbytes(32)

    def _make_signer(self, pid: str) -> RsaSigner:
        keypair = generate_rsa_keypair(self.rsa_bits, self.rng)
        self.directory.keyring.register(pid, keypair.public)
        return RsaSigner(pid, keypair)

    # -- building blocks --------------------------------------------------------

    def add_server_domain(
        self,
        domain_id: str,
        f: int,
        servants: ServantFactory,
        n: int | None = None,
        platforms: list[PlatformProfile] | None = None,
        state_mode: str = "queue",
        byzantine: dict[int, type[ItdosServerElement]] | None = None,
        queue_max_bytes: int = 1 << 22,
        readers: int = 0,
        reader_class: type[ReadOnlyElement] | None = None,
    ) -> list[ItdosServerElement]:
        """Create a replicated server: ``n >= 3f+1`` elements (default 3f+1).

        ``servants`` is called once per element to build that element's own
        servant instances — each element hosts the same objects (§3.4), but
        as separate (possibly differently-implemented) instances: that is
        the heterogeneous-implementation story.

        ``readers`` adds that many non-voting read-tier elements
        (:class:`~repro.itdos.readtier.ReadOnlyElement`): same servants,
        fed from the committed stream, serving only the tentative read
        fast path, excluded from all quorum arithmetic. With ``readers=0``
        (the default) construction is byte-for-byte what it was before the
        read tier existed — no extra RNG draws, no extra processes.
        """
        count = n if n is not None else 3 * f + 1
        element_ids = tuple(f"{domain_id}-e{i}" for i in range(count))
        read_only_ids = tuple(f"{domain_id}-r{i}" for i in range(readers))
        info = DomainInfo(
            domain_id=domain_id,
            element_ids=element_ids,
            f=f,
            read_only_ids=read_only_ids,
        )
        self.directory.add_domain(info)
        if platforms is None:
            platforms = (
                assign_heterogeneous(count)
                if self.heterogeneous
                else assign_homogeneous(count)
            )
        group_addr = self.network.create_group(domain_id)
        byzantine = byzantine or {}
        domain_auth = self._domain_auth(list(element_ids))

        def build(pid: str, platform: PlatformProfile, cls: type, **kwargs: Any):
            self.directory.platforms[pid] = platform
            self._register_pairwise(pid)
            self._register_read_keys(self.clients, [pid])
            signer = self._make_signer(pid)
            orb = Orb(self.directory.repository, platform=platform)
            orb.telemetry = self.network.telemetry
            element = cls(
                pid, self.directory, domain_id, orb, signer,
                queue_max_bytes=queue_max_bytes, **kwargs,
            )
            for object_key, servant in servants(element).items():
                orb.adapter.activate(object_key, servant)
            self.network.add_process(element)
            self.elements[pid] = element
            return element

        created = []
        for index, pid in enumerate(element_ids):
            element = build(
                pid, platforms[index], byzantine.get(index, ItdosServerElement),
                state_mode=state_mode, auth=domain_auth(pid),
            )
            group_addr.join(pid)
            created.append(element)
        # Read tier last: the core elements' RNG draws (pairwise keys,
        # signers) stay identical whether or not readers are configured.
        # Deliberately NOT joined to the domain's multicast group: a reader
        # takes no part in ordering.
        reader_platforms = (
            assign_heterogeneous(count + readers)[count:]
            if self.heterogeneous
            else assign_homogeneous(readers)
        )
        for pid, platform in zip(read_only_ids, reader_platforms):
            build(pid, platform, reader_class or ReadOnlyElement)
        return created

    def add_sharded_domain(
        self,
        base: str,
        shards: int,
        f: int,
        servants: ServantFactory,
        object_key: bytes = b"kv",
        cross_shard: bool = True,
        **kwargs: Any,
    ) -> "ShardMap":
        """Partition one object space across ``shards`` replication domains.

        Each shard ``{base}-s{i}`` is an ordinary server domain holding only
        its partition's message-queue state (selective replication, E20);
        ``servants``/``kwargs`` are applied to every shard. With
        ``cross_shard=True`` a coordinator domain ``{base}-txc`` hosting a
        :class:`~repro.itdos.sharding.TxnCoordinatorServant` is built last,
        carrying Zhao-style BFT atomic commit across shards via nested
        invocation.

        ``shards=1`` delegates straight to :meth:`add_server_domain` under
        the unsuffixed ``base`` id — no coordinator, no extra RNG draws —
        so a one-shard build is byte-identical to a pre-sharding build.
        """
        from repro.itdos.sharding import (
            COORDINATOR_OBJECT_KEY,
            ShardMap,
            TxnCoordinatorServant,
        )

        shard_map = ShardMap(base, shards)
        if shards == 1:
            self.add_server_domain(base, f=f, servants=servants, **kwargs)
            return shard_map
        for domain_id in shard_map.domain_ids:
            self.add_server_domain(domain_id, f=f, servants=servants, **kwargs)
        if cross_shard:
            refs = {
                domain_id: self.ref(domain_id, object_key)
                for domain_id in shard_map.domain_ids
            }
            self.add_server_domain(
                shard_map.coordinator_id,
                f=f,
                servants=lambda element: {
                    COORDINATOR_OBJECT_KEY: TxnCoordinatorServant(
                        element, shard_map, refs
                    )
                },
            )
        return shard_map

    def add_client(self, name: str, platform: PlatformProfile | None = None) -> ItdosClient:
        if platform is not None:
            self.directory.platforms[name] = platform
        self._register_pairwise(name)
        self._register_read_keys([name], self.elements)
        client = ItdosClient(name, self.directory)
        client.orb.telemetry = self.network.telemetry
        self.network.add_process(client)
        self.clients[name] = client
        return client

    # -- conveniences --------------------------------------------------------------

    def ref(self, domain_id: str, object_key: bytes) -> ObjectRef:
        """An object reference to a replicated object."""
        info = self.directory.domain(domain_id)
        element = self.elements[info.element_ids[0]]
        return element.orb.adapter.make_ref(object_key, domain_id=domain_id)

    def domain_elements(self, domain_id: str) -> list[ItdosServerElement]:
        info = self.directory.domain(domain_id)
        return [self.elements[pid] for pid in info.element_ids]

    def read_tier(self, domain_id: str) -> list[ReadOnlyElement]:
        """The domain's non-voting read-only elements (may be empty)."""
        info = self.directory.domain(domain_id)
        return [self.elements[pid] for pid in info.read_only_ids]

    def enable_proactive_recovery(
        self, domain_id: str, period: float = 5.0, downtime: float = 0.05
    ):
        """Round-robin ``domain_id``'s elements through restart → rejoin →
        state transfer every ``period`` simulated seconds (repro.recovery).

        Bounds an undetected intruder's dwell time: each rotation wipes the
        element's volatile state and forces a ``fresh_keys`` rejoin, so the
        membership key epoch advances and pre-restart connection keys die.
        Returns the started :class:`ProactiveRecoveryScheduler`.
        """
        from repro.recovery.proactive import ProactiveRecoveryScheduler

        scheduler = ProactiveRecoveryScheduler(
            self.network,
            self.domain_elements(domain_id),
            period=period,
            downtime=downtime,
        )
        scheduler.start()
        return scheduler

    def settle(self, duration: float = 2.0, max_events: int = 2_000_000) -> None:
        """Run the simulation forward (e.g. to finish the GM bootstrap)."""
        self.network.run(until=self.network.now + duration, max_events=max_events)

    def run_until(self, predicate: Callable[[], bool], max_events: int = 2_000_000) -> None:
        self.network.run(stop_when=predicate, max_events=max_events)

    @property
    def telemetry(self):
        """The deployment-wide Telemetry (a no-op unless enabled)."""
        return self.network.telemetry

    def summary(self) -> dict[str, Any]:
        """Operational snapshot of the whole deployment.

        Used by examples and dashboards: per-domain execution/view status,
        Group Manager verdict counters, and network traffic totals.
        """
        domains = {}
        for domain_id, info in self.directory.domains.items():
            if info.kind == "gm":
                continue
            elements = [self.elements[pid] for pid in info.element_ids]
            domains[domain_id] = {
                "n": info.n,
                "f": info.f,
                "dispatched": [len(e.dispatched) for e in elements],
                "views": [e.view for e in elements],
                "diverged": [e.pid for e in elements if e.diverged],
                "crashed": [e.pid for e in elements if e.crashed],
            }
        gm = self.gm_elements[0]
        return {
            "time": self.network.now,
            "domains": domains,
            "group_manager": {
                "phase": gm.state.phase,
                "connections": len(gm.state.connections),
                "expelled": sorted(gm.state.expelled),
                "readmitted": list(gm.readmissions),
                "denied_change_requests": gm.denied_change_requests,
                "keys_issued": len(gm.keys_issued),
            },
            "network": {
                "messages_sent": self.network.stats.messages_sent,
                "messages_dropped": self.network.stats.messages_dropped,
                "bytes_sent": self.network.stats.bytes_sent,
                "multicast_addresses": self.network.multicast_addresses_allocated,
            },
        }
