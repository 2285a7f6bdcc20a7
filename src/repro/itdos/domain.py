"""Replication domains and the system directory.

A *replication domain* is the paper's unit of replication: a set of
``3f+1`` element processes hosting identical CORBA objects, ordered by one
PBFT group (§2). The :class:`SystemDirectory` is the out-of-band
configuration every process is deployed with — domain membership, public
keys, the Group Manager's DPRF public parameters, pairwise keys, and the
interface repository. The paper's assumptions (§2.2) place exactly this
material under "authentication tokens ... adequately protected" and
"configuration inputs".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bft.config import BftConfig
from repro.crypto.dprf import DprfPublic
from repro.crypto.signing import KeyRing
from repro.giop.idl import InterfaceRepository
from repro.giop.platforms import HOMOGENEOUS, PlatformProfile
from repro.giop.typecodes import TypeCode
from repro.itdos.vvm import Comparator, compile_comparator
from repro.obs import NOOP_TELEMETRY, Telemetry


@dataclass(frozen=True)
class DomainInfo:
    """Static description of one replication domain."""

    domain_id: str
    element_ids: tuple[str, ...]
    f: int
    kind: str = "server"  # "server" | "gm"
    # Non-voting read-tier elements (Backup/Replica Directory Node pattern):
    # registered and fenced by the GM like core elements, fed the committed
    # payload stream, but excluded from all quorum arithmetic — n and the
    # BFT group are derived from ``element_ids`` alone, so adding readers
    # scales read capacity without growing the 3f+1 write quorum.
    read_only_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 3 * self.f + 1:
            raise ValueError(
                f"domain {self.domain_id}: need n >= 3f+1 (n={self.n}, f={self.f})"
            )
        if self.kind not in ("server", "gm"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if set(self.read_only_ids) & set(self.element_ids):
            raise ValueError(
                f"domain {self.domain_id}: read-only ids overlap core elements"
            )
        if self.read_only_ids and self.kind != "server":
            raise ValueError("only server domains can have a read tier")

    @property
    def n(self) -> int:
        return len(self.element_ids)

    @property
    def all_ids(self) -> tuple[str, ...]:
        """Core elements plus the read tier — everything the GM keys."""
        return self.element_ids + self.read_only_ids

    def bft_config(
        self,
        checkpoint_interval: int = 16,
        # The ITDOS default is deliberately generous relative to the client
        # retry timeout: a backup must give lost pre-prepares a chance to be
        # re-multicast (driven by client retransmission) before suspecting
        # the primary, or lossy links thrash the group through views.
        view_change_timeout: float = 2.0,
        client_retry_timeout: float = 0.5,
        batch_size: int = 1,
        batch_delay: float = 0.0,
        pipeline_window: int = 0,
    ) -> BftConfig:
        """The PBFT group backing this domain's ordering (§3.2: "the
        replication domain is the ordering group")."""
        return BftConfig(
            group_id=self.domain_id,
            replica_ids=self.element_ids,
            f=self.f,
            checkpoint_interval=checkpoint_interval,
            view_change_timeout=view_change_timeout,
            client_retry_timeout=client_retry_timeout,
            batch_size=batch_size,
            batch_delay=batch_delay,
            pipeline_window=pipeline_window,
        )


@dataclass
class SystemDirectory:
    """Shared deployment configuration (distributed out of band)."""

    repository: InterfaceRepository
    domains: dict[str, DomainInfo] = field(default_factory=dict)
    gm_domain_id: str = ""
    dprf_public: DprfPublic | None = None
    keyring: KeyRing = field(default_factory=KeyRing)
    # (gm_element_pid, participant_pid) -> 32-byte pairwise symmetric key.
    pairwise_keys: dict[tuple[str, str], bytes] = field(default_factory=dict)
    # (client_pid, element_pid) -> 32-byte read-reply MAC key (fast path).
    read_keys: dict[tuple[str, str], bytes] = field(default_factory=dict)
    platforms: dict[str, PlatformProfile] = field(default_factory=dict)
    # Inexact voting tolerances (§3.6 / [31]).
    vote_abs_tol: float = 1e-9
    vote_rel_tol: float = 1e-9
    checkpoint_interval: int = 16
    # Ordering-path batching knobs, applied uniformly to every domain's
    # PBFT group (all processes must derive identical configs). Defaults
    # reproduce the unbatched protocol.
    bft_batch_size: int = 1
    bft_batch_delay: float = 0.0
    bft_pipeline_window: int = 0
    # EXTENSION (§4 large objects): replies whose plaintext exceeds this
    # many bytes use digest voting + single body fetch (None disables).
    # Only float-free result types qualify (digests need exact values).
    large_reply_threshold: int | None = None
    # Read fast path (Castro–Liskov read-only optimization): read_only
    # operations execute tentatively at every element against its
    # last-committed state and the client accepts on 2f+1 matching
    # (watermark, value) replies, falling back to the ordered path on
    # timeout or divergence. Off by default — the ordered path is the
    # baseline and disabling must reproduce pre-fast-path traffic exactly.
    read_fastpath: bool = False
    read_timeout: float = 0.75
    # Deployment-wide observability; bootstrap swaps in a live Telemetry.
    telemetry: Telemetry = NOOP_TELEMETRY

    def add_domain(self, info: DomainInfo) -> DomainInfo:
        if info.domain_id in self.domains:
            raise ValueError(f"domain {info.domain_id!r} already registered")
        self.domains[info.domain_id] = info
        if info.kind == "gm":
            if self.gm_domain_id:
                raise ValueError("a system has exactly one Group Manager domain")
            self.gm_domain_id = info.domain_id
        return info

    def domain(self, domain_id: str) -> DomainInfo:
        try:
            return self.domains[domain_id]
        except KeyError:
            raise KeyError(f"unknown domain {domain_id!r}") from None

    def bft_config_for(self, domain_id: str) -> BftConfig:
        """The canonical BFT configuration for a domain — every process in
        the system (replicas and clients alike) must derive it identically."""
        return self.domain(domain_id).bft_config(
            checkpoint_interval=self.checkpoint_interval,
            batch_size=self.bft_batch_size,
            batch_delay=self.bft_batch_delay,
            pipeline_window=self.bft_pipeline_window,
        )

    @property
    def gm_domain(self) -> DomainInfo:
        return self.domain(self.gm_domain_id)

    def domain_of_element(self, pid: str) -> DomainInfo | None:
        for info in self.domains.values():
            if pid in info.element_ids:
                return info
        return None

    def platform_of(self, pid: str) -> PlatformProfile:
        return self.platforms.get(pid, HOMOGENEOUS)

    def pairwise_key(self, gm_element: str, participant: str) -> bytes:
        try:
            return self.pairwise_keys[(gm_element, participant)]
        except KeyError:
            raise KeyError(
                f"no pairwise key between {gm_element!r} and {participant!r}"
            ) from None

    def read_key(self, client: str, element: str) -> bytes | None:
        """The key one client shares with one core or read-tier element."""
        return self.read_keys.get((client, element))

    # -- voting comparators -----------------------------------------------------

    def _count_compile(self, kind: str) -> None:
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "vvm_comparators_compiled_total",
                "Value-voting comparators compiled",
                labels=("kind",),
            ).labels(kind=kind).inc()

    def reply_comparator(self, interface_name: str, operation: str) -> Comparator:
        """Comparator for reply values of one operation (inexact floats)."""
        self._count_compile("reply")
        op = self.repository.lookup(interface_name).operation(operation)
        return compile_comparator(op.result, self.vote_abs_tol, self.vote_rel_tol)

    def request_comparator(self, interface_name: str, operation: str) -> Comparator:
        """Comparator for the argument tuples of one operation."""
        self._count_compile("request")
        op = self.repository.lookup(interface_name).operation(operation)
        param_tcs: list[TypeCode] = [p.tc for p in op.params]
        comparators = [
            compile_comparator(tc, self.vote_abs_tol, self.vote_rel_tol)
            for tc in param_tcs
        ]

        def equal(a, b) -> bool:
            if not isinstance(a, (list, tuple)) or not isinstance(b, (list, tuple)):
                return False
            if len(a) != len(comparators) or len(b) != len(comparators):
                return False
            return all(c.equal(x, y) for c, x, y in zip(comparators, a, b))

        return Comparator(equal=equal)
