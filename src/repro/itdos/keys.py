"""Communication-key lifecycle on the receiving side.

Each participant of a connection (the client and every server element)
receives one :class:`~repro.itdos.messages.GmShareEnvelope` per Group
Manager element, decrypts its share with the pairwise key, **verifies** the
share against the DPRF public parameters, and combines ``f_gm + 1`` valid
shares into the communication key (§3.5). Each share is checked once, against
a nonce hashed into the group once: the assembly reuses the point of a held
share under the same nonce, and a combined generation keeps the point of its
nonce for the stragglers, dropping it with the key. Rekeying after an expulsion
simply starts a new assembly under the next ``key_id``; old keys are kept
briefly for in-flight traffic, then dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.crypto.dprf import DprfPublic, KeyShare, combine_verified
from repro.crypto.encoding import parse_canonical
from repro.crypto.symmetric import AuthenticationError, SymmetricKey, decrypt
from repro.itdos.domain import SystemDirectory
from repro.itdos.messages import GmShareEnvelope, key_share_from_dict
from repro.obs.telemetry import NOOP_TELEMETRY


class _HeldShare(NamedTuple):
    """One GM element's verified share, under what that element *said*."""

    nonce: bytes
    point: int  # the nonce hashed into the group
    claims: tuple  # the connection metadata its envelope carried
    share: KeyShare
    epoch: int
    fence_floor: int


@dataclass
class PendingKeyAssembly:
    """Shares collected so far for one (connection, key generation)."""

    conn_id: int
    key_id: int
    # share.index -> the first verified share of each GM element. A share
    # verifies against any nonce its holder cares to evaluate, so one share
    # vouches for nothing: the key combines from the first ``(nonce,
    # claims)`` that ``f_gm + 1`` elements agree on, which at most ``f_gm``
    # liars can never make a false one. One slot per element bounds the
    # assembly however many statements a liar tries.
    held: dict[int, _HeldShare] = field(default_factory=dict)
    # Membership epoch and fence floor of the combined generation: the
    # MINIMUM over the contributing shares, so a single faulty GM can only
    # delay epoch fencing (safe), never trigger it early to lock honest
    # traffic out.
    epoch: int = 0
    fence_floor: int = 0
    # GM elements whose shares failed verification — "the client and server
    # replication domain elements ... can verify which Group Manager
    # replication domain elements acted correctly" (§3.5).
    invalid_from: list[str] = field(default_factory=list)
    # Parallel to ``invalid_from``: why each share was flagged. A "verify"
    # failure is individually attributable (the share fails the public DPRF
    # parameters on its own) and the share is discarded; a "nonce" mismatch
    # is only relative to the first-seen nonce, so it never convicts by
    # itself and the share still counts toward its own statement.
    invalid_reasons: list[str] = field(default_factory=list)

    def _flag(self, gm_element: str, reason: str) -> None:
        self.invalid_from.append(gm_element)
        self.invalid_reasons.append(reason)

    def add(
        self,
        public: DprfPublic,
        gm_element: str,
        nonce: bytes,
        share: KeyShare,
        epoch: int = 0,
        fence_floor: int = 0,
        claims: tuple = (),
    ) -> SymmetricKey | None:
        """Add one share; returns the combined key once ``f_gm + 1`` verified
        shares agree on ``(nonce, claims)`` — the one just added among them."""
        if share.index in self.held:
            return None
        point = next((h.point for h in self.held.values() if h.nonce == nonce), None)
        if point is None:
            point = public.hash_input(nonce)
        if not public.check_share(point, share):
            self._flag(gm_element, "verify")
            return None
        if self.held and nonce != next(iter(self.held.values())).nonce:
            self._flag(gm_element, "nonce")
        self.held[share.index] = _HeldShare(
            nonce, point, claims, share, epoch, fence_floor
        )
        agreeing = [
            h for h in self.held.values() if (h.nonce, h.claims) == (nonce, claims)
        ]
        if len(agreeing) < public.threshold:
            return None
        self.epoch = min(h.epoch for h in agreeing)
        self.fence_floor = min(h.fence_floor for h in agreeing)
        return combine_verified(
            public, nonce, [h.share for h in agreeing], key_id=self.key_id
        )


@dataclass
class ConnectionKeys:
    """All key generations known for one connection."""

    # How many superseded generations stay usable for in-flight traffic.
    # Expelling f faulty elements can trigger f back-to-back rekeys while a
    # request is outstanding, so the window must exceed any plausible f;
    # beyond it, old generations are gone (a rekeyed-out element must not
    # be able to catch up, §3.5).
    RETAINED_GENERATIONS = 8

    conn_id: int
    keys: dict[int, SymmetricKey] = field(default_factory=dict)
    current_key_id: int = -1
    # Membership-epoch fence (recovery subsystem): the Group Manager ships
    # a ``fence_floor`` with each generation — the oldest membership epoch
    # still acceptable. Generations issued under an older epoch are dropped
    # immediately, regardless of the generation-count window above. The GM
    # raises the floor only on *readmission* (and fresh-keys refresh), to
    # one epoch behind the rotation: plain expulsions — which can come f
    # back-to-back while a request is in flight — keep earlier generations
    # decryptable, while a readmission fences every key the expelled
    # element ever held.
    current_epoch: int = 0
    fence_floor: int = 0
    epoch_of: dict[int, int] = field(default_factory=dict)
    # key_id -> (nonce, point) the generation was combined under, kept as long
    # as its key so a straggling share under that nonce is not hashed again.
    inputs: dict[int, tuple[bytes, int]] = field(default_factory=dict)
    # Why the most recent install() returned False ("" after a success);
    # read by the owning KeyStore's evidence hook.
    last_reject: str = ""

    def install(self, key: SymmetricKey, epoch: int = 0, fence_floor: int = 0) -> bool:
        """Install one generation; returns False when the key is rejected.

        The epoch and fence-floor announcements are adopted monotonically
        *before* deciding installability: a delayed or reordered generation
        still carries authenticated (f_gm+1-share) membership information,
        but its key material must not resurface once either the generation
        retention window or the epoch fence has moved past it.
        """
        if epoch > self.current_epoch:
            self.current_epoch = epoch
        if fence_floor > self.fence_floor:
            self.fence_floor = fence_floor
            # Purge immediately: the fence announcement is authenticated on
            # its own, so held generations from fenced-off epochs must go
            # even when the carrying key is itself rejected below.
            self._purge_fenced()
        if epoch < self.fence_floor:
            # Issued under a fenced-off membership epoch (a reordered
            # announcement from before a readmission): refuse outright.
            self.last_reject = "fenced"
            return False
        if key.key_id < self.current_key_id - self.RETAINED_GENERATIONS:
            # Aged past the retention window — a rekeyed-out element must
            # not be able to catch up via a late delivery (§3.5).
            self.last_reject = "aged"
            return False
        self.last_reject = ""
        self.keys[key.key_id] = key
        self.epoch_of[key.key_id] = epoch
        if key.key_id > self.current_key_id:
            self.current_key_id = key.key_id
            for old in [
                k for k in self.keys if k < key.key_id - self.RETAINED_GENERATIONS
            ]:
                del self.keys[old]
                self.epoch_of.pop(old, None)
                self.inputs.pop(old, None)
        if self.fence_floor > 0:
            self._purge_fenced()
        if key.key_id not in self.keys:
            self.last_reject = "fenced"
            return False
        return True

    def _purge_fenced(self) -> None:
        for old in [
            k for k, e in self.epoch_of.items() if e < self.fence_floor
        ]:
            self.keys.pop(old, None)
            self.inputs.pop(old, None)
            del self.epoch_of[old]

    def current(self) -> SymmetricKey | None:
        return self.keys.get(self.current_key_id)

    def point_for(self, key_id: int, nonce: bytes) -> int | None:
        """The stored point of ``nonce`` if generation ``key_id`` was
        combined under it; any other nonce is not stored."""
        held = self.inputs.get(key_id)
        return held[1] if held is not None and held[0] == nonce else None

    def get(self, key_id: int) -> SymmetricKey | None:
        return self.keys.get(key_id)


class KeyStore:
    """Per-process store of connection keys and in-progress assemblies."""

    def __init__(self, public: DprfPublic) -> None:
        self.public = public
        self.connections: dict[int, ConnectionKeys] = {}
        self._pending: dict[tuple[int, int], PendingKeyAssembly] = {}
        # (conn_id, key_id) -> callbacks to fire when that key installs.
        self._waiters: dict[tuple[int, int], list[Callable[[SymmetricKey], None]]] = {}
        self.invalid_share_events: list[tuple[str, int, int]] = []  # (gm, conn, key)
        # Late-bound telemetry: the store is built before its owning process
        # joins a network, so the owner rebinds these once it has a facade.
        self.telemetry_provider: Callable[[], object] = lambda: NOOP_TELEMETRY
        self.owner_pid = ""

    def _evidence(
        self, kind: str, accused: str, hard: bool, detail: str, evidence: dict
    ) -> None:
        t = self.telemetry_provider()
        if getattr(t, "enabled", False):
            t.evidence(
                kind,
                accused=accused,
                reporter=self.owner_pid,
                hard=hard,
                detail=detail,
                evidence=evidence,
            )

    def offer_envelope(
        self, envelope: GmShareEnvelope, directory: SystemDirectory
    ) -> SymmetricKey | None:
        """Figure 3 steps 2–3, either side: open one GM element's envelope
        with our pairwise key and feed its share. A returned key means
        ``f_gm + 1`` elements whose envelopes authenticated and whose shares
        verified agree with *this* envelope's connection metadata — only then
        may the caller act on any of it. A corrupt envelope is dropped."""
        try:
            pairwise = SymmetricKey(
                material=directory.pairwise_key(envelope.gm_element, self.owner_pid)
            )
            nonce, share = key_share_from_dict(
                parse_canonical(decrypt(pairwise, envelope.ciphertext))
            )
        except (AuthenticationError, ValueError, KeyError):
            return None
        return self.offer_share(
            envelope.gm_element,
            envelope.conn_id,
            envelope.key_id,
            nonce,
            share,
            epoch=envelope.epoch,
            fence_floor=envelope.fence_floor,
            claims=(
                envelope.client,
                envelope.client_kind,
                envelope.client_domain,
                envelope.target_domain,
            ),
        )

    def offer_share(
        self,
        gm_element: str,
        conn_id: int,
        key_id: int,
        nonce: bytes,
        share: KeyShare,
        epoch: int = 0,
        fence_floor: int = 0,
        claims: tuple = (),
    ) -> SymmetricKey | None:
        """Feed one decrypted share; returns the key if it just completed —
        i.e. if this share is one of ``f_gm + 1`` verified ones that agree on
        the nonce and on ``claims`` (:class:`PendingKeyAssembly`)."""
        existing = self.connections.get(conn_id)
        if existing is not None and existing.get(key_id) is not None:
            # Already assembled — but still verify the late share, so that
            # "the client and server replication domain elements ... can
            # verify which Group Manager replication domain elements acted
            # correctly" (§3.5) even for stragglers.
            point = existing.point_for(key_id, nonce)
            if point is None:
                point = self.public.hash_input(nonce)
            if not self.public.check_share(point, share):
                self.invalid_share_events.append((gm_element, conn_id, key_id))
                self._invalid_share(gm_element, conn_id, key_id, "verify", nonce, share)
            return None
        pending = self._pending.setdefault(
            (conn_id, key_id), PendingKeyAssembly(conn_id=conn_id, key_id=key_id)
        )
        before_invalid = len(pending.invalid_from)
        key = pending.add(
            self.public, gm_element, nonce, share, epoch=epoch,
            fence_floor=fence_floor, claims=claims,
        )
        if len(pending.invalid_from) > before_invalid:
            self.invalid_share_events.append((gm_element, conn_id, key_id))
            self._invalid_share(
                gm_element, conn_id, key_id, pending.invalid_reasons[-1], nonce, share
            )
        if key is None:
            return None
        del self._pending[(conn_id, key_id)]
        if not self.install(
            key, conn_id, epoch=pending.epoch, fence_floor=pending.fence_floor
        ):
            return None
        # The share just offered completed the key: its point is the generation's.
        self.connections[conn_id].inputs[key_id] = (nonce, pending.held[share.index].point)
        return key

    def _invalid_share(
        self,
        gm_element: str,
        conn_id: int,
        key_id: int,
        reason: str,
        nonce: bytes,
        share: KeyShare,
    ) -> None:
        """One DPRF share failed its check after authenticated decryption.

        The share reached us through pairwise authenticated encryption, so
        ``gm_element`` provably produced it — a *verify* failure is hard
        evidence against that element. A *nonce* mismatch only proves
        disagreement with the first-seen nonce, so it stays soft.
        """
        self._evidence(
            "invalid-share",
            accused=gm_element,
            hard=reason == "verify",
            detail=f"conn={conn_id} key={key_id} reason={reason}",
            evidence={
                "conn_id": conn_id,
                "key_id": key_id,
                "nonce": nonce,
                "share_index": share.index,
            },
        )

    def install(
        self, key: SymmetricKey, conn_id: int, epoch: int = 0, fence_floor: int = 0
    ) -> bool:
        keys = self.connections.setdefault(conn_id, ConnectionKeys(conn_id=conn_id))
        if not keys.install(key, epoch=epoch, fence_floor=fence_floor):
            # Fenced or aged out: parked callbacks must not receive a key
            # the store itself refuses to hold.
            self._waiters.pop((conn_id, key.key_id), None)
            # Not attributable to any one element (the generation was
            # assembled from f_gm+1 shares), but the violation itself is
            # audit-worthy: a fenced key resurfacing is exactly what the
            # recovery subsystem exists to stop.
            self._evidence(
                "fence-violation",
                accused=f"conn:{conn_id}",
                hard=False,
                detail=f"key={key.key_id} reason={keys.last_reject}",
                evidence={
                    "conn_id": conn_id,
                    "key_id": key.key_id,
                    "epoch": epoch,
                    "fence_floor": keys.fence_floor,
                },
            )
            return False
        for callback in self._waiters.pop((conn_id, key.key_id), []):
            callback(key)
        # Waiters for generations we just aged out will never fire; drop
        # them so a rekey storm cannot accumulate parked callbacks.
        horizon = key.key_id - ConnectionKeys.RETAINED_GENERATIONS
        for stale in [
            (c, k) for (c, k) in self._waiters if c == conn_id and k < horizon
        ]:
            del self._waiters[stale]
        return True

    def when_key(
        self, conn_id: int, key_id: int, callback: Callable[[SymmetricKey], None]
    ) -> None:
        """Run ``callback`` once the given key generation is installed."""
        existing = self.connections.get(conn_id)
        if existing is not None:
            key = existing.get(key_id)
            if key is not None:
                callback(key)
                return
        self._waiters.setdefault((conn_id, key_id), []).append(callback)

    def current_key(self, conn_id: int) -> SymmetricKey | None:
        keys = self.connections.get(conn_id)
        return keys.current() if keys else None

    def current_epoch(self, conn_id: int) -> int:
        keys = self.connections.get(conn_id)
        return keys.current_epoch if keys else 0

    def key_for(self, conn_id: int, key_id: int) -> SymmetricKey | None:
        keys = self.connections.get(conn_id)
        return keys.get(key_id) if keys else None
