"""The Group Manager replication domain.

"The Group Manager handles replication domain membership and virtual
connection management in ITDOS. The Group Manager consists of a replication
domain of Group Manager processes" (§2) — but its elements are *not* CORBA
servers: connection management is transport-level. Each
:class:`GroupManagerElement` is therefore a PBFT replica whose application
is the (deterministic) connection-management state machine, plus per-element
cryptographic side effects:

* **distributed randomness bootstrap** — commit/reveal coin tossing, ordered
  through the GM's own BFT group, seeds every element's PRNG identically
  (§3.5: "a distributed random number generation process to initialize ...
  the pseudo-random number generators of each Group Manager replication
  domain element"). The reveal phase closes at the f+1-th valid reveal, so
  a committer that withholds its reveal stalls no one; a faulty GM primary
  can only choose which f+1 reveals count (see :mod:`repro.crypto.coin`);
* **connection establishment** (Figure 3) — an ordered ``open_request``
  assigns a connection id and a fresh PRF nonce; each element then evaluates
  its *own* DPRF share on that common nonce and sends it, encrypted under
  its pairwise key, to the client (step 3) and every target element (step 2);
* **expulsion** (§3.6) — an ordered ``change_request`` is judged: a
  singleton's request must carry proof (signed replies) that the GM re-votes
  on unmarshalled data using its standalone marshalling engine; a domain's
  request needs ``f+1`` matching copies instead. A confirmed fault rekeys
  every communication group containing the accused element, excluding it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.bft.client import BftClientEngine
from repro.bft.messages import BftReply
from repro.bft.replica import BftReplica
from repro.crypto.coin import combine_reveals, make_coin_pair, reveal_matches
from repro.crypto.digests import digest
from repro.crypto.dprf import DprfShareholder
from repro.crypto.encoding import canonical_bytes, parse_canonical
from repro.crypto.prng import DeterministicPrng
from repro.crypto.symmetric import SymmetricKey, encrypt
from repro.giop.messages import ReplyMessage, decode_message
from repro.itdos.domain import SystemDirectory
from repro.itdos.messages import (
    ChangeRequest,
    CoinMessage,
    GmShareEnvelope,
    OpenRequest,
    PayloadError,
    RekeyTick,
    key_share_to_dict,
    parse_payload,
)
from repro.itdos.vvm import majority_vote
from repro.recovery.messages import RejoinPetition


@dataclass
class ConnectionRecord:
    """Replicated bookkeeping for one virtual connection."""

    conn_id: int
    client: str
    client_kind: str  # "singleton" | "domain"
    client_domain: str
    target_domain: str
    key_id: int = 0


@dataclass
class _GmState:
    """The deterministic replicated state of the Group Manager."""

    phase: str = "commit"  # "commit" -> "reveal" -> "ready"
    coin_commits: dict[str, bytes] = field(default_factory=dict)
    coin_reveals: dict[str, bytes] = field(default_factory=dict)
    next_conn_id: int = 0
    connections: dict[int, ConnectionRecord] = field(default_factory=dict)
    conn_by_pair: dict[tuple[str, str], int] = field(default_factory=dict)
    # (requester_domain, target) -> requesters seen, for f+1 domain opens.
    pending_domain_opens: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    # (accused tuple, domain) -> requesters seen, for f+1 domain changes.
    pending_domain_changes: dict[tuple[tuple[str, ...], str], set[str]] = field(
        default_factory=dict
    )
    expelled: set[str] = field(default_factory=set)
    queued_opens: list[OpenRequest] = field(default_factory=list)
    completed_rekey_epochs: set[int] = field(default_factory=set)
    # Membership key epoch (repro.recovery): bumped on every membership
    # change — expulsion *and* (re)admission — never on periodic rekey
    # ticks. Share envelopes carry it plus the fence floor: the oldest
    # epoch receivers may keep. The floor rises only on readmission and
    # fresh-keys refresh (killing a formerly compromised element's keys);
    # plain expulsions leave it alone so that f back-to-back expulsion
    # rekeys cannot strand in-flight traffic.
    key_epoch: int = 0
    fence_floor: int = 0
    # Highest rejoin-petition nonce accepted per element (replay guard).
    rejoin_nonces: dict[str, int] = field(default_factory=dict)


class GroupManagerElement(BftReplica):
    """One element of the Group Manager replication domain."""

    def __init__(
        self,
        pid: str,
        directory: SystemDirectory,
        shareholder: DprfShareholder,
        coin_rng_seed: int,
        rekey_interval: float | None = None,
        **bft_kwargs: Any,
    ) -> None:
        gm_info = directory.gm_domain
        config = gm_info.bft_config(checkpoint_interval=directory.checkpoint_interval)
        super().__init__(pid, config, **bft_kwargs)
        self.directory = directory
        self.shareholder = shareholder
        self.gm_info = gm_info
        self.state = _GmState()
        self.prng: DeterministicPrng | None = None
        # Engine through which this element submits coin messages into its
        # own group's ordering.
        self.self_engine = BftClientEngine(self, config)
        self._coin_rng = random.Random(coin_rng_seed)
        self._coin_value: bytes | None = None
        self._coin_submitted = False
        # Periodic rekeying (§3.5 "periodically re-initialize"): every
        # `rekey_interval` simulated seconds an epoch tick rotates all
        # communication keys; None disables.
        self.rekey_interval = rekey_interval
        self._rekey_epoch = 0
        self.execute_fn = self._gm_execute
        self.snapshot_fn = self._gm_snapshot
        self.restore_fn = self._gm_restore
        # Observability for the benchmarks.
        self.keys_issued: list[tuple[int, int]] = []  # (conn_id, key_id)
        self.expulsions: list[tuple[str, ...]] = []
        self.readmissions: list[str] = []
        self.denied_change_requests: int = 0

    # -- bootstrap ------------------------------------------------------------

    def start(self) -> None:
        """Kick off the coin-toss bootstrap (call after network wiring)."""
        if self._coin_submitted:
            return
        self._coin_submitted = True
        self._schedule_rekey_tick()
        commitment, self._coin_value = make_coin_pair(self.pid, self._coin_rng)
        message = CoinMessage(phase="commit", pid=self.pid, value=commitment)
        self.self_engine.invoke(message.to_payload())

    def on_message(self, src: str, payload: Any) -> None:
        # Ours alone is the acknowledgement of a coin message we submitted.
        if type(payload) is not BftReply or not self.self_engine.handle_message(src, payload):
            super().on_message(src, payload)

    # -- the replicated state machine --------------------------------------------

    _SPAN_NAMES = {
        CoinMessage: "gm.coin",
        OpenRequest: "gm.open",
        ChangeRequest: "gm.change",
        RejoinPetition: "gm.rejoin",
        RekeyTick: "gm.rekey",
    }

    def _gm_execute(self, payload: bytes, seq: int, client_id: str, timestamp: int) -> bytes:
        try:
            message = parse_payload(payload)
        except PayloadError:
            return b"BAD"
        t = self.telemetry
        if t.enabled and t.current is not None:
            # Running under a bft.execute span: record the GM verdict as a
            # child, and keep it ambient so an expulsion inside the handler
            # carries this span as its deciding context.
            name = self._SPAN_NAMES.get(type(message))
            if name is not None:
                span = t.begin(name, parent=t.current, pid=self.pid, requester=client_id)
                with t.use(span.ctx if span is not None else t.current):
                    verdict = self._gm_dispatch(message, client_id)
                if span is not None:
                    span.attrs["verdict"] = verdict.decode("ascii", "replace")
                t.end(span)
                return verdict
        return self._gm_dispatch(message, client_id)

    def _gm_dispatch(self, message: Any, client_id: str) -> bytes:
        if isinstance(message, CoinMessage):
            return self._exec_coin(message, client_id)
        if isinstance(message, OpenRequest):
            return self._exec_open(message, client_id)
        if isinstance(message, ChangeRequest):
            return self._exec_change(message, client_id)
        if isinstance(message, RejoinPetition):
            return self._exec_rejoin(message, client_id)
        if isinstance(message, RekeyTick):
            return self._exec_rekey_tick(message, client_id)
        return b"BAD"  # the GM hosts no CORBA objects (§2)

    # -- coin tossing ---------------------------------------------------------------

    def _exec_coin(self, message: CoinMessage, client_id: str) -> bytes:
        if message.pid != client_id or message.pid not in self.gm_info.element_ids:
            return b"BAD"
        state = self.state
        if message.phase == "commit":
            if state.phase != "commit" or message.pid in state.coin_commits:
                return b"DUP"
            state.coin_commits[message.pid] = message.value
            if len(state.coin_commits) >= self.gm_info.n - self.gm_info.f:
                state.phase = "reveal"
                self._side_effect_reveal()
            return b"OK"
        if message.phase == "reveal":
            if state.phase != "reveal" or message.pid in state.coin_reveals:
                return b"DUP"
            commitment = state.coin_commits.get(message.pid)
            if not reveal_matches(commitment, message.pid, message.value):
                return b"BAD"  # reveal does not open the commitment
            state.coin_reveals[message.pid] = message.value
            if len(state.coin_reveals) == self.gm_info.f + 1:
                self._seed_prng()
            return b"OK"
        return b"BAD"

    def _side_effect_reveal(self) -> None:
        """Per-element action when the (ordered) reveal phase opens."""
        if self._coin_value is None:
            return
        message = CoinMessage(phase="reveal", pid=self.pid, value=self._coin_value)
        self.self_engine.invoke(message.to_payload())

    def _exec_rekey_tick(self, tick: RekeyTick, client_id: str) -> bytes:
        """First ordered tick of an epoch rotates every connection key."""
        if tick.pid != client_id or tick.pid not in self.gm_info.element_ids:
            return b"BAD"
        if tick.epoch in self.state.completed_rekey_epochs:
            return b"DUP"
        if self.state.phase != "ready":
            return b"DUP"
        self.state.completed_rekey_epochs.add(tick.epoch)
        for record in sorted(self.state.connections.values(), key=lambda r: r.conn_id):
            record.key_id += 1
            self._issue_keys(record)
        return b"OK"

    def _schedule_rekey_tick(self) -> None:
        if self.rekey_interval is None:
            return

        def fire() -> None:
            self._rekey_epoch += 1
            tick = RekeyTick(pid=self.pid, epoch=self._rekey_epoch)
            self.self_engine.invoke(tick.to_payload())
            self._schedule_rekey_tick()

        self.set_timer(self.rekey_interval, fire)

    def _seed_prng(self) -> None:
        state = self.state
        self.prng = DeterministicPrng(
            combine_reveals(state.coin_commits, state.coin_reveals)
        )
        state.phase = "ready"
        queued, state.queued_opens = state.queued_opens, []
        for request in queued:
            self._open_connection(request)

    # -- connection establishment ------------------------------------------------------

    def _exec_open(self, request: OpenRequest, client_id: str) -> bytes:
        if request.requester != client_id:
            return b"BAD"
        if request.target_domain not in self.directory.domains:
            return b"BAD"
        if client_id in self.state.expelled:
            return b"DENIED"
        if self.state.phase != "ready":
            self.state.queued_opens.append(request)
            return b"QUEUED"
        domain = None
        key = (request.requester, request.target_domain)
        if request.requester_kind == "domain":
            domain = self.directory.domains.get(request.requester_domain)
            if domain is None or request.requester not in domain.element_ids:
                return b"BAD"
            key = (request.requester_domain, request.target_domain)
        conn_id = self.state.conn_by_pair.get(key)
        if conn_id is not None:
            # Idempotent re-send of the current generation's shares.
            self._issue_keys(self.state.connections[conn_id])
            return b"OK"
        if domain is not None:
            # A replicated client: wait for f+1 matching open_requests so a
            # single faulty element cannot open connections unilaterally.
            seen = self.state.pending_domain_opens.setdefault(key, set())
            seen.add(request.requester)
            if len(seen) < domain.f + 1:
                return b"PENDING"
            del self.state.pending_domain_opens[key]
        self._open_connection(request)
        return b"OK"

    def _open_connection(self, request: OpenRequest) -> None:
        state = self.state
        state.next_conn_id += 1
        record = ConnectionRecord(
            conn_id=state.next_conn_id,
            client=request.requester,
            client_kind=request.requester_kind,
            client_domain=request.requester_domain,
            target_domain=request.target_domain,
        )
        state.connections[record.conn_id] = record
        pair = (
            request.requester_domain
            if request.requester_kind == "domain"
            else request.requester,
            request.target_domain,
        )
        state.conn_by_pair[pair] = record.conn_id
        self._issue_keys(record)

    # -- key issuance (per-element side effect) --------------------------------------------

    def _participants(self, record: ConnectionRecord) -> list[str]:
        if record.client_kind == "domain":
            client_side = [
                pid
                for pid in self.directory.domain(record.client_domain).element_ids
                if pid not in self.state.expelled
            ]
        else:
            client_side = [record.client]
        # Target side includes the domain's read tier: readers need the
        # connection key to serve tentative reads, and fencing an expelled
        # reader out of the next generation uses this same membership test.
        target_side = [
            pid
            for pid in self.directory.domain(record.target_domain).all_ids
            if pid not in self.state.expelled
        ]
        return client_side + target_side

    def _issue_keys(self, record: ConnectionRecord) -> None:
        """Evaluate this element's DPRF share and distribute it.

        The nonce is drawn from the coin-toss-seeded PRNG *during ordered
        execution*, so every GM element consumes the identical nonce for
        this (connection, generation) — "a common non-repeating value as an
        input [to] a distributed (non-interactive) pseudo-random function"
        (§3.5).
        """
        assert self.prng is not None
        nonce = self._nonce_for(record.conn_id, record.key_id)
        share = self.shareholder.evaluate(nonce)
        plaintext = canonical_bytes(key_share_to_dict(nonce, share))
        for participant in self._participants(record):
            pairwise = SymmetricKey(
                material=self.directory.pairwise_key(self.pid, participant)
            )
            enc_nonce = digest(
                canonical_bytes(
                    {
                        "conn": record.conn_id,
                        "key": record.key_id,
                        "gm": self.pid,
                        "to": participant,
                    }
                )
            )[:16]
            envelope = GmShareEnvelope(
                gm_element=self.pid,
                recipient=participant,
                conn_id=record.conn_id,
                key_id=record.key_id,
                client=record.client,
                client_kind=record.client_kind,
                client_domain=record.client_domain,
                target_domain=record.target_domain,
                ciphertext=encrypt(pairwise, plaintext, enc_nonce),
                epoch=self.state.key_epoch,
                fence_floor=self.state.fence_floor,
            )
            self.send(participant, envelope)
        self.keys_issued.append((record.conn_id, record.key_id))
        t = self.telemetry
        if t.enabled:
            t.registry.counter(
                "gm_keys_issued_total", "Key-share generations distributed"
            ).inc()

    # PRNG nonces must be replayable per (conn, key) for idempotent re-issue,
    # so each new (conn, key) draws once and the draw is cached in replicated
    # state via a derivation: nonce = H(prng_base_for_generation || conn || key).
    # The base advances only when a new key generation is created.
    def _nonce_for(self, conn_id: int, key_id: int) -> bytes:
        record_key = (conn_id, key_id)
        cache = getattr(self.state, "_nonce_cache", None)
        if cache is None:
            cache = {}
            self.state._nonce_cache = cache  # type: ignore[attr-defined]
        nonce = cache.get(record_key)
        if nonce is None:
            assert self.prng is not None
            nonce = self.prng.next_nonce()
            cache[record_key] = nonce
        return nonce

    # -- expulsion -----------------------------------------------------------------------

    def _exec_change(self, request: ChangeRequest, client_id: str) -> bytes:
        if request.requester != client_id:
            return b"BAD"
        if client_id in self.state.expelled:
            return b"DENIED"
        accused_domain = self.directory.domains.get(request.accused_domain)
        if accused_domain is None:
            return b"BAD"
        accused = tuple(sorted(set(request.accused)))
        # all_ids: the read tier is fenceable through the same machinery —
        # an expelled reader drops out of every connection's participant
        # set at the next (re)issue and its keys die with the generation.
        if not accused or any(a not in accused_domain.all_ids for a in accused):
            return b"BAD"
        if len(accused) > accused_domain.f:
            return b"DENIED"  # cannot expel more than f at once
        already = [a for a in accused if a in self.state.expelled]
        if len(already) == len(accused):
            return b"OK"  # idempotent
        if request.requester_kind == "domain":
            domain = self.directory.domains.get(request.requester_domain)
            if domain is None or request.requester not in domain.element_ids:
                return b"BAD"
            key = (accused, request.requester_domain)
            seen = self.state.pending_domain_changes.setdefault(key, set())
            seen.add(request.requester)
            if len(seen) < domain.f + 1:
                return b"PENDING"
            del self.state.pending_domain_changes[key]
            self._expel(accused, request.accused_domain)
            return b"GRANTED"
        # Singleton path: the proof must independently convince us (§3.6:
        # "To prevent against this sort of attack, ITDOS requires proof from
        # the single client of the faulty value(s)").
        if self._proof_convicts(request, accused_domain.f):
            self._expel(accused, request.accused_domain)
            return b"GRANTED"
        self.denied_change_requests += 1
        t = self.telemetry
        if t.enabled:
            # A singleton whose proof failed re-verification made an
            # unsupported accusation — itself suspicious behavior (a frame-up
            # attempt looks exactly like this). Soft: a damaged proof item
            # also lands here. Dedup mirrors _expel: every GM replica
            # executes the same ordered request against one shared facade.
            t.evidence(
                "accusation-denied",
                accused=request.requester,
                reporter=self.pid,
                detail=(
                    f"accused={','.join(accused)} domain={request.accused_domain} "
                    f"request={request.request_id}"
                ),
                evidence={"proof_items": len(request.proof)},
                dedup=("accusation-denied", request.requester, accused, request.request_id),
            )
        return b"DENIED"

    def _proof_convicts(self, request: ChangeRequest, f_target: int) -> bool:
        """Re-vote the proof on unmarshalled data (the marshalling engine)."""
        ballots: list[tuple[str, Any]] = []
        interface_name = None
        operation = None
        seen = set()
        for item in request.proof:
            if item.sender in seen:
                return False  # duplicated sender in proof
            seen.add(item.sender)
            accused_domain = self.directory.domain(request.accused_domain)
            if item.sender not in accused_domain.element_ids:
                return False
            if not self.directory.keyring.verify(item.sender, item.plaintext, item.signature):
                return False  # forged proof entry
            try:
                message = decode_message(self.directory.repository, item.plaintext)
            except Exception:  # noqa: BLE001 - malformed proof is just invalid
                return False
            if not isinstance(message, ReplyMessage):
                return False
            if message.request_id != request.request_id:
                return False  # sequence-number replay check
            if interface_name is None:
                interface_name = message.interface_name
                operation = message.operation
            elif (message.interface_name, message.operation) != (interface_name, operation):
                return False
            ballots.append(
                (item.sender, (int(message.reply_status), message.result))
            )
        if len(ballots) < 2 * f_target + 1 or interface_name is None:
            return False  # not enough evidence to vote
        from repro.itdos.sockets import reply_value_comparator

        comparator = reply_value_comparator(self.directory, interface_name, operation)
        decision = majority_vote(ballots, f_target + 1, comparator)
        if not decision.decided:
            return False
        # Every accused element must actually dissent from the voted value.
        return all(a in decision.dissenters for a in request.accused)

    def _exec_rejoin(self, petition: RejoinPetition, client_id: str) -> bytes:
        """EXTENSION: the signed rejoin handshake (:mod:`repro.recovery`).

        Re-admission is the membership action the paper leaves as future
        work (§4: "replacement remains to be implemented"). The petition
        must verify under the element's registered signing key and carry a
        nonce above any previously accepted one, so neither a third party
        nor a replayed old petition can flip membership. A petition
        with ``fresh_keys`` from a member in good standing (the proactive-
        recovery restart) rotates the key epoch without a membership change.
        """
        if petition.element != client_id:
            return b"BAD"  # only the element itself may petition
        domain = self.directory.domains.get(petition.domain_id)
        if domain is None or petition.element not in domain.element_ids:
            return b"BAD"
        if not self.directory.keyring.verify(
            petition.element, petition.body(), petition.signature
        ):
            return b"BAD"  # forged or tampered petition
        last = self.state.rejoin_nonces.get(petition.element, -1)
        if petition.nonce <= last:
            return b"REPLAY"
        self.state.rejoin_nonces[petition.element] = petition.nonce
        if petition.element in self.state.expelled:
            self._readmit(petition.element, petition.domain_id)
            return b"READMITTED"
        if petition.fresh_keys:
            self._rekey_domain(petition.domain_id, fence=True)
            return b"REFRESHED"
        return b"OK"  # idempotent: already a member, no refresh asked

    def _readmit(self, element: str, domain_id: str) -> None:
        """Re-add ``element`` to membership and rotate the key epoch."""
        self.state.expelled.discard(element)
        self.readmissions.append(element)
        t = self.telemetry
        if t.enabled:
            newly = t.health.record_readmission((element,), time=self.now, ctx=t.current)
            if newly:
                t.registry.counter(
                    "gm_readmissions_total", "Elements readmitted after repair"
                ).inc(newly)
        self._rekey_domain(domain_id, fence=True)

    def _expel(self, accused: tuple[str, ...], accused_domain: str) -> None:
        """Key the faulty element(s) out of every communication group."""
        self.state.expelled.update(accused)
        self.expulsions.append(accused)
        t = self.telemetry
        if t.enabled:
            # t.current is the gm.change span when ordered execution is
            # traced — the health event then names the deciding GM span.
            newly = t.health.record_expulsion(
                accused, time=self.now, ctx=t.current, detail=f"domain={accused_domain}"
            )
            if newly:
                t.registry.counter(
                    "gm_expulsions_total", "Elements keyed out of communication groups"
                ).inc(newly)
            # The expulsion itself is hard evidence: 2f+1 replicated GMs
            # re-verified the singleton's signed proof and voted to convict.
            for pid in accused:
                t.evidence(
                    "expulsion",
                    accused=pid,
                    reporter=self.pid,
                    hard=True,
                    detail=f"domain={accused_domain}",
                    dedup=("expulsion", pid),
                )
        self._rekey_domain(accused_domain)

    def _rekey_domain(self, domain_id: str, fence: bool = False) -> None:
        """Membership changed: advance the key epoch and rotate every
        communication group touching ``domain_id``.

        Every expulsion *and* (re)admission lands here, so connection keys
        move to both a new generation and a new membership epoch. When
        ``fence`` is set (readmission, fresh-keys refresh) the fence floor
        rises to one epoch behind the rotation, and receivers
        (:class:`~repro.itdos.keys.ConnectionKeys`) drop every generation
        from before it — a previously compromised element's exfiltrated
        keys are useless after its readmission even though it is, once
        again, a member (§3.5). Plain expulsions rotate without raising
        the floor: the rotation already locks the expelled element out of
        future traffic, and honest participants may still need the old
        generation for requests in flight (up to f expulsions can rekey
        back-to-back while one request is outstanding).
        """
        self.state.key_epoch += 1
        if fence:
            self.state.fence_floor = self.state.key_epoch - 1
        t = self.telemetry
        if t.enabled:
            t.health.record_key_epoch(
                self.state.key_epoch, time=self.now, ctx=t.current,
                detail=f"domain={domain_id}",
            )
            t.registry.gauge(
                "gm_key_epoch", "Current membership key epoch"
            ).set(self.state.key_epoch)
        for record in sorted(self.state.connections.values(), key=lambda r: r.conn_id):
            if domain_id in (record.target_domain, record.client_domain):
                record.key_id += 1
                self._issue_keys(record)

    # -- checkpointing ---------------------------------------------------------------------

    def _gm_snapshot(self) -> bytes:
        state = self.state
        nonce_cache = getattr(state, "_nonce_cache", {})
        return canonical_bytes(
            {
                "phase": state.phase,
                "commits": {k: v for k, v in sorted(state.coin_commits.items())},
                "reveals": {k: v for k, v in sorted(state.coin_reveals.items())},
                "next_conn_id": state.next_conn_id,
                "connections": [
                    {
                        "conn_id": r.conn_id,
                        "client": r.client,
                        "client_kind": r.client_kind,
                        "client_domain": r.client_domain,
                        "target_domain": r.target_domain,
                        "key_id": r.key_id,
                    }
                    for r in sorted(state.connections.values(), key=lambda r: r.conn_id)
                ],
                "expelled": sorted(state.expelled),
                "rekey_epochs": sorted(state.completed_rekey_epochs),
                "key_epoch": state.key_epoch,
                "fence_floor": state.fence_floor,
                "rejoin_nonces": dict(sorted(state.rejoin_nonces.items())),
                # Nonces already drawn (per conn/key) and the PRNG position,
                # so a restored element draws the *same* future nonces as
                # its peers. GM-internal material only.
                "nonce_cache": [
                    [conn, key, nonce]
                    for (conn, key), nonce in sorted(nonce_cache.items())
                ],
                "prng_position": self.prng.position() if self.prng else -1,
            }
        )

    def _gm_restore(self, snapshot: bytes, seq: int) -> None:
        """Adopt replicated GM state fetched by checkpoint catch-up."""
        data = parse_canonical(snapshot)
        if not isinstance(data, dict) or "phase" not in data:
            return
        state = _GmState()
        state.phase = data["phase"]
        state.coin_commits = dict(data["commits"])
        state.coin_reveals = dict(data["reveals"])
        state.next_conn_id = data["next_conn_id"]
        for fields in data["connections"]:
            record = ConnectionRecord(
                conn_id=fields["conn_id"],
                client=fields["client"],
                client_kind=fields["client_kind"],
                client_domain=fields["client_domain"],
                target_domain=fields["target_domain"],
                key_id=fields["key_id"],
            )
            state.connections[record.conn_id] = record
            pair = (
                record.client_domain if record.client_kind == "domain" else record.client,
                record.target_domain,
            )
            state.conn_by_pair[pair] = record.conn_id
        state.expelled = set(data["expelled"])
        state.completed_rekey_epochs = set(data.get("rekey_epochs", []))
        state.key_epoch = data.get("key_epoch", 0)
        state.fence_floor = data.get("fence_floor", 0)
        state.rejoin_nonces = dict(data.get("rejoin_nonces", {}))
        state._nonce_cache = {  # type: ignore[attr-defined]
            (conn, key): nonce for conn, key, nonce in data.get("nonce_cache", [])
        }
        self.state = state
        if state.phase == "ready" and data.get("prng_position", -1) >= 0:
            # Reseed from the (restored) reveals — the same combination every
            # peer performed — and fast-forward to the replicated position.
            self.prng = DeterministicPrng(
                combine_reveals(state.coin_commits, state.coin_reveals)
            )
            self.prng.seek(data["prng_position"])
