"""The accountable intrusion-evidence log: hash-chained, re-verifiable.

SecureSMART's argument (PAPERS.md) is that a BFT substrate needs an
*accountability* layer: protocol messages that prove misbehavior should be
turned into durable, attributable evidence rather than consumed and
forgotten. The :class:`AuditLog` is that layer for this repro. Every entry
records one observation of protocol-visible misbehavior — an equivocating
pre-prepare, a validly-signed dissenting reply, an invalid DPRF share, an
authentication reject, a fence violation — and carries enough of the
offending material (hex-encoded signed bytes) to re-check the accusation
offline.

Tamper evidence is a hash chain: each entry's digest covers the previous
entry's digest plus a canonical JSON encoding of its own content, so
editing, dropping, or reordering any entry breaks verification of every
later one. The chain verifies from the genesis digest alone — no key
material needed — while signature-carrying evidence additionally re-verifies
against the system keyring via :meth:`AuditLog.verify_signatures`.

Entries are *hard* or *soft*. Hard evidence is attributable under the fault
model (a correct network and honest sender cannot produce it): a valid
signature over a dissenting reply value, a digest-consistent conflicting
pre-prepare, a DPRF share that decrypted under the pairwise key but fails
share verification. Soft evidence (bad MACs, undecryptable replies,
mismatched digests) is indistinguishable from line noise and only feeds the
statistical estimators in :mod:`repro.obs.detect` — accusations are built
from hard evidence alone, which is what keeps the false-accusation rate of
honest elements at zero by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Entries retained before *soft* evidence is dropped (hard evidence is
#: always admitted — an accusation must never be lost to log pressure).
DEFAULT_AUDIT_CAPACITY = 4096

#: The chain's genesis "previous digest".
GENESIS = "0" * 64


def _jsonify(value: Any) -> Any:
    """Evidence payloads become JSON-safe: bytes hex-encode, tuples listify."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _entry_digest(body: dict[str, Any]) -> str:
    """Digest over the canonical JSON of everything except the digest."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class AuditEntry:
    """One observation of protocol-visible misbehavior."""

    index: int
    time: float
    kind: str  # equivocation | vote-dissent | invalid-share | invalid-auth | ...
    accused: str
    reporter: str = ""
    hard: bool = False
    detail: str = ""
    evidence: dict[str, Any] = field(default_factory=dict)
    prev: str = GENESIS
    digest: str = ""

    def body(self) -> dict[str, Any]:
        """The digested content: every field except ``digest`` itself."""
        return {
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "accused": self.accused,
            "reporter": self.reporter,
            "hard": self.hard,
            "detail": self.detail,
            "evidence": self.evidence,
            "prev": self.prev,
        }

    def as_dict(self) -> dict[str, Any]:
        out = self.body()
        out["digest"] = self.digest
        return out


class AuditLog:
    """Append-only, hash-chained evidence log for one simulation."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = DEFAULT_AUDIT_CAPACITY,
    ) -> None:
        self.clock = clock or (lambda: 0.0)
        self.capacity = capacity
        self.entries: list[AuditEntry] = []
        self.dropped = 0
        # Explicit dedup keys already recorded: every replica of a
        # replicated observer (e.g. the Group Manager domain) executes the
        # same ordered decision against this one shared log, and only the
        # first report may land.
        self._dedup_seen: set = set()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def head(self) -> str:
        return self.entries[-1].digest if self.entries else GENESIS

    def record(
        self,
        kind: str,
        accused: str,
        reporter: str = "",
        hard: bool = False,
        detail: str = "",
        evidence: dict[str, Any] | None = None,
        dedup: Any = None,
    ) -> AuditEntry | None:
        """Append one entry; soft evidence is shed once the log is full."""
        if dedup is not None:
            if dedup in self._dedup_seen:
                return None
            self._dedup_seen.add(dedup)
        if not hard and len(self.entries) >= self.capacity:
            self.dropped += 1
            return None
        entry = AuditEntry(
            index=len(self.entries),
            time=self.clock(),
            kind=kind,
            accused=accused,
            reporter=reporter,
            hard=hard,
            detail=detail,
            evidence=_jsonify(evidence or {}),
            prev=self.head,
        )
        entry = AuditEntry(**{**entry.body(), "digest": _entry_digest(entry.body())})
        self.entries.append(entry)
        return entry

    # -- queries -------------------------------------------------------------

    def against(self, accused: str) -> list[AuditEntry]:
        return [e for e in self.entries if e.accused == accused]

    def hard_against(self, accused: str) -> list[AuditEntry]:
        return [e for e in self.entries if e.accused == accused and e.hard]

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.entries:
            out[entry.kind] = out.get(entry.kind, 0) + 1
        return out

    # -- verification --------------------------------------------------------

    def verify(self) -> tuple[bool, str | None]:
        """Re-walk the hash chain; (True, None) or (False, what broke)."""
        return verify_chain(entry.as_dict() for entry in self.entries)

    def verify_signatures(
        self, verify: Callable[[str, bytes, bytes], bool]
    ) -> list[int]:
        """Re-check every signed ballot carried as evidence.

        ``verify(sender, plaintext, signature)`` is the keyring check.
        Returns the indices of entries whose evidence fails — for a log
        produced by a correct run, the list is empty.
        """
        bad: list[int] = []
        for entry in self.entries:
            for ballot in entry.evidence.get("ballots", []):
                try:
                    ok = verify(
                        ballot["sender"],
                        bytes.fromhex(ballot["plaintext"]),
                        bytes.fromhex(ballot["signature"]),
                    )
                except (KeyError, ValueError, TypeError):
                    ok = False
                if not ok:
                    bad.append(entry.index)
                    break
        return bad

    # -- export --------------------------------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        """JSONL-ready: one ``audit_entry`` per entry + one chain stat.

        An untouched log exports nothing, keeping evidence-free runs'
        JSONL streams identical to what they were before auditing existed.
        """
        if not self.entries and not self.dropped:
            return []
        out: list[dict[str, Any]] = []
        for entry in self.entries:
            record: dict[str, Any] = {"record": "audit_entry"}
            record.update(entry.as_dict())
            out.append(record)
        out.append(
            {
                "record": "audit_chain",
                "entries": len(self.entries),
                "hard": sum(1 for e in self.entries if e.hard),
                "dropped": self.dropped,
                "head": self.head,
            }
        )
        return out

    def render(self, limit: int = 12) -> str:
        if not self.entries:
            return "audit log: empty"
        lines = [f"audit log: {len(self.entries)} entr{'y' if len(self.entries) == 1 else 'ies'}, head {self.head[:16]}…"]
        shown = self.entries[-limit:]
        if len(shown) < len(self.entries):
            lines.append(f"  … {len(self.entries) - len(shown)} earlier entries elided")
        for entry in shown:
            strength = "HARD" if entry.hard else "soft"
            detail = f" {entry.detail}" if entry.detail else ""
            lines.append(
                f"  #{entry.index} t={entry.time * 1000:.3f}ms {strength} "
                f"{entry.kind} accused={entry.accused}{detail}"
            )
        return "\n".join(lines)


def verify_chain(records: Iterable[dict[str, Any]]) -> tuple[bool, str | None]:
    """Offline chain verification over exported ``audit_entry`` dicts.

    Works on a live log's ``as_dict`` stream and on records read back from a
    JSONL export alike — the digest covers the canonical JSON body, which
    round-trips exactly.
    """
    prev = GENESIS
    for position, record in enumerate(records):
        body = {k: v for k, v in record.items() if k not in ("digest", "record")}
        if body.get("index") != position:
            return False, f"entry {position}: index {body.get('index')!r} out of order"
        if body.get("prev") != prev:
            return False, f"entry {position}: chain broken (prev mismatch)"
        if _entry_digest(body) != record.get("digest"):
            return False, f"entry {position}: content does not match its digest"
        prev = record["digest"]
    return True, None
