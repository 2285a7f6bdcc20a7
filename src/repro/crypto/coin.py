"""Commit-reveal distributed randomness.

§3.5: "The ITDOS Group Manager uses a distributed random number generation
process to initialize (and periodically re-initialize) the pseudo-random
number generators of each Group Manager replication domain element."

Protocol shape (a random-access coin-tossing scheme in the sense of
Cachin–Kursawe–Shoup [5]):

1. each participant draws a random value ``r_i`` and broadcasts
   ``commit_i = H(pid || r_i)``;
2. once commits are collected, each broadcasts the reveal ``r_i``;
3. the combined seed is ``H`` over the reveals of every participant whose
   reveal matched its commit, in pid order.

With at least one honest participant, the seed is unpredictable to the
adversary *before* the reveal phase; committing first prevents last-mover
bias by ≤ f corrupt elements choosing their value after seeing others.
The message-level protocol lives in the Group Manager; this module provides
the pure functions it composes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.digests import constant_time_equal, digest


@dataclass(frozen=True)
class CoinCommit:
    """Hash commitment to a participant's coin value."""

    pid: str
    commitment: bytes

    def canonical_fields(self) -> dict:  # hand-written: a value object, not a message
        return {"pid": self.pid, "commitment": self.commitment}


@dataclass(frozen=True)
class CoinReveal:
    """The opened coin value."""

    pid: str
    value: bytes

    def canonical_fields(self) -> dict:  # hand-written: a value object, not a message
        return {"pid": self.pid, "value": self.value}


def make_coin_pair(pid: str, rng: random.Random) -> tuple[CoinCommit, CoinReveal]:
    """Draw a 32-byte coin and produce its commit/reveal pair."""
    value = rng.randbytes(32)
    commitment = digest(pid.encode() + b"|" + value)
    return CoinCommit(pid=pid, commitment=commitment), CoinReveal(pid=pid, value=value)


def reveal_matches(commit: CoinCommit, reveal: CoinReveal) -> bool:
    """Does ``reveal`` open ``commit``?"""
    if commit.pid != reveal.pid:
        return False
    expected = digest(reveal.pid.encode() + b"|" + reveal.value)
    return constant_time_equal(commit.commitment, expected)


def combine_reveals(
    commits: dict[str, CoinCommit], reveals: list[CoinReveal], minimum: int = 1
) -> bytes:
    """Derive the shared seed from all correctly opened reveals.

    Reveals without a matching commit (or failing the commitment check) are
    excluded — a corrupt element can withhold its coin but cannot steer the
    result. Raises ``ValueError`` if fewer than ``minimum`` reveals survive.
    """
    opened: dict[str, bytes] = {}
    for reveal in reveals:
        commit = commits.get(reveal.pid)
        if commit is None or not reveal_matches(commit, reveal):
            continue
        opened[reveal.pid] = reveal.value
    if len(opened) < minimum:
        raise ValueError(
            f"only {len(opened)} valid reveals, need at least {minimum}"
        )
    material = b"".join(
        pid.encode() + b"|" + opened[pid] for pid in sorted(opened)
    )
    return digest(material)
