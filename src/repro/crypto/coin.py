"""Commit-reveal distributed randomness.

§3.5: "The ITDOS Group Manager uses a distributed random number generation
process to initialize (and periodically re-initialize) the pseudo-random
number generators of each Group Manager replication domain element."

Protocol shape (a random-access coin-tossing scheme in the sense of
Cachin–Kursawe–Shoup [5]):

1. each participant draws a random value ``r_i`` and broadcasts
   ``commit_i = H(pid || r_i)``;
2. once n - f commits are ordered, each committer broadcasts its reveal;
3. the phase closes at the f+1-th reveal that opens its commit, and the seed
   is ``H`` over exactly those reveals, in pid order.

At most f of the n - f committers are faulty, so f+1 reveals always arrive
(a withheld reveal stalls no one) and include an honest one: the seed is
unpredictable before an honest reveal is ordered. A faulty orderer can
still choose which f+1 of the ≤ 2f+1 reveals close the phase — C(2f+1, f+1)
seeds, 3 at f = 1 — as it could under a time bound on the phase.
The message-level protocol lives in the Group Manager; these are the pure
functions it composes, over the ``pid -> bytes`` maps its replicated state holds.
"""

from __future__ import annotations

import random

from repro.crypto.digests import constant_time_equal, digest


def make_coin_pair(pid: str, rng: random.Random) -> tuple[bytes, bytes]:
    """Draw a 32-byte coin; returns ``(commitment, value)``."""
    value = rng.randbytes(32)
    return digest(pid.encode() + b"|" + value), value


def reveal_matches(commitment: bytes | None, pid: str, value: bytes) -> bool:
    """Does ``value`` open ``pid``'s ``commitment``? (``None``: it never committed.)"""
    return commitment is not None and constant_time_equal(
        commitment, digest(pid.encode() + b"|" + value)
    )


def combine_reveals(commits: dict[str, bytes], reveals: dict[str, bytes]) -> bytes:
    """Derive the shared seed from all correctly opened reveals.

    Reveals without a matching commit (or failing the commitment check) are
    excluded — a corrupt element can withhold its coin but cannot pick it
    after seeing an honest one. Raises ``ValueError`` if no reveal survives.
    """
    opened = sorted(
        pid
        for pid, value in reveals.items()
        if reveal_matches(commits.get(pid), pid, value)
    )
    if not opened:
        raise ValueError("no valid reveal to seed from")
    return digest(b"".join(pid.encode() + b"|" + reveals[pid] for pid in opened))
