"""Chaum–Pedersen discrete-log-equality proofs (non-interactive).

A DPRF share is ``σ_i = h^{s_i}`` where ``h`` hashes the PRF input into the
group. The shareholder proves, without revealing ``s_i``, that

    log_g(y_i)  ==  log_h(σ_i)

i.e. the share really was computed with the committed secret share. The
proof is made non-interactive with the Fiat–Shamir transform. This is the
per-share verification information of §3.5: "the client and server
replication domain elements ... can verify which Group Manager replication
domain elements acted correctly."
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.encoding import canonical_bytes
from repro.crypto.groups import DlGroup


@dataclass(frozen=True)
class DleqProof:
    """Fiat–Shamir proof that two group elements share a discrete log."""

    challenge: int
    response: int

    def canonical_fields(self) -> dict:  # hand-written: a value object, not a message
        return {"challenge": self.challenge, "response": self.response}


def _challenge(
    group: DlGroup, g1: int, h1: int, g2: int, h2: int, a1: int, a2: int
) -> int:
    transcript = canonical_bytes(
        {"g1": g1, "h1": h1, "g2": g2, "h2": h2, "a1": a1, "a2": a2}
    )
    return group.hash_to_exponent(transcript)


def dleq_prove(
    group: DlGroup, g1: int, g2: int, x: int, rng: random.Random
) -> DleqProof:
    """Prove knowledge of ``x`` with ``h1 = g1^x`` and ``h2 = g2^x``."""
    return dleq_prove_powers(group, g1, group.exp(g1, x), g2, group.exp(g2, x), x, rng)


def dleq_prove_powers(
    group: DlGroup, g1: int, h1: int, g2: int, h2: int, x: int, rng: random.Random
) -> DleqProof:
    """:func:`dleq_prove` for a prover that already holds ``h1 = g1^x`` and
    ``h2 = g2^x``; the proof is the same, bit for bit."""
    w = group.random_exponent(rng)
    a1 = group.exp(g1, w)
    a2 = group.exp(g2, w)
    c = _challenge(group, g1, h1, g2, h2, a1, a2)
    r = (w - c * x) % group.q
    return DleqProof(challenge=c, response=r)


def dleq_verify(
    group: DlGroup, g1: int, h1: int, g2: int, h2: int, proof: DleqProof
) -> bool:
    """Check a proof that ``log_g1(h1) == log_g2(h2)``."""
    if not (group.contains(h1) and group.contains(h2)):
        return False
    return dleq_check(group, g1, h1, g2, h2, proof)


def dleq_check(
    group: DlGroup, g1: int, h1: int, g2: int, h2: int, proof: DleqProof
) -> bool:
    """The proof equation of :func:`dleq_verify` alone, for a caller that has
    already checked ``h1`` and ``h2`` lie in the subgroup."""
    a1 = group.mul(group.exp(g1, proof.response), group.exp(h1, proof.challenge))
    a2 = group.mul(group.exp(g2, proof.response), group.exp(h2, proof.challenge))
    return _challenge(group, g1, h1, g2, h2, a1, a2) == proof.challenge
