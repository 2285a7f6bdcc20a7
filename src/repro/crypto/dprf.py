"""The distributed (non-interactive) pseudo-random function.

This is the heart of §3.5. Construction (Naor–Pinkas–Reingold class [26],
DDH-based):

* **Setup.** A master secret ``s ∈ Z_q`` is Shamir-shared among the ``n``
  Group Manager elements with threshold ``f+1``; Feldman commitments to the
  sharing polynomial are public.
* **Evaluation.** On common input ``x`` (a non-repeating nonce produced by
  each element's coin-toss-seeded PRNG), element ``i`` computes
  ``h = HashToGroup(x)`` and emits the share ``σ_i = h^{s_i}`` with a
  Chaum–Pedersen proof that ``log_h(σ_i) = log_g(y_i)``.
* **Combination.** Any ``f+1`` *verified* shares interpolate in the exponent:
  ``h^s = Π σ_i^{λ_i}``; the communication key is ``H(x || h^s)``.

What is computed how often:

* **Once per key set** — :class:`DprfPublic` derives every member key
  ``y_i`` from the commitments, and checks that it lies in the subgroup,
  when it is built. A share check then tests only ``σ_i``'s membership and
  the proof equation (:meth:`DprfPublic.check_share`).
* **Once per input per process** — ``h = HashToGroup(x)``: a shareholder
  hashes ``x`` once per evaluation and proves with the ``y_i`` and ``σ_i``
  it already holds; a participant hashes a nonce once and checks every
  share under it against that point (:mod:`repro.itdos.keys`).
* **Once per share** — the check. Shares already checked are interpolated
  by :func:`combine_verified`; :func:`combine_shares` is check-then-combine
  for a caller holding unchecked shares.

Properties exercised by experiment E5:

* any ``f+1`` honest shares yield the same key (agreement);
* ``f`` shares reveal nothing — combination below threshold is impossible;
* a tampered share fails verification and the culprit is identified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.digests import digest
from repro.crypto.dleq import DleqProof, dleq_check, dleq_prove_powers
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import DlGroup
from repro.crypto.shamir import Share, lagrange_coefficient, share_secret
from repro.crypto.symmetric import KEY_SIZE, SymmetricKey


class DprfError(Exception):
    """Raised on misuse or insufficient/invalid shares."""


@dataclass(frozen=True)
class DprfPublic:
    """Public parameters: group, sizes, and the Feldman commitments."""

    group: DlGroup
    n: int
    f: int
    commitment: FeldmanCommitment
    # y_1 .. y_n, derived from the commitments when the parameters are built;
    # 0 stands for a key outside the subgroup, which no share can verify under.
    member_keys: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = (self.commitment.share_public_key(i) for i in range(1, self.n + 1))
        object.__setattr__(
            self, "member_keys", tuple(y if self.group.contains(y) else 0 for y in keys)
        )

    @property
    def threshold(self) -> int:
        """Shares needed to evaluate: ``f + 1``."""
        return self.f + 1

    def hash_input(self, x: bytes) -> int:
        """``h = HashToGroup(x)``: the point :meth:`check_share` takes."""
        return self.group.hash_to_element(x)

    def verify_share(self, x: bytes, share: "KeyShare") -> bool:
        """Non-interactively check one key share against the commitments."""
        return self.check_share(self.hash_input(x), share)

    def check_share(self, point: int, share: "KeyShare") -> bool:
        """:meth:`verify_share` with the input already hashed into the group:
        ``point = hash_input(x)``."""
        if not 1 <= share.index <= self.n:
            return False
        y_i = self.member_keys[share.index - 1]
        return (
            y_i != 0
            and self.group.contains(share.value)
            and dleq_check(self.group, self.group.g, y_i, point, share.value, share.proof)
        )


@dataclass(frozen=True)
class KeyShare:
    """One element's contribution to a communication key."""

    index: int
    value: int
    proof: DleqProof

    def canonical_fields(self) -> dict:  # hand-written: a value object, not a message
        return {
            "index": self.index,
            "value": self.value,
            "proof": self.proof.canonical_fields(),
        }


class DprfShareholder:
    """One Group Manager element's evaluator: holds secret share ``s_i``."""

    def __init__(self, public: DprfPublic, share: Share, seed: int = 0) -> None:
        if not public.commitment.verify_share(share):
            raise DprfError(f"share {share.index} inconsistent with commitments")
        self.public = public
        self.index = share.index
        self._secret = share.value
        self._rng = random.Random(seed ^ (0xD1F * share.index))

    def evaluate(self, x: bytes) -> KeyShare:
        """Produce this element's key share for input ``x``, with proof."""
        group = self.public.group
        h = self.public.hash_input(x)
        value = group.exp(h, self._secret)
        y_i = self.public.member_keys[self.index - 1]
        proof = dleq_prove_powers(group, group.g, y_i, h, value, self._secret, self._rng)
        return KeyShare(index=self.index, value=value, proof=proof)


def dprf_setup(
    group: DlGroup, n: int, f: int, rng: random.Random
) -> tuple[DprfPublic, list[DprfShareholder]]:
    """Trusted-dealer setup of the threshold PRF.

    The paper's system also boots from configuration inputs ("ITDOS relies
    upon configuration inputs for its pseudo-random functions", §3.5); a
    distributed key generation protocol would remove the dealer and is noted
    as an extension in DESIGN.md.
    """
    if n < 3 * f + 1:
        raise DprfError(f"need n >= 3f+1 Group Manager elements (n={n}, f={f})")
    secret = rng.randrange(group.q)
    shares, coefficients = share_secret(secret, threshold=f + 1, n=n, q=group.q, rng=rng)
    commitment = FeldmanCommitment.commit(group, coefficients)
    public = DprfPublic(group=group, n=n, f=f, commitment=commitment)
    holders = [
        DprfShareholder(public, share, seed=rng.randrange(2**63)) for share in shares
    ]
    return public, holders


def combine_shares(
    public: DprfPublic, x: bytes, shares: list[KeyShare], key_id: int = 0
) -> SymmetricKey:
    """Verify and combine ``f+1`` key shares into the communication key.

    Raises :class:`DprfError` listing the indices of any invalid shares, or
    if fewer than ``f+1`` distinct valid shares remain.
    """
    point = public.hash_input(x)
    valid: dict[int, KeyShare] = {}
    bad: list[int] = []
    for share in shares:
        if share.index in valid:
            continue
        if public.check_share(point, share):
            valid[share.index] = share
        else:
            bad.append(share.index)
    if bad:
        raise DprfError(f"invalid key shares from indices {sorted(bad)}")
    if len(valid) < public.threshold:
        raise DprfError(
            f"need {public.threshold} valid shares, have {len(valid)}"
        )
    return combine_verified(public, x, list(valid.values()), key_id=key_id)


def combine_verified(
    public: DprfPublic, x: bytes, shares: list[KeyShare], key_id: int = 0
) -> SymmetricKey:
    """Interpolate the key from ``f+1`` shares of distinct indices that have
    already been checked against ``x``; nothing is verified here."""
    chosen = sorted(shares, key=lambda s: s.index)[: public.threshold]
    indices = [s.index for s in chosen]
    group = public.group
    acc = 1
    for share in chosen:
        lam = lagrange_coefficient(indices, share.index, group.q)
        acc = group.mul(acc, pow(share.value, lam, group.p))
    material = digest(x + acc.to_bytes((group.p.bit_length() + 7) // 8, "big"))
    assert len(material) == KEY_SIZE
    return SymmetricKey(material=material, key_id=key_id)
