"""Feldman verifiable secret sharing commitments.

A dealer publishing ``C_j = g^{a_j}`` for every coefficient of the Shamir
polynomial lets anyone check a share non-interactively:

    g^{s_i}  ==  Π_j  C_j^{i^j}

This is the public "verification information for the secret key and each key
share" the paper's DPRF construction distributes (§3.5). The commitments also
define each shareholder's public verification key ``y_i = g^{s_i}``, which
the Chaum–Pedersen proofs in :mod:`repro.crypto.dleq` refer to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.groups import DlGroup
from repro.crypto.shamir import Share


@dataclass(frozen=True)
class FeldmanCommitment:
    """Commitments ``(C_0 .. C_{t-1})`` to a degree-``t-1`` sharing polynomial."""

    group: DlGroup
    commitments: tuple[int, ...]

    @staticmethod
    def commit(group: DlGroup, coefficients: list[int]) -> "FeldmanCommitment":
        return FeldmanCommitment(
            group=group,
            commitments=tuple(group.exp(group.g, a) for a in coefficients),
        )

    @property
    def threshold(self) -> int:
        return len(self.commitments)

    @property
    def secret_commitment(self) -> int:
        """``g^secret`` — commitment to the master key itself."""
        return self.commitments[0]

    def share_public_key(self, index: int) -> int:
        """``y_i = g^{s_i}`` computed from the commitments alone."""
        if index < 1:
            raise ValueError("share indices start at 1")
        acc = 1
        power = 1  # index**j mod q
        for commitment in self.commitments:
            acc = self.group.mul(acc, pow(commitment, power, self.group.p))
            power = (power * index) % self.group.q
        return acc

    def verify_share(self, share: Share) -> bool:
        """Does ``share`` lie on the committed polynomial?"""
        return self.group.exp(self.group.g, share.value) == self.share_public_key(
            share.index
        )

    def canonical_fields(self) -> dict:  # hand-written: a value object, not a message
        return {"commitments": list(self.commitments)}
