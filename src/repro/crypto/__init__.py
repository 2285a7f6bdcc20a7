"""Cryptographic substrate for ITDOS.

The paper assumes RSA signatures [33], MD5 digests [34], DES-class symmetric
encryption [12], and a distributed (non-interactive) pseudo-random function
[26, 5, 39] for threshold generation of communication keys. No network access
or binary crypto libraries are available here, so this package implements the
whole substrate from scratch in pure Python:

* :mod:`~repro.crypto.encoding` — canonical byte serialisation for signing
  structured protocol messages deterministically.
* :mod:`~repro.crypto.digests` — SHA-256 digests and HMAC (stand-ins for
  MD5-class hashing; same interface, stronger primitive).
* :mod:`~repro.crypto.prng` — a deterministic PRG (SHA-256 in counter mode).
* :mod:`~repro.crypto.rsa` — RSA keygen (Miller–Rabin), FDH-style signing by
  CRT with a verify-before-release check.
* :mod:`~repro.crypto.signing` — signer/verifier abstraction and a keyring.
* :mod:`~repro.crypto.symmetric` — authenticated symmetric encryption
  (SHAKE-256 keystream + HMAC, encrypt-then-MAC).
* :mod:`~repro.crypto.groups` — prime-order subgroup parameters for the
  discrete-log constructions.
* :mod:`~repro.crypto.shamir` / :mod:`~repro.crypto.feldman` — verifiable
  secret sharing of the Group Manager's master PRF key.
* :mod:`~repro.crypto.dleq` — Chaum–Pedersen discrete-log-equality proofs,
  the "verification information" each key share carries (§3.5).
* :mod:`~repro.crypto.dprf` — the threshold distributed PRF itself.
* :mod:`~repro.crypto.coin` — commit-reveal distributed randomness used to
  (re)seed each Group Manager element's PRNG (§3.5).

These are reproduction-grade primitives: correct constructions at laptop
scale, not audited production cryptography.
"""

from repro.crypto.coin import combine_reveals, make_coin_pair
from repro.crypto.digests import digest, hmac_digest
from repro.crypto.dleq import DleqProof, dleq_prove, dleq_verify
from repro.crypto.dprf import DprfPublic, DprfShareholder, KeyShare, combine_shares, dprf_setup
from repro.crypto.encoding import canonical_bytes
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import (
    DlGroup,
    FULL_GROUP,
    RFC5114_GROUP,
    SIM_GROUP,
    TOY_GROUP,
)
from repro.crypto.prng import DeterministicPrng
from repro.crypto.rsa import RsaKeyPair, generate_rsa_keypair
from repro.crypto.shamir import recover_secret, share_secret
from repro.crypto.signing import HmacAuthenticator, KeyRing, RsaSigner, Signer
from repro.crypto.symmetric import SymmetricKey, decrypt, encrypt

__all__ = [
    "DeterministicPrng",
    "DlGroup",
    "DleqProof",
    "DprfPublic",
    "DprfShareholder",
    "FULL_GROUP",
    "FeldmanCommitment",
    "SIM_GROUP",
    "HmacAuthenticator",
    "KeyRing",
    "KeyShare",
    "RFC5114_GROUP",
    "RsaKeyPair",
    "RsaSigner",
    "Signer",
    "SymmetricKey",
    "TOY_GROUP",
    "canonical_bytes",
    "combine_reveals",
    "combine_shares",
    "decrypt",
    "digest",
    "dleq_prove",
    "dleq_verify",
    "dprf_setup",
    "encrypt",
    "generate_rsa_keypair",
    "hmac_digest",
    "make_coin_pair",
    "recover_secret",
    "share_secret",
]
