"""RSA key generation and full-domain-hash signatures.

The paper relies on RSA [33] for message authentication and non-repudiation
(signed replies serve as *proof* in `change_request` expulsion, §3.6). We
implement textbook RSA with Miller–Rabin keygen and an FDH-style signature:
the message digest is expanded to the modulus width with an MGF1-like mask
generation function before exponentiation, so signatures cover the full
domain and are deterministic (important: replicas sign deterministically).

Signing is by the Chinese remainder theorem — two half-width
exponentiations and Garner's recombination, the same bytes as ``m^d mod n``
for 1/1.6 (256 bits) to 1/2.8 (2048 bits) of its cost — and every signature
is verified before it is released: one faulty half would otherwise hand out
a factor of ``n`` (Boneh–DeMillo–Lipton, ``gcd(s^e - m, n)``).

Default key size is 512 bits — fast enough for simulations with thousands of
signatures, structurally identical to production sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.digests import digest
from repro.crypto.primes import gen_prime

DEFAULT_KEY_BITS = 512
PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class RsaKeyPair:
    """An RSA keypair in CRT form. The private half stays inside this object
    — and out of its ``repr``, so out of tracebacks, assertion diffs and logs."""

    public: RsaPublicKey
    p: int = field(repr=False)
    q: int = field(repr=False)
    d_p: int = field(repr=False)  # e^-1 mod (p - 1)
    d_q: int = field(repr=False)  # e^-1 mod (q - 1)
    q_inv: int = field(repr=False)  # q^-1 mod p

    def sign(self, data: bytes | Any) -> bytes:
        """Deterministic FDH signature over ``data``."""
        n = self.public.n
        m = _full_domain_hash(data, n)
        s_q = pow(m, self.d_q, self.q)
        s_p = pow(m, self.d_p, self.p)
        sig_int = s_q + self.q * ((s_p - s_q) * self.q_inv % self.p)
        if pow(sig_int, self.public.e, n) != m:
            raise ArithmeticError("CRT signature failed its release check; withheld")
        return sig_int.to_bytes((n.bit_length() + 7) // 8, "big")


def verify(public: RsaPublicKey, data: bytes | Any, signature: bytes) -> bool:
    """Check an FDH signature; never raises for malformed input."""
    length = (public.n.bit_length() + 7) // 8
    if len(signature) != length:
        return False
    sig_int = int.from_bytes(signature, "big")
    if not 0 < sig_int < public.n:
        return False
    return pow(sig_int, public.e, public.n) == _full_domain_hash(data, public.n)


def _full_domain_hash(data: bytes | Any, n: int) -> int:
    """Expand H(data) to an integer uniformly below ``n`` (MGF1 style)."""
    seed = digest(data)  # bytes-like as is (no copy), anything else canonically encoded
    need = (n.bit_length() + 7) // 8 + 8
    material = b""
    counter = 0
    while len(material) < need:
        material += digest(seed + counter.to_bytes(4, "big"))
        counter += 1
    return int.from_bytes(material[:need], "big") % n


def generate_rsa_keypair(
    bits: int = DEFAULT_KEY_BITS, rng: random.Random | None = None
) -> RsaKeyPair:
    """Generate an RSA keypair with modulus of roughly ``bits`` bits."""
    if bits < 128:
        raise ValueError("key size too small even for simulation")
    rng = rng or random.Random()
    half = bits // 2
    while True:
        p = gen_prime(half, rng)
        q = gen_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % PUBLIC_EXPONENT == 0:
            continue
        return RsaKeyPair(
            public=RsaPublicKey(n=n, e=PUBLIC_EXPONENT),
            p=p,
            q=q,
            d_p=pow(PUBLIC_EXPONENT, -1, p - 1),
            d_q=pow(PUBLIC_EXPONENT, -1, q - 1),
            q_inv=pow(q, -1, p),
        )
