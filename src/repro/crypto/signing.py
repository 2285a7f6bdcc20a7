"""Signer abstraction, HMAC authenticators, and the keyring.

Two authentication regimes coexist, exactly as in Castro–Liskov:

* **Signatures** (:class:`RsaSigner`) — unforgeable and *transferable*; the
  expulsion protocol needs them because a client forwards signed (ordered)
  replies to the Group Manager as proof of a faulty value (§3.6).
* **MACs** — cheap pairwise HMACs: :class:`HmacAuthenticator` vectors for
  BFT protocol messages, and a client–element key on each tentative read
  reply. Not transferable, so never proof — nor needed as such: the read
  voter accuses no one, and an undecided read falls back to ordering.

The :class:`KeyRing` plays the role of the deployed PKI: it maps process ids
to public keys and is distributed out of band ("the authentication tokens
for each process are adequately protected", §2.2).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any

from repro.crypto.digests import constant_time_equal, hmac_digest
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_rsa_keypair, verify


class Signer(ABC):
    """Something that can sign on behalf of one process."""

    @property
    @abstractmethod
    def signer_id(self) -> str:
        """The process id whose key this signer holds."""

    @abstractmethod
    def sign(self, data: bytes | Any) -> bytes:
        """Produce a signature over canonical bytes of ``data``."""


class RsaSigner(Signer):
    """Signs with a process's RSA private key."""

    def __init__(self, signer_id: str, keypair: RsaKeyPair) -> None:
        self._signer_id = signer_id
        self.keypair = keypair

    @property
    def signer_id(self) -> str:
        return self._signer_id

    @property
    def public(self) -> RsaPublicKey:
        return self.keypair.public

    def sign(self, data: bytes | Any) -> bytes:
        return self.keypair.sign(data)


class KeyRing:
    """Directory of public keys — the simulation's PKI."""

    def __init__(self) -> None:
        self._keys: dict[str, RsaPublicKey] = {}

    def register(self, pid: str, public: RsaPublicKey) -> None:
        existing = self._keys.get(pid)
        if existing is not None and existing != public:
            raise ValueError(f"conflicting key registration for {pid!r}")
        self._keys[pid] = public

    def public_key(self, pid: str) -> RsaPublicKey:
        return self._keys[pid]

    def knows(self, pid: str) -> bool:
        return pid in self._keys

    def verify(self, pid: str, data: bytes | Any, signature: bytes) -> bool:
        """Check ``signature`` by ``pid`` over ``data``; False if unknown pid."""
        public = self._keys.get(pid)
        if public is None:
            return False
        return verify(public, data, signature)

    @staticmethod
    def bootstrap(
        pids: list[str], bits: int = 512, seed: int = 0
    ) -> tuple["KeyRing", dict[str, RsaSigner]]:
        """Create a keyring plus one signer per process id (test/demo helper)."""
        ring = KeyRing()
        signers: dict[str, RsaSigner] = {}
        rng = random.Random(seed)
        for pid in pids:
            keypair = generate_rsa_keypair(bits, rng)
            signer = RsaSigner(pid, keypair)
            ring.register(pid, keypair.public)
            signers[pid] = signer
        return ring, signers


class HmacAuthenticator:
    """Pairwise-MAC authenticator in the Castro–Liskov style.

    Each ordered pair of processes shares a symmetric key; a message carries
    one MAC per receiver (an *authenticator vector*). Cheap, but a MAC only
    convinces its intended receiver — hence not valid expulsion proof.
    """

    def __init__(self, own_id: str, pairwise_keys: dict[str, bytes]) -> None:
        if not own_id:
            raise ValueError("own_id must be non-empty")
        self.own_id = own_id
        self._keys = dict(pairwise_keys)

    def mac_for(self, peer: str, data: bytes | Any) -> bytes:
        key = self._keys[peer]
        return hmac_digest(key, data)

    def knows(self, peer: str) -> bool:
        return peer in self._keys

    def authenticator(self, peers: list[str], data: bytes | Any) -> dict[str, bytes]:
        """MAC vector addressed to every *known* peer in ``peers``.

        Receivers outside the pairwise-key set (e.g. clients of a
        replicated group, who authenticate replies at a different layer)
        simply get no MAC entry.
        """
        return {
            peer: self.mac_for(peer, data) for peer in peers if self.knows(peer)
        }

    def check(self, peer: str, data: bytes | Any, mac: bytes) -> bool:
        key = self._keys.get(peer)
        if key is None:
            return False
        return constant_time_equal(mac, hmac_digest(key, data))

    @staticmethod
    def bootstrap(pids: list[str], seed: int = 0) -> dict[str, "HmacAuthenticator"]:
        """Pairwise keys for a closed set of processes (test/demo helper)."""
        rng = random.Random(seed)
        keys: dict[frozenset[str], bytes] = {}
        for i, a in enumerate(pids):
            for b in pids[i + 1 :]:
                keys[frozenset((a, b))] = rng.randbytes(32)
        out = {}
        for pid in pids:
            pairwise = {
                other: keys[frozenset((pid, other))] for other in pids if other != pid
            }
            out[pid] = HmacAuthenticator(pid, pairwise)
        return out
