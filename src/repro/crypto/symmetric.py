"""Authenticated symmetric encryption for communication keys.

§3.5: "Symmetric key encryption using group communication keys provides
client-server confidentiality." The construction is encrypt-then-MAC over
an XOF stream cipher:

* keystream: the first ``len(plaintext)`` bytes of
  ``SHAKE-256(enc_key || nonce)``, squeezed in one call,
* ciphertext: plaintext XOR keystream, as one big-integer XOR,
* tag: ``HMAC-SHA-256(mac_key, nonce || ciphertext)``,
* ``enc_key``/``mac_key`` derived from the communication key by domain
  separation, so one shared secret yields independent subkeys.

What depends only on the key is computed once per key object: the two
subkeys, and the SHAKE-256 state with ``enc_key`` already absorbed, which
each message copies before absorbing its nonce. The tag's pad states are
cached per ``mac_key`` by :func:`~repro.crypto.digests.hmac_of`, so the tag
is RFC 2104 HMAC byte for byte; ciphertexts and tags are exactly those of
the construction above spelled out call by call.

Every byte-proportional step is a single call into C; §4 names large
objects under confidentiality as the performance obstacle, and a
per-byte or per-block Python loop here was 70 % of a 16 KiB invocation.
A nonce must never repeat under one key (callers derive it from strictly
increasing request identifiers). Reproduction-grade, not a vetted AEAD.

Wire format: ``nonce(16) || ciphertext || tag(32)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.crypto.digests import constant_time_equal, hmac_of

NONCE_SIZE = 16
TAG_SIZE = 32
KEY_SIZE = 32


class AuthenticationError(Exception):
    """Ciphertext failed integrity verification."""


@dataclass(frozen=True)
class SymmetricKey:
    """A communication key (§3.5) plus its bookkeeping identity.

    ``key_id`` identifies the key *generation* for a client/server
    association; rekeying after expulsion bumps the generation so stale
    ciphertext is rejected cheaply.
    """

    material: bytes
    key_id: int = 0

    def __post_init__(self) -> None:
        if len(self.material) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes")

    @cached_property
    def enc_key(self) -> bytes:
        return hashlib.sha256(self.material + b"|enc").digest()

    @cached_property
    def mac_key(self) -> bytes:
        return hashlib.sha256(self.material + b"|mac").digest()

    @cached_property
    def keystream(self) -> Any:
        """SHAKE-256 with ``enc_key`` absorbed; copied, never updated."""
        return hashlib.shake_256(self.enc_key)

    def canonical_fields(self) -> dict:
        # Only the id is ever serialised; material never goes on the wire.
        return {"key_id": self.key_id}


def _stream_xor(key: SymmetricKey, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the keystream for ``(key, nonce)``; its own inverse."""
    xof = key.keystream.copy()
    xof.update(nonce)
    size = len(data)
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(xof.digest(size), "big")
    return mixed.to_bytes(size, "big")


def _tag(key: SymmetricKey, nonce: bytes, ciphertext: bytes) -> bytes:
    return hmac_of(key.mac_key, nonce, ciphertext)


def encrypt(key: SymmetricKey, plaintext: bytes, nonce: bytes) -> bytes:
    """Encrypt and authenticate ``plaintext``.

    The caller supplies the nonce: SMIOP derives it with
    :func:`repro.itdos.sockets.traffic_nonce` from the connection, its
    strictly increasing request identifier, the sender and the direction,
    so that no nonce repeats under one key.
    """
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
    ciphertext = _stream_xor(key, nonce, plaintext)
    return b"".join((nonce, ciphertext, _tag(key, nonce, ciphertext)))


def decrypt(key: SymmetricKey, blob: bytes) -> bytes:
    """Verify and decrypt; raises :class:`AuthenticationError` on tamper."""
    if len(blob) < NONCE_SIZE + TAG_SIZE:
        raise AuthenticationError("ciphertext too short")
    view = memoryview(blob)
    nonce = view[:NONCE_SIZE]
    ciphertext = view[NONCE_SIZE:-TAG_SIZE]
    if not constant_time_equal(view[-TAG_SIZE:], _tag(key, nonce, ciphertext)):
        raise AuthenticationError("bad authentication tag")
    return _stream_xor(key, nonce, ciphertext)

