"""Digests and HMAC.

The paper cites MD5 [34]; we use SHA-256 throughout — the interfaces the
middleware needs (fixed-size collision-resistant digest, keyed MAC) are
identical, and SHA-256 keeps the reproduction honest about current practice.

HMAC is RFC 2104 over SHA-256, byte for byte what ``hmac.new(key, data,
sha256)`` returns, but the part that depends only on the key — the key
padded to one block and XORed with ipad and opad (hashed first if longer
than a block), then absorbed into an inner and an outer SHA-256 state — is
computed once per key and kept in one bounded cache. Each MAC copies the
two states and hashes only the message and the inner digest.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from functools import lru_cache
from typing import Any

from repro.crypto.encoding import canonical_bytes

DIGEST_SIZE = 32
_BLOCK = 64  # SHA-256's block size, the HMAC pad length
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_BYTES_LIKE = (bytes, bytearray, memoryview)


def digest(data: bytes | Any) -> bytes:
    """SHA-256 digest. Non-bytes inputs are canonically encoded first."""
    if not isinstance(data, _BYTES_LIKE):
        data = canonical_bytes(data)
    return hashlib.sha256(data).digest()


@lru_cache(maxsize=1024)
def _keyed(key: bytes) -> tuple[Any, Any]:
    """The inner and outer SHA-256 states with ``key``'s pads absorbed."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def hmac_of(key: bytes, *parts: Any) -> bytes:
    """HMAC-SHA-256 of ``parts`` concatenated, from ``key``'s cached states.

    The one HMAC implementation. It checks nothing: ``key`` must be
    non-empty ``bytes`` and every part bytes-like. :func:`hmac_digest` is
    the checked entry point; the AEAD tag calls this directly.
    """
    inner, outer = _keyed(key)
    inner = inner.copy()
    for part in parts:
        inner.update(part)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_digest(key: bytes, *parts: bytes | Any) -> bytes:
    """HMAC-SHA-256 over ``parts`` in order (each canonically encoded if not
    bytes-like); one part or the same bytes split anywhere give one MAC."""
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise ValueError("HMAC key must be non-empty bytes")
    for part in parts:
        if not isinstance(part, _BYTES_LIKE):
            parts = [p if isinstance(p, _BYTES_LIKE) else canonical_bytes(p) for p in parts]
            break
    return hmac_of(bytes(key), *parts)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to :func:`hmac.compare_digest`)."""
    return _hmac.compare_digest(a, b)
