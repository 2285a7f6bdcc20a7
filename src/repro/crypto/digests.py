"""Digests and HMAC.

The paper cites MD5 [34]; we use SHA-256 throughout — the interfaces the
middleware needs (fixed-size collision-resistant digest, keyed MAC) are
identical, and SHA-256 keeps the reproduction honest about current practice.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Any

from repro.crypto.encoding import canonical_bytes

DIGEST_SIZE = 32


def digest(data: bytes | Any) -> bytes:
    """SHA-256 digest. Non-bytes inputs are canonically encoded first."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = canonical_bytes(data)
    return hashlib.sha256(data).digest()


def hmac_digest(key: bytes, data: bytes | Any) -> bytes:
    """HMAC-SHA-256 over ``data`` (canonically encoded if not bytes)."""
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise ValueError("HMAC key must be non-empty bytes")
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = canonical_bytes(data)
    return _hmac.new(key, data, hashlib.sha256).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to :func:`hmac.compare_digest`)."""
    return _hmac.compare_digest(a, b)
