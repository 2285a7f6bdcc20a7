"""Tests for digests, HMAC, and the deterministic PRG."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.digests import constant_time_equal, digest, hmac_digest, hmac_of
from repro.crypto.encoding import canonical_bytes
from repro.crypto.prng import DeterministicPrng

# Key lengths around SHA-256's 64-byte block: up to it a key is padded, past
# it hashed first.
KEYS = st.one_of(
    st.sampled_from([1, 32, 63, 64, 65, 200]), st.integers(min_value=1, max_value=200)
).flatmap(lambda n: st.binary(min_size=n, max_size=n))
WRAPS = st.sampled_from([bytes, bytearray, memoryview])
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def stdlib_hmac(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()


@given(KEYS, st.binary(max_size=300), WRAPS, st.integers(min_value=0, max_value=300))
def test_hmac_is_the_stdlib_hmac_whole_or_split(key, data, wrap, cut):
    expected = stdlib_hmac(key, data)
    head, tail = data[:cut], data[cut:]
    assert hmac_digest(key, wrap(data)) == expected
    assert hmac_digest(key, wrap(head), wrap(tail)) == expected
    assert hmac_digest(bytearray(key), head, tail) == expected
    assert hmac_of(key, wrap(data)) == expected
    assert hmac_of(key, wrap(head), wrap(tail)) == expected
    assert hmac_of(key) == stdlib_hmac(key, b"")


@given(KEYS, VALUES.filter(lambda value: not isinstance(value, bytes)), st.binary(max_size=40))
def test_hmac_of_a_value_is_the_hmac_of_its_canonical_bytes(key, value, suffix):
    # A bytes part is MACed as it is, not encoded; inside a container it is.
    encoded = canonical_bytes(value)
    assert hmac_digest(key, value) == stdlib_hmac(key, encoded)
    assert hmac_digest(key, value, suffix) == stdlib_hmac(key, encoded + suffix)


def test_hmac_past_the_key_cache_bound():
    keys = [i.to_bytes(4, "big") for i in range(1500)]
    for _ in range(2):
        for key in keys:
            assert hmac_digest(key, b"m") == stdlib_hmac(key, b"m")


def test_digest_fixed_size_and_deterministic():
    assert len(digest(b"abc")) == 32
    assert digest(b"abc") == digest(b"abc")
    assert digest(b"abc") != digest(b"abd")


def test_digest_accepts_structured_values():
    assert digest({"a": 1}) == digest({"a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_bytes_like_inputs_hash_as_their_bytes(wrap):
    data = b"payload " * 2048
    assert digest(wrap(data)) == digest(data)
    assert hmac_digest(b"key", wrap(data)) == hmac_digest(b"key", data)
    assert hmac_digest(bytearray(b"key"), data) == hmac_digest(b"key", data)


def test_hmac_requires_key():
    with pytest.raises(ValueError):
        hmac_digest(b"", b"data")


def test_hmac_key_separation():
    assert hmac_digest(b"k1", b"m") != hmac_digest(b"k2", b"m")


def test_constant_time_equal():
    assert constant_time_equal(b"xx", b"xx")
    assert not constant_time_equal(b"xx", b"xy")


def test_prng_reproducible():
    a = DeterministicPrng(b"seed")
    b = DeterministicPrng(b"seed")
    assert a.next_bytes(100) == b.next_bytes(100)


def test_prng_different_seed_differs():
    assert DeterministicPrng(b"s1").next_bytes(32) != DeterministicPrng(b"s2").next_bytes(32)


def test_prng_stream_continuity():
    a = DeterministicPrng(b"seed")
    b = DeterministicPrng(b"seed")
    assert a.next_bytes(10) + a.next_bytes(10) == b.next_bytes(20)


def test_prng_reseed_restarts_stream():
    p = DeterministicPrng(b"one")
    p.next_bytes(64)
    p.reseed(b"two")
    assert p.next_bytes(32) == DeterministicPrng(b"two").next_bytes(32)


def test_prng_rejects_empty_seed():
    with pytest.raises(ValueError):
        DeterministicPrng(b"")
    p = DeterministicPrng(b"x")
    with pytest.raises(ValueError):
        p.reseed(b"")


def test_prng_next_int_bounds():
    p = DeterministicPrng(b"seed")
    values = [p.next_int(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in values)
    assert len(set(values)) == 10  # all residues hit over 200 draws


def test_prng_next_int_rejects_bad_bound():
    p = DeterministicPrng(b"seed")
    with pytest.raises(ValueError):
        p.next_int(0)


def test_prng_nonces_unique():
    p = DeterministicPrng(b"seed")
    nonces = {p.next_nonce() for _ in range(100)}
    assert len(nonces) == 100


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=500))
def test_property_prng_length(seed, n):
    assert len(DeterministicPrng(seed).next_bytes(n)) == n


@given(st.binary(min_size=1, max_size=32), st.integers(min_value=1, max_value=2**40))
def test_property_next_int_in_range(seed, bound):
    assert 0 <= DeterministicPrng(seed).next_int(bound) < bound
