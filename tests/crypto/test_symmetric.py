"""Tests for authenticated symmetric encryption."""

import hashlib
import hmac
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.symmetric import (
    AuthenticationError,
    KEY_SIZE,
    NONCE_SIZE,
    TAG_SIZE,
    SymmetricKey,
    decrypt,
    encrypt,
)


def nonce_from_counter(counter: int) -> bytes:
    """A unique nonce from a strictly increasing counter: the tests' own
    derivation (SMIOP uses ``repro.itdos.sockets.traffic_nonce``)."""
    if not 0 <= counter < 2**64:
        raise ValueError("counter must be in [0, 2**64)")
    return struct.pack(">QQ", 0, counter)


KEY = SymmetricKey(material=b"k" * KEY_SIZE, key_id=1)
OTHER = SymmetricKey(material=b"j" * KEY_SIZE, key_id=2)
NONCE = b"n" * NONCE_SIZE


def test_roundtrip():
    blob = encrypt(KEY, b"secret payload", NONCE)
    assert decrypt(KEY, blob) == b"secret payload"


def test_empty_plaintext_roundtrip():
    assert decrypt(KEY, encrypt(KEY, b"", NONCE)) == b""


def test_ciphertext_differs_from_plaintext():
    blob = encrypt(KEY, b"secret payload!!", NONCE)
    assert b"secret payload!!" not in blob


def test_wrong_key_rejected():
    blob = encrypt(KEY, b"data", NONCE)
    with pytest.raises(AuthenticationError):
        decrypt(OTHER, blob)


def test_tampered_ciphertext_rejected():
    blob = bytearray(encrypt(KEY, b"data", NONCE))
    blob[NONCE_SIZE] ^= 0x01
    with pytest.raises(AuthenticationError):
        decrypt(KEY, bytes(blob))


def test_tampered_tag_rejected():
    blob = bytearray(encrypt(KEY, b"data", NONCE))
    blob[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        decrypt(KEY, bytes(blob))


def test_truncated_blob_rejected():
    with pytest.raises(AuthenticationError):
        decrypt(KEY, b"short")


def test_bad_nonce_length_rejected():
    with pytest.raises(ValueError):
        encrypt(KEY, b"x", b"short")


def test_key_size_enforced():
    with pytest.raises(ValueError):
        SymmetricKey(material=b"short")


def test_key_material_not_in_canonical_fields():
    fields = KEY.canonical_fields()
    assert "material" not in fields
    assert fields["key_id"] == 1


def test_different_nonce_different_ciphertext():
    a = encrypt(KEY, b"data", nonce_from_counter(1))
    b = encrypt(KEY, b"data", nonce_from_counter(2))
    assert a != b


def test_nonce_from_counter_unique_and_sized():
    nonces = {nonce_from_counter(i) for i in range(100)}
    assert len(nonces) == 100
    assert all(len(n) == NONCE_SIZE for n in nonces)


@pytest.mark.parametrize("counter", [-1, 2**64, 2**64 + 1, 2**200])
def test_nonce_from_counter_rejects_out_of_range(counter):
    with pytest.raises(ValueError):
        nonce_from_counter(counter)


def test_nonce_from_counter_accepts_the_whole_range():
    assert nonce_from_counter(0) == bytes(16)
    assert nonce_from_counter(2**64 - 1) == bytes(8) + b"\xff" * 8


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=2**32))
def test_property_roundtrip(plaintext, counter):
    blob = encrypt(KEY, plaintext, nonce_from_counter(counter))
    assert decrypt(KEY, blob) == plaintext


@given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=2**16))
def test_property_single_bitflip_always_detected(plaintext, flip_pos):
    blob = bytearray(encrypt(KEY, plaintext, NONCE))
    flip_pos %= len(blob)
    blob[flip_pos] ^= 0x01
    with pytest.raises(AuthenticationError):
        decrypt(KEY, bytes(blob))


# -- the construction, pinned -----------------------------------------------------

KAT_KEY = SymmetricKey(material=bytes(range(KEY_SIZE)), key_id=1)

# Changing any of these changes every byte ITDOS puts on the wire under a
# communication key: do it deliberately, not as a side effect.
KNOWN_ANSWERS = [
    (
        b"",
        nonce_from_counter(0),
        "00000000000000000000000000000000"
        "e81a0267d781075b3ca2fcf70e30a4c31583beb2d5a79bbf808d70b21a89d91d",
    ),
    (
        b"secret payload",
        nonce_from_counter(1),
        "00000000000000000000000000000001"
        "b2debd6f85eb8b252109a41cd7de"
        "ac74c8dcdf265e0efa951a769888645e26bc29a7a6440a7595029d2d3ae8c10a",
    ),
    (
        bytes(range(33)),
        b"n" * NONCE_SIZE,
        "6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e"
        "1c846a20b3ad9a55d6785c440153da0c47c9f896f6dffe158c8b2ecac44a264dbe"
        "065017c3c190726cfc60b9954860e8c04b3e243c28121f140b0bd8bd51b1c34f",
    ),
]


def reference_encrypt(key: SymmetricKey, plaintext: bytes, nonce: bytes) -> bytes:
    """The construction spelled out slowly: one byte at a time, plain HMAC."""
    enc_key = hashlib.sha256(key.material + b"|enc").digest()
    mac_key = hashlib.sha256(key.material + b"|mac").digest()
    stream = hashlib.shake_256(enc_key + nonce).digest(len(plaintext))
    ciphertext = bytes([p ^ s for p, s in zip(plaintext, stream)])
    tag = hmac.new(mac_key, nonce + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


@pytest.mark.parametrize(
    "plaintext, nonce, expected", KNOWN_ANSWERS, ids=["empty", "short", "33-bytes"]
)
def test_known_answer(plaintext, nonce, expected):
    blob = encrypt(KAT_KEY, plaintext, nonce)
    assert blob.hex() == expected
    assert reference_encrypt(KAT_KEY, plaintext, nonce).hex() == expected
    assert decrypt(KAT_KEY, blob) == plaintext


EDGE_LENGTHS = [0, 1, 31, 32, 33, 16_384, 65_537]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(min_value=0, max_value=4096)),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_property_matches_reference(length, content_seed, counter):
    plaintext = random.Random(content_seed).randbytes(length)
    nonce = nonce_from_counter(counter)
    blob = encrypt(KEY, plaintext, nonce)
    assert blob == reference_encrypt(KEY, plaintext, nonce)
    assert len(blob) == NONCE_SIZE + length + TAG_SIZE
    assert decrypt(KEY, blob) == plaintext


def test_leading_zero_bytes_survive():
    # The XOR goes through big integers; lengths must not be normalised away.
    plaintext = bytes(40)
    blob = encrypt(KEY, plaintext, NONCE)
    assert blob == reference_encrypt(KEY, plaintext, NONCE)
    assert decrypt(KEY, blob) == plaintext


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_bytes_like_plaintext_and_blob_accepted(wrap):
    plaintext = b"bytes-like " * 100
    blob = encrypt(KEY, wrap(plaintext), NONCE)
    assert type(blob) is bytes
    assert blob == encrypt(KEY, plaintext, NONCE)
    recovered = decrypt(KEY, wrap(blob))
    assert type(recovered) is bytes
    assert recovered == plaintext


def test_bytes_like_tampering_still_detected():
    blob = bytearray(encrypt(KEY, b"data", NONCE))
    blob[NONCE_SIZE] ^= 0x01
    with pytest.raises(AuthenticationError):
        decrypt(KEY, memoryview(blob))


def test_subkeys_derived_once_per_key_object():
    key = SymmetricKey(material=b"d" * KEY_SIZE)
    assert key.enc_key is key.enc_key
    assert key.mac_key is key.mac_key
    assert key.enc_key != key.mac_key
    # The cached subkeys are not part of the key's identity.
    assert key == SymmetricKey(material=b"d" * KEY_SIZE)
    assert hash(key) == hash(SymmetricKey(material=b"d" * KEY_SIZE))


# sha256 of ``encrypt`` at fixed inputs, recorded before the per-key state was
# cached: the AEAD's bytes must not move with how the work is arranged.
PINNED_KEY = SymmetricKey(material=bytes(range(KEY_SIZE)), key_id=1)
PINNED_NONCE = bytes(range(100, 116))
PINNED_DIGESTS = {
    0: "84fbbb8c2a025b46b096786a27a72906a6128e22669e25fd46cf173da25fea5e",
    1: "df3e5339e8d7ae63c123720f5bc43772d6d756bd937e97598e3c7bc292f395a0",
    64: "b334a7d3e3ba22d78878d60c7e64d9fda2dbea3112b9a2e045e45be36481fa96",
    65: "fde073b1b581ec5c0f8499bf568a04dbfe489af8f324b9cf2e841c903087a05c",
    16_384: "a5c78b1444d08fb4bddf00481500f87dcbd13e42a663ca8434142915e6ca860f",
}


@pytest.mark.parametrize("length", sorted(PINNED_DIGESTS))
def test_ciphertext_bytes_pinned(length):
    plaintext = bytes(i * 7 % 251 for i in range(length))
    blob = encrypt(PINNED_KEY, plaintext, PINNED_NONCE)
    assert hashlib.sha256(blob).hexdigest() == PINNED_DIGESTS[length]
    assert blob == reference_encrypt(PINNED_KEY, plaintext, PINNED_NONCE)
    assert decrypt(PINNED_KEY, blob) == plaintext


def test_keystream_state_is_copied_not_consumed():
    key = SymmetricKey(material=b"s" * KEY_SIZE)
    assert key.keystream is key.keystream
    first = encrypt(key, b"same plaintext", NONCE)
    encrypt(key, b"another message", b"m" * NONCE_SIZE)
    assert encrypt(key, b"same plaintext", NONCE) == first
    assert key.keystream.digest(8) == hashlib.shake_256(key.enc_key).digest(8)


class _Counted:
    """A hash object whose ``copy()`` is recorded as a construction."""

    def __init__(self, inner, built: list, name: str) -> None:
        self.inner, self.built, self.name = inner, built, name

    def update(self, data) -> None:
        self.inner.update(data)

    def digest(self, *size) -> bytes:
        return self.inner.digest(*size)

    def copy(self) -> "_Counted":
        self.built.append(f"{self.name}.copy")
        return _Counted(self.inner.copy(), self.built, self.name)


def test_hash_constructions_per_call_are_bounded(monkeypatch):
    """A count, not a timing: a per-block keystream loop builds hundreds of
    hash objects for 16 KiB and cannot come back unnoticed. Copying a
    prepared state counts as a construction; what depends only on the key
    is built on the key's first use and never again."""
    built = []
    depth = [0]

    def counting(name, constructor, wrap):
        def construct(*args, **kwargs):
            # hmac may build its inner and outer hashes through hashlib;
            # that is one construction here, not three.
            outer = depth[0] == 0
            if outer:
                built.append(name)
            depth[0] += 1
            try:
                made = constructor(*args, **kwargs)
            finally:
                depth[0] -= 1
            return _Counted(made, built, name) if wrap and outer else made

        return construct

    for module, name, wrap in [
        (hashlib, "sha256", True),
        (hashlib, "shake_256", True),
        (hashlib, "new", True),
        (hmac, "new", False),
        (hmac, "digest", False),
    ]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name), wrap))

    # Cold: material no other test uses, so neither the subkeys, the
    # keystream state nor the HMAC pad states exist yet.
    key = SymmetricKey(material=b"construction count, cold key set")
    plaintext = bytes(16_384)
    blob = encrypt(key, plaintext, NONCE)
    fresh = [name for name in built if not name.endswith(".copy")]
    # enc_key, mac_key, the keystream state, the inner and outer pad states
    assert len(fresh) <= 5, built
    assert len(built) - len(fresh) <= 4, built
    # Warm: nothing keyed is built again, only copies of prepared states.
    del built[:]
    encrypt(key, plaintext, b"w" * NONCE_SIZE)
    assert all(name.endswith(".copy") for name in built), built
    assert 1 <= len(built) <= 4, built
    del built[:]
    assert decrypt(key, blob) == plaintext
    assert all(name.endswith(".copy") for name in built), built
    assert 1 <= len(built) <= 4, built
