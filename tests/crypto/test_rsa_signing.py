"""Tests for RSA signatures, the keyring, and HMAC authenticators."""

import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.rsa import generate_rsa_keypair, verify
from repro.crypto.signing import HmacAuthenticator, KeyRing, RsaSigner


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(bits=512, rng=random.Random(1))


def test_sign_verify_roundtrip(keypair):
    sig = keypair.sign(b"message")
    assert verify(keypair.public, b"message", sig)


def test_signature_deterministic(keypair):
    assert keypair.sign(b"m") == keypair.sign(b"m")


def test_verify_rejects_wrong_message(keypair):
    sig = keypair.sign(b"message")
    assert not verify(keypair.public, b"other", sig)


def test_verify_rejects_tampered_signature(keypair):
    sig = bytearray(keypair.sign(b"message"))
    sig[0] ^= 0xFF
    assert not verify(keypair.public, b"message", bytes(sig))


def test_verify_rejects_wrong_length(keypair):
    assert not verify(keypair.public, b"m", b"short")


def test_verify_rejects_other_key(keypair):
    other = generate_rsa_keypair(bits=512, rng=random.Random(2))
    sig = keypair.sign(b"m")
    assert not verify(other.public, b"m", sig)


def test_structured_data_signing(keypair):
    sig = keypair.sign({"op": "transfer", "amount": 10})
    assert verify(keypair.public, {"amount": 10, "op": "transfer"}, sig)
    assert not verify(keypair.public, {"op": "transfer", "amount": 11}, sig)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_any_bytes_like_gives_one_signature(keypair, wrap):
    sig = keypair.sign(wrap(b"abc"))
    assert sig == keypair.sign(b"abc")
    assert verify(keypair.public, wrap(b"abc"), sig)
    assert not verify(keypair.public, wrap(b"abd"), sig)


# -- CRT signing: same bytes as m^d mod n, never released unchecked ---------
#
# The full-width private exponent ``d`` and ``pow(m, d, n)`` exist only here,
# as the oracle the product's CRT path is compared against.

#: ``bits -> (modulus, signature of each KNOWN_MESSAGES entry)``, hex, for
#: ``generate_rsa_keypair(bits, random.Random(21))`` — produced by the
#: full-width ``pow(m, d, n)`` signer of the commit before CRT signing.
KNOWN_ANSWERS = {
    256: (
        "703034c86c5b450a85728f2cc8e30b4db871b0313f2bec82cccb63521424b685",
        "6566946f88b08f1a965aae36465cb9fe115b47bb328c8fa8457d78f6f63ad4ab",
        "4f32708b421f21670c0e1cd704802827f5e20f0918ac612c2cc8b1ab8d32d076",
        "0d1fdc691fcb8bfb651b1611ed4c2dd5de7ee3c0b11cf22edaef3f93d54a4502",
    ),
    512: (
        "66e7bd0aa5b75319475b59727c10f1b1bafc9dd6c01ddec7904736303ea4d2b4"
        "c17a20f006a24d48add3b40da27c4efb5a0aaafbdbe54e9196706fd85b76758f",
        "526b425d2a0eef83f3de355c8cdc51510530525da309f314c6d156d9b6f2a115"
        "8222f80aac8687af67754a7c9692876ffdc6ff982efdb75865d4da5b1277e43d",
        "0f9c9a5a2e192ad7d4ed2f224f48092af90afa5143b97cdc9bb614d81e90159b"
        "77b5a4955a98db6b3659d935d33d1897d4b6167f06df8c13f67c0309b781a9f7",
        "318879021e8b75835d9247e758297764d9a4ea37cf1554303c39b983c8bd0515"
        "5ace27e1af2694e5f9497591d128cf57b5e8bed052e21b8e5a7a8156d2e76976",
    ),
}
KNOWN_MESSAGES = (
    b"",
    b"ITDOS signed reply",
    {"view": 3, "seq": 17, "digest": b"\x00" * 32},
)


@pytest.mark.parametrize("bits", sorted(KNOWN_ANSWERS))
def test_known_answer_signatures(bits):
    modulus, *expected = KNOWN_ANSWERS[bits]
    signer = generate_rsa_keypair(bits, random.Random(21))
    assert format(signer.public.n, "x") == modulus
    assert [signer.sign(m).hex() for m in KNOWN_MESSAGES] == expected


@functools.lru_cache(maxsize=None)
def seeded_keypair(bits):
    return generate_rsa_keypair(bits, random.Random(bits))


def private_exponent(kp):
    return pow(kp.public.e, -1, (kp.p - 1) * (kp.q - 1))


KEY_SIZES = (128, 160, 255, 256, 384, 512, 768, 1024)


@pytest.mark.parametrize("bits", KEY_SIZES)
def test_keygen_crt_invariants(bits):
    kp = seeded_keypair(bits)
    d = private_exponent(kp)
    assert kp.p != kp.q and kp.p * kp.q == kp.public.n
    assert kp.q_inv * kp.q % kp.p == 1
    assert kp.d_p == d % (kp.p - 1)
    assert kp.d_q == d % (kp.q - 1)


@settings(max_examples=80, deadline=None)
@given(bits=st.sampled_from(KEY_SIZES), data=st.binary(max_size=300))
def test_crt_signature_is_the_full_width_signature(bits, data):
    kp = seeded_keypair(bits)
    n = kp.public.n
    expected = pow(rsa._full_domain_hash(data, n), private_exponent(kp), n)
    sig = kp.sign(data)
    assert sig == expected.to_bytes((n.bit_length() + 7) // 8, "big")
    assert verify(kp.public, data, sig)


@pytest.mark.parametrize("param", ["d_p", "d_q", "q_inv"])
def test_faulty_crt_half_is_withheld_because_it_would_factor_the_modulus(param):
    kp = seeded_keypair(256)
    faulty = dataclasses.replace(kp, **{param: getattr(kp, param) ^ 1})
    with pytest.raises(ArithmeticError):
        faulty.sign(b"reply")
    # What it refused to release (Boneh-DeMillo-Lipton): recombine the two
    # halves as sign() does; one of them is right, so s^e - m is a multiple
    # of one prime and not of the other.
    n, e = kp.public.n, kp.public.e
    m = rsa._full_domain_hash(b"reply", n)
    s_q = pow(m, faulty.d_q, faulty.q)
    s_p = pow(m, faulty.d_p, faulty.p)
    s = s_q + faulty.q * ((s_p - s_q) * faulty.q_inv % faulty.p)
    assert math.gcd(pow(s, e, n) - m, n) in (kp.p, kp.q)


@pytest.mark.parametrize("bits", [256, 512])
def test_sign_is_two_half_width_pows_and_the_release_check(bits, monkeypatch):
    kp = seeded_keypair(bits)
    calls = []

    def counting_pow(base, exponent, modulus):
        calls.append((exponent, modulus))
        return pow(base, exponent, modulus)

    monkeypatch.setattr(rsa, "pow", counting_pow, raising=False)
    kp.sign(b"reply")
    assert [modulus for _, modulus in calls] == [kp.q, kp.p, kp.public.n]
    assert calls[2][0] == kp.public.e
    assert all(exponent.bit_length() <= bits // 2 for exponent, _ in calls[:2])


def test_private_key_stays_out_of_repr(keypair):
    signer = RsaSigner("p0", keypair)
    shown = " ".join([repr(keypair), str(keypair), repr(signer), str(signer)]).lower()
    assert str(keypair.public.n) in shown  # the public half is printable
    for name in ("p", "q", "d_p", "d_q", "q_inv"):
        secret = getattr(keypair, name)
        assert name + "=" not in shown
        assert str(secret) not in shown and format(secret, "x") not in shown


def test_keygen_rejects_tiny_keys():
    with pytest.raises(ValueError):
        generate_rsa_keypair(bits=64)


def test_keygen_distinct_keys():
    rng = random.Random(3)
    a = generate_rsa_keypair(256, rng)
    b = generate_rsa_keypair(256, rng)
    assert a.public.n != b.public.n


def test_keyring_bootstrap_and_verify():
    ring, signers = KeyRing.bootstrap(["p0", "p1"], bits=256, seed=0)
    sig = signers["p0"].sign(b"hello")
    assert ring.verify("p0", b"hello", sig)
    assert not ring.verify("p1", b"hello", sig)
    assert not ring.verify("ghost", b"hello", sig)


def test_keyring_conflicting_registration_rejected():
    ring, signers = KeyRing.bootstrap(["a"], bits=256, seed=1)
    other = generate_rsa_keypair(256, random.Random(9))
    with pytest.raises(ValueError):
        ring.register("a", other.public)
    # Re-registering the same key is fine (idempotent).
    ring.register("a", signers["a"].public)


def test_keyring_knows():
    ring, _ = KeyRing.bootstrap(["a"], bits=256, seed=2)
    assert ring.knows("a")
    assert not ring.knows("b")


def test_rsa_signer_identity():
    _, signers = KeyRing.bootstrap(["x"], bits=256, seed=3)
    assert signers["x"].signer_id == "x"
    assert isinstance(signers["x"], RsaSigner)


def test_hmac_authenticator_pairwise():
    auths = HmacAuthenticator.bootstrap(["a", "b", "c"], seed=0)
    mac = auths["a"].mac_for("b", b"msg")
    assert auths["b"].check("a", b"msg", mac)
    assert not auths["b"].check("a", b"other", mac)
    assert not auths["c"].check("a", b"msg", mac)  # not c's key


def test_hmac_authenticator_vector():
    auths = HmacAuthenticator.bootstrap(["a", "b", "c"], seed=0)
    vector = auths["a"].authenticator(["b", "c"], b"m")
    assert set(vector) == {"b", "c"}
    assert auths["b"].check("a", b"m", vector["b"])
    assert auths["c"].check("a", b"m", vector["c"])


def test_hmac_check_unknown_peer_false():
    auths = HmacAuthenticator.bootstrap(["a", "b"], seed=0)
    assert not auths["a"].check("zz", b"m", b"\x00" * 32)


def test_hmac_macs_not_transferable():
    # The MAC a->b does not verify as a MAC a->c: this is why MACs cannot
    # serve as expulsion proof (§3.6) while signatures can.
    auths = HmacAuthenticator.bootstrap(["a", "b", "c"], seed=0)
    mac_ab = auths["a"].mac_for("b", b"m")
    mac_ac = auths["a"].mac_for("c", b"m")
    assert mac_ab != mac_ac
