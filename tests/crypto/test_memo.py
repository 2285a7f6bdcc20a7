"""WeakMemo and the digest/marshal/stamp caches layered on it."""

import dataclasses
import gc

from repro.bft.auth import HmacAuth, RsaAuth
from repro.bft.messages import (
    BatchMsg,
    ClientRequest,
    PrepareMsg,
    marshal_cache_stats,
)
from repro.crypto.digests import digest
from repro.crypto.encoding import canonical_bytes
from repro.crypto.memo import WeakMemo
from repro.crypto.signing import HmacAuthenticator, KeyRing


# -- the memo itself -----------------------------------------------------------


class Key:
    """A weakly referenceable key that compares by value, like a message."""

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Key) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


def test_memo_cache_basic_get_put():
    cache = WeakMemo()
    a = Key("a")
    assert cache.get(a, "x") is None
    cache.put(a, "x", 1)
    cache.put(a, "y", 2)
    assert cache.get(Key("a"), "x") == 1 and cache.get(a, "y") == 2
    assert cache.get(a, "z") is None
    assert len(cache) == 1
    assert cache.hits == 2 and cache.misses == 2


def test_memo_cache_memo_computes_once():
    cache = WeakMemo()
    calls = []

    def compute():
        calls.append(1)
        return 42

    k = Key("k")
    assert cache.memo(k, compute) == 42
    assert cache.memo(Key("k"), compute) == 42
    assert len(calls) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5
    stats = cache.stats()
    assert stats["size"] == 1.0 and stats["hit_rate"] == 0.5


def test_weak_memo_entry_dies_with_its_key():
    cache = WeakMemo()
    first = Key("k")
    cache.memo(first, lambda: b"bytes")
    equal = Key("k")
    assert cache.memo(equal, lambda: b"other") == b"bytes"  # shared while alive
    del first
    gc.collect()
    # The entry was stored under ``first``; an equal live key keeps nothing.
    assert len(cache) == 0
    assert cache.memo(equal, lambda: b"fresh") == b"fresh"
    assert cache.stats()["evictions"] == 0.0


# -- message-level memoization -------------------------------------------------


def test_canonical_encoding_memoized_and_correct():
    request = ClientRequest(client_id="c", timestamp=1, payload=b"x")
    encoded = request.canonical_encoding()
    assert encoded == canonical_bytes(request)
    # Same object returns the identical bytes object (per-instance slot).
    assert request.canonical_encoding() is encoded
    assert request.content_digest() == digest(encoded)


def test_equal_messages_share_cached_encoding():
    a = ClientRequest(client_id="c", timestamp=7, payload=b"shared")
    b = ClientRequest(client_id="c", timestamp=7, payload=b"shared")
    assert a is not b and a == b
    # The second instance hits the shared L2 cache (same bytes object).
    assert a.canonical_encoding() is b.canonical_encoding()
    assert a.content_digest() is b.content_digest()


def test_stamped_copy_shares_clean_encoding():
    clean = PrepareMsg(view=0, seq=1, request_digest=b"\x00" * 32, sender="r0")
    stamped = dataclasses.replace(clean, auth=b"mac")
    # auth is outside equality/hash, so the cached encoding carries over.
    assert clean.canonical_encoding() is stamped.canonical_encoding()
    assert clean.content_digest() == stamped.content_digest()


def test_marshal_cache_stats_shape():
    stats = marshal_cache_stats()
    assert set(stats) == {"encoding", "digest"}
    for sub in stats.values():
        assert {"size", "hits", "misses", "evictions", "hit_rate"} <= set(sub)


# -- stamp caches in the auth strategies ---------------------------------------


def test_hmac_stamp_cache_reuses_authenticator_vector():
    auths = HmacAuthenticator.bootstrap(["a", "b", "c"], seed=0)
    auth = HmacAuth(auths["a"])
    message = PrepareMsg(view=0, seq=1, request_digest=b"\x01" * 32, sender="a")
    first = auth.stamp(message, ["a", "b", "c"])
    assert set(first.auth) == {"b", "c"}
    # A rebuilt-but-equal message returns the SAME stamped object.
    rebuilt = PrepareMsg(view=0, seq=1, request_digest=b"\x01" * 32, sender="a")
    assert auth.stamp(rebuilt, ["a", "b", "c"]) is first
    assert auth.stamp_cache.hits == 1
    # Receivers verify the cached vector.
    assert HmacAuth(auths["b"]).accept("a", first)
    assert HmacAuth(auths["c"]).accept("a", first)


def test_hmac_stamp_cache_distinguishes_receiver_sets():
    auths = HmacAuthenticator.bootstrap(["a", "b", "c"], seed=0)
    auth = HmacAuth(auths["a"])
    message = PrepareMsg(view=0, seq=2, request_digest=b"\x02" * 32, sender="a")
    broadcast = auth.stamp(message, ["a", "b", "c"])
    p2p = auth.stamp(message, ["b"])
    assert set(broadcast.auth) == {"b", "c"}
    assert set(p2p.auth) == {"b"}


def test_rsa_stamp_cache_reuses_signature():
    ring, signers = KeyRing.bootstrap(["a", "b"], bits=256, seed=0)
    auth = RsaAuth(signers["a"], ring)
    message = PrepareMsg(view=0, seq=3, request_digest=b"\x03" * 32, sender="a")
    first = auth.stamp(message, ["b"])
    rebuilt = PrepareMsg(view=0, seq=3, request_digest=b"\x03" * 32, sender="a")
    second = auth.stamp(rebuilt, ["b"])
    assert second is first
    assert auth.stamp_cache.hits == 1
    assert RsaAuth(signers["b"], ring).accept("a", first)


def test_stamp_cache_entry_dies_with_message():
    auths = HmacAuthenticator.bootstrap(["a", "b"], seed=0)
    auth = HmacAuth(auths["a"])
    for seq in range(10):
        auth.stamp(
            PrepareMsg(view=0, seq=seq, request_digest=b"\x04" * 32, sender="a"),
            ["b"],
        )
    held = PrepareMsg(view=0, seq=99, request_digest=b"\x04" * 32, sender="a")
    stamped = auth.stamp(held, ["b"])
    gc.collect()
    # Only the message still referenced keeps its stamped form; the stamped
    # copy itself does not keep the entry alive.
    assert len(auth.stamp_cache) == 1
    del held
    gc.collect()
    assert len(auth.stamp_cache) == 0 and stamped.auth


def test_message_memos_hold_no_message():
    requests = [
        ClientRequest(client_id="c", timestamp=t, payload=bytes(1024))
        for t in range(1000, 1100)
    ]
    before = marshal_cache_stats()
    for request in requests:
        request.content_digest()
    grown = marshal_cache_stats()
    assert grown["encoding"]["size"] >= before["encoding"]["size"] + 100
    del requests, request
    gc.collect()
    after = marshal_cache_stats()
    # The memos shrink back as the messages go: no entry outlives its key.
    assert after["encoding"]["size"] <= before["encoding"]["size"]
    assert after["digest"]["size"] <= before["digest"]["size"]


def test_batch_digest_uses_memoized_members():
    requests = tuple(
        ClientRequest(client_id="c", timestamp=t, payload=b"p") for t in range(3)
    )
    batch = BatchMsg(requests=requests)
    d1 = batch.content_digest()
    assert batch.content_digest() is d1
    assert BatchMsg(requests=requests).content_digest() == d1
