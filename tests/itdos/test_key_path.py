"""The DPRF key path: its bytes, its group arithmetic, and what it detects.

Every connection and every rekey runs this path (§3.5): each Group Manager
element evaluates a share with a Chaum–Pedersen proof, and each participant
checks the shares and interpolates ``f_gm + 1`` of them. The pins below are
sha256 digests taken before the path learned to hash each nonce once, check
each share once and read the member keys from the public parameters; the
counts are what one handshake costs now.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import random

import pytest

from repro.crypto.dprf import DprfShareholder, KeyShare, combine_shares, dprf_setup
from repro.crypto.groups import SIM_GROUP, TOY_GROUP, DlGroup
from repro.itdos.keys import ConnectionKeys, KeyStore
from repro.workloads.scenarios import build_kv_system

NONCES = [b"nonce-0", b"nonce-1", b"nonce-2"]

SHARES_SHA256 = "4fc0b580454ad0117462690f1c0cdfa1fc4f79ff0b6fe78e0cdfe0568bed3d29"
KEYS_SHA256 = "bd657ec02a392b153da72d496b9e1615f46b5791226ef9dfa1345e6aaac6310c"
INSTALLED_SHA256 = "dd1b6d31860dc917b9df1054b4dfc8fe9d75393babd36e08c18672b4cd4373f0"


def sha256_of(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# -- bytes ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sim_shares():
    public, holders = dprf_setup(SIM_GROUP, n=4, f=1, rng=random.Random(0))
    return public, {x: [h.evaluate(x) for h in holders] for x in NONCES}


def test_every_share_and_proof_is_pinned(sim_shares):
    _, shares = sim_shares
    rows = [
        (s.index, s.value, s.proof.challenge, s.proof.response)
        for x in NONCES
        for s in shares[x]
    ]
    assert sha256_of(rows) == SHARES_SHA256


def test_the_key_of_every_threshold_subset_is_pinned(sim_shares):
    public, shares = sim_shares
    keys = [
        combine_shares(public, x, list(subset)).material.hex()
        for x in NONCES
        for subset in itertools.combinations(shares[x], public.threshold)
    ]
    assert sha256_of(keys) == KEYS_SHA256


# -- one handshake ----------------------------------------------------------------


@pytest.fixture(scope="module")
def handshake():
    """The first connection of a built f = 1 kv system, with every call to
    ``DlGroup.hash_to_element``, ``contains`` and ``exp`` charged to the
    participant (``KeyStore.offer_share``) or the GM shareholder
    (``DprfShareholder.evaluate``) it was made for."""
    counts: collections.Counter = collections.Counter()
    actor = ["none"]

    def counted(name):
        original = getattr(DlGroup, name)

        def call(self, *args):
            counts[actor[0], name] += 1
            return original(self, *args)

        return call

    def acting_as(original, who):
        def call(self, *args, **kwargs):
            previous, actor[0] = actor[0], who(self)
            try:
                return original(self, *args, **kwargs)
            finally:
                actor[0] = previous

        return call

    system = build_kv_system(f=1, seed=7)
    system.settle(1.0)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("hash_to_element", "contains", "exp"):
            patch.setattr(DlGroup, name, counted(name))
        patch.setattr(
            KeyStore, "offer_share", acting_as(KeyStore.offer_share, lambda s: s.owner_pid)
        )
        patch.setattr(
            DprfShareholder,
            "evaluate",
            acting_as(DprfShareholder.evaluate, lambda s: f"holder-{s.index}"),
        )
        alice = system.add_client("alice")
        results = []
        alice.async_invoke(system.ref("kv", b"kv"), "put", ("k", "v"), results.append)
        system.network.run(
            until=system.network.now + 30.0,
            stop_when=lambda: bool(results),
            max_events=2_000_000,
        )
        system.settle(0.5)
    assert results == [None]
    participants = [alice] + system.domain_elements("kv")
    return counts, participants


def test_every_participant_installs_the_pinned_key(handshake):
    _, participants = handshake
    installed = [(p.pid, p.key_store.key_for(1, 0).material.hex()) for p in participants]
    assert sha256_of(installed) == INSTALLED_SHA256


def test_one_handshake_hashes_each_nonce_once_and_checks_each_share_once(handshake):
    counts, participants = handshake
    pids = [p.pid for p in participants]
    assert len(pids) == 5
    def of(actor):
        return tuple(counts[actor, name] for name in ("hash_to_element", "contains", "exp"))

    for pid in pids:
        # Four shares arrive: the nonce is hashed once, and each share costs
        # one subgroup check and four exponentiations.
        assert of(pid) == (1, 4, 16), pid
    for holder in (f"holder-{i}" for i in range(1, 5)):
        # sigma = h^s, then the proof's two commitments.
        assert of(holder) == (1, 0, 3), holder
    totals = collections.Counter()
    for (_, name), n in counts.items():
        totals[name] += n
    assert dict(totals) == {"hash_to_element": 9, "contains": 20, "exp": 92}


# -- the assembly's detection semantics --------------------------------------------


@pytest.fixture(scope="module")
def toy():
    return dprf_setup(TOY_GROUP, n=4, f=1, rng=random.Random(0))


def tampered(share: KeyShare) -> KeyShare:
    """Still a subgroup element, but not ``h^{s_i}``: only the proof fails."""
    return KeyShare(share.index, TOY_GROUP.mul(share.value, TOY_GROUP.g), share.proof)


def test_a_tampered_share_among_the_first_f_plus_1_is_flagged_and_never_combined(toy):
    public, holders = toy
    store = KeyStore(public)
    nonce = b"n"
    shares = [h.evaluate(nonce) for h in holders]
    assert store.offer_share("gm-0", 1, 0, nonce, tampered(shares[0])) is None
    assert store.offer_share("gm-1", 1, 0, nonce, shares[1]) is None
    assert store._pending[1, 0].invalid_reasons == ["verify"]
    assert 1 not in store._pending[1, 0].held  # index 1 = gm-0's share
    key = store.offer_share("gm-2", 1, 0, nonce, shares[2])
    assert key.material == combine_shares(public, nonce, shares[1:3]).material
    assert store.invalid_share_events == [("gm-0", 1, 0)]


def test_a_tampered_straggler_is_still_recorded(toy):
    public, holders = toy
    store = KeyStore(public)
    nonce = b"n"
    shares = [h.evaluate(nonce) for h in holders]
    store.offer_share("gm-0", 1, 0, nonce, shares[0])
    assert store.offer_share("gm-1", 1, 0, nonce, shares[1]) is not None
    assert store.offer_share("gm-2", 1, 0, nonce, tampered(shares[2])) is None
    assert store.offer_share("gm-3", 1, 0, nonce, shares[3]) is None
    assert store.invalid_share_events == [("gm-2", 1, 0)]


def test_a_share_checked_under_one_nonce_never_enters_anothers_key(toy):
    public, holders = toy
    store = KeyStore(public)
    a = holders[0].evaluate(b"nonce-A")
    b1, b2 = holders[1].evaluate(b"nonce-B"), holders[2].evaluate(b"nonce-B")
    store.offer_share("gm-0", 1, 0, b"nonce-A", a)
    assert store.offer_share("gm-1", 1, 0, b"nonce-B", b1) is None
    # B's shares are checked against H(B), not the point A's share brought.
    assert store._pending[1, 0].invalid_reasons == ["nonce"]
    key = store.offer_share("gm-2", 1, 0, b"nonce-B", b2)
    assert key.material == combine_shares(public, b"nonce-B", [b1, b2]).material
    assert store.connections[1].point_for(0, b"nonce-B") == public.hash_input(b"nonce-B")
    assert store.connections[1].point_for(0, b"nonce-A") is None
    # And the share of A passed off under B fails its check.
    assert store.offer_share("gm-0", 2, 0, b"nonce-B", a) is None
    assert store._pending[2, 0].invalid_reasons == ["verify"]


def test_stragglers_under_other_nonces_do_not_grow_the_store(toy):
    public, holders = toy
    store = KeyStore(public)
    for key_id in range(100):
        nonce = b"gen-%d" % key_id
        store.offer_share("gm-0", 1, key_id, nonce, holders[0].evaluate(nonce))
        assert store.offer_share("gm-1", 1, key_id, nonce, holders[1].evaluate(nonce))
        for other in (b"liar-%d-a" % key_id, b"liar-%d-b" % key_id):
            # Valid shares, each under a nonce of its own: checked, not kept.
            store.offer_share("gm-2", 1, key_id, other, holders[2].evaluate(other))
    keys = store.connections[1]
    assert store.invalid_share_events == []
    assert set(keys.inputs) == set(keys.keys)
    assert len(keys.inputs) == ConnectionKeys.RETAINED_GENERATIONS + 1
    # A fence drops the points with the keys it drops.
    nonce = b"readmitted"
    for gm, holder in zip(("gm-0", "gm-1"), holders):
        store.offer_share(gm, 1, 100, nonce, holder.evaluate(nonce), epoch=1, fence_floor=1)
    assert set(keys.inputs) == set(keys.keys) == {100}
