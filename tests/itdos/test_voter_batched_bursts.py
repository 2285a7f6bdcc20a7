"""Voter garbage collection under batched delivery bursts.

With BFT-level batching, one ordered instance can deliver many requests
back to back — the voters then see reply/request copies for several logical
requests in one burst, interleaved across senders. Memory must stay bounded
and decisions identical to the one-at-a-time schedule (§3.6's GC rule,
experiment E9, now under batch-shaped load).
"""

from repro.itdos.voter import ReplyVoter, RequestVoter
from repro.itdos.vvm import Comparator


def test_request_voter_burst_of_many_ids_decides_each_once():
    delivered = []
    voter = RequestVoter(client_n=4, client_f=1, on_deliver=delivered.append)
    cmp = Comparator.exact()
    # A batch of 8 logical requests arrives element by element: all of c0's
    # copies first, then c1's — the interleaving batching produces.
    for sender in ("c0", "c1"):
        for request_id in range(1, 9):
            voter.offer(sender, request_id, f"val-{request_id}", cmp)
    assert [d.request_id for d in delivered] == list(range(1, 9))
    assert {d.value for d in delivered} == {f"val-{r}" for r in range(1, 9)}
    # Everything decided was garbage-collected.
    assert voter.ballots_held == 0


def test_request_voter_burst_gc_drops_superseded_ids():
    delivered = []
    voter = RequestVoter(client_n=4, client_f=1, on_deliver=delivered.append)
    cmp = Comparator.exact()
    # c0 contributes copies for ids 1..6; c1's copies arrive only for id 6.
    for request_id in range(1, 7):
        voter.offer("c0", request_id, "v", cmp)
    assert voter.ballots_held == 6
    voter.offer("c1", 6, "v", cmp)
    assert [d.request_id for d in delivered] == [6]
    # Deciding id 6 garbage-collects the older stragglers wholesale.
    assert voter.ballots_held == 0
    assert voter.discarded >= 5


def test_request_voter_memory_bounded_across_burst():
    voter = RequestVoter(client_n=4, client_f=1, on_deliver=lambda o: None)
    cmp = Comparator.exact()
    # Undecidable flood across many ids: each id stays below threshold but
    # the per-id cap still bounds every ballot list.
    for request_id in range(1, 33):
        for i in range(20):
            voter.offer(f"fake-{i}", request_id, f"junk-{i}", cmp)
    per_id_cap = voter.client_n * 2
    assert voter.ballots_held <= 32 * per_id_cap
    assert voter.discarded >= 32 * (20 - per_id_cap)


def test_reply_voter_rapid_begin_cycle_under_burst():
    decisions = []
    voter = ReplyVoter(n=4, f=1, on_decide=decisions.append)
    # The connection turns over one request per batch slot: begin/offer/
    # decide many times in a row, with stragglers from the previous slot
    # landing mid-cycle.
    for request_id in range(1, 17):
        voter.begin(request_id, Comparator.exact())
        if request_id > 1:
            voter.offer("e3", request_id - 1, "late")  # straggler: stale
        voter.offer("e0", request_id, f"v{request_id}")
        voter.offer("e1", request_id, f"v{request_id}")
        assert voter.ballots_held <= voter.n * 2
    assert [d.request_id for d in decisions] == list(range(1, 17))
    assert voter.discarded == 15  # one stale straggler per later slot
