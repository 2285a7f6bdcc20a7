"""Unit tests for the per-connection voters."""

import pytest

from repro.itdos.voter import ReplyVoter, RequestVoter
from repro.itdos.vvm import Comparator


def make_reply_voter(n=4, f=1):
    decisions, faults = [], []
    voter = ReplyVoter(
        n=n,
        f=f,
        on_decide=decisions.append,
        on_fault=lambda sender, request_id, evidence: faults.append(sender),
    )
    return voter, decisions, faults


def test_decides_at_f_plus_1_identical():
    voter, decisions, _ = make_reply_voter()
    voter.begin(1, Comparator.exact())
    voter.offer("e0", 1, "v", raw="raw0")
    assert not decisions
    voter.offer("e1", 1, "v", raw="raw1")
    assert len(decisions) == 1
    assert decisions[0].value == "v"
    assert decisions[0].representative == "raw0"


def test_n_too_small_rejected():
    with pytest.raises(ValueError):
        ReplyVoter(n=3, f=1, on_decide=lambda o: None)


def test_does_not_wait_for_all_replicas():
    """§3.6: deciding at 2f+1 avoids vulnerability to deliberately slow
    processes; here even f+1 identical suffices."""
    voter, decisions, _ = make_reply_voter()
    voter.begin(1, Comparator.exact())
    voter.offer("e0", 1, "v")
    voter.offer("e1", 1, "v")
    assert decisions  # decided with only 2 of 4 replies


def test_majority_among_mixed_values():
    voter, decisions, faults = make_reply_voter()
    voter.begin(1, Comparator.exact())
    voter.offer("e0", 1, "bad")
    voter.offer("e1", 1, "good")
    voter.offer("e2", 1, "good")
    assert decisions[0].value == "good"
    assert faults == ["e0"]


def test_late_faulty_reply_detected_after_decision():
    voter, decisions, faults = make_reply_voter()
    voter.begin(1, Comparator.exact())
    voter.offer("e0", 1, "v")
    voter.offer("e1", 1, "v")
    voter.offer("e2", 1, "corrupt")  # straggler with a bad value
    assert faults == ["e2"]
    assert len(decisions) == 1  # no second decision


def test_stale_request_id_discarded_without_penalty():
    voter, decisions, faults = make_reply_voter()
    voter.begin(5, Comparator.exact())
    voter.offer("e0", 4, "old")  # late reply from a previous request
    assert voter.discarded == 1
    assert not faults and not decisions


def test_duplicate_sender_discarded():
    voter, decisions, _ = make_reply_voter()
    voter.begin(1, Comparator.exact())
    voter.offer("e0", 1, "v")
    voter.offer("e0", 1, "v")
    assert voter.discarded == 1
    assert not decisions


def test_request_ids_strictly_increasing():
    voter, _, _ = make_reply_voter()
    voter.begin(1, Comparator.exact())
    with pytest.raises(ValueError):
        voter.begin(1, Comparator.exact())
    voter.begin(2, Comparator.exact())


def test_gc_on_new_request():
    voter, decisions, _ = make_reply_voter()
    voter.begin(1, Comparator.exact())
    voter.offer("e0", 1, "v")
    voter.begin(2, Comparator.exact())
    assert voter.ballots_held == 0
    voter.offer("e0", 1, "v")  # now stale
    assert voter.discarded == 1


def test_memory_bound_under_flood():
    """E9: a reply flood cannot grow voter state without limit."""
    voter, _, _ = make_reply_voter()
    voter.begin(1, Comparator.exact())
    for i in range(1000):
        voter.offer(f"fake-{i}", 1, f"junk-{i}")
    assert voter.ballots_held <= voter.n * 2
    assert voter.discarded >= 1000 - voter.n * 2


# -- ReadVoter ----------------------------------------------------------------


def test_reader_ballots_refused_and_capped_like_core_ballots():
    """A replayed read-tier reply passes its MAC every time, so the voter
    itself must refuse the copies: one ballot per reader, at most n x 2."""
    from repro.itdos.voter import ReadVoter

    lags = []

    def decided(outcome):
        # What the owning connection does on a decision: observe each
        # recorded reader's lag.
        lags.extend(sender for sender, _ in voter.reader_ballots)

    voter = ReadVoter(
        n=4, f=1, core_ids=("e0", "e1", "e2", "e3"), on_decide=decided,
        on_exhausted=lambda read_id: None,
    )
    voter.begin(1, Comparator.exact(), readers_polled=("r0",))
    for _ in range(1000):
        voter.offer("r0", 1, 4, "v", tier="read")
    assert voter.ballots_held <= voter.n * 2
    assert voter.discarded == 999
    for sender in ("e0", "e1", "e2"):
        voter.offer(sender, 1, 5, "v")
    assert voter.decision is not None
    assert lags == ["r0"]
    voter.begin(2, Comparator.exact())
    for i in range(voter.n * 2 + 1):
        voter.offer(f"r{i}", 2, 4, "v", tier="read")
    assert voter.ballots_held == voter.n * 2
    assert voter.discarded == 1000


# -- RequestVoter -------------------------------------------------------------


def make_request_voter(client_n=4, client_f=1):
    delivered = []
    voter = RequestVoter(client_n=client_n, client_f=client_f, on_deliver=delivered.append)
    return voter, delivered


def test_request_delivered_at_f_plus_1_copies():
    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    voter.offer("c0", 1, {"op": "x"}, cmp, raw="m0")
    assert not delivered
    voter.offer("c1", 1, {"op": "x"}, cmp, raw="m1")
    assert len(delivered) == 1
    assert delivered[0].representative == "m0"


def test_request_delivered_once_despite_more_copies():
    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    for sender in ("c0", "c1", "c2", "c3"):
        voter.offer(sender, 1, {"op": "x"}, cmp)
    assert len(delivered) == 1
    assert voter.discarded >= 1  # post-delivery copies discarded


def test_mismatching_copy_does_not_count():
    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    voter.offer("c0", 1, {"op": "x"}, cmp)
    voter.offer("c1", 1, {"op": "FORGED"}, cmp)
    assert not delivered
    voter.offer("c2", 1, {"op": "x"}, cmp)
    assert len(delivered) == 1
    assert "c1" in delivered[0].dissenters


def test_interleaved_request_ids():
    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    voter.offer("c0", 1, "r1", cmp)
    voter.offer("c0", 2, "r2", cmp)  # the same sender's next request
    voter.offer("c1", 1, "r1", cmp)
    assert [d.request_id for d in delivered] == [1]
    voter.offer("c1", 2, "r2", cmp)
    assert [d.request_id for d in delivered] == [1, 2]


def test_request_voter_memory_bounded():
    voter, _ = make_request_voter()
    cmp = Comparator.exact()
    for i in range(100):
        voter.offer(f"fake{i}", 7, f"junk{i}", cmp)
    assert voter.ballots_held <= voter.client_n * 2


def test_duplicate_sender_copy_discarded():
    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    voter.offer("c0", 1, "v", cmp)
    voter.offer("c0", 1, "v", cmp)
    assert voter.discarded == 1
    assert not delivered


def test_pending_request_map_bounded():
    """A flood of distinct future request ids must not grow per-id state
    without bound (voter GC, E9): at most MAX_PENDING_REQUESTS tracked."""
    from repro.itdos.voter import MAX_PENDING_REQUESTS

    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    for rid in range(1, 100):
        voter.offer("c0", rid, f"v{rid}", cmp)
    assert len(voter._pending) <= MAX_PENDING_REQUESTS
    assert voter.ballots_held <= MAX_PENDING_REQUESTS * voter.client_n
    assert not delivered


def test_far_future_id_discarded_when_full():
    from repro.itdos.voter import MAX_PENDING_REQUESTS

    voter, _ = make_request_voter()
    cmp = Comparator.exact()
    for rid in range(1, MAX_PENDING_REQUESTS + 1):
        voter.offer("c0", rid, "v", cmp)
    before = dict(voter._pending)
    voter.offer("c0", 1000, "v", cmp)  # beyond the tracked maximum
    assert 1000 not in voter._pending
    assert voter._pending.keys() == before.keys()  # nothing evicted for it


def test_low_id_evicts_tracked_maximum_and_still_delivers():
    """Ids nearest delivery win the bounded slots: a late copy of a low
    request id evicts the furthest-out id rather than being dropped."""
    from repro.itdos.voter import MAX_PENDING_REQUESTS

    voter, delivered = make_request_voter()
    cmp = Comparator.exact()
    # Fill the table with ids 2..MAX+1 (single copies, undecided).
    for rid in range(2, MAX_PENDING_REQUESTS + 2):
        voter.offer("c0", rid, "v", cmp)
    highest = max(voter._pending)
    voter.offer("c1", 1, "low", cmp)  # full table, new lower id
    assert highest not in voter._pending
    assert 1 in voter._pending
    voter.offer("c2", 1, "low", cmp)  # second copy -> f+1 quorum
    assert [d.request_id for d in delivered] == [1]


# -- telemetry of all three voters ---------------------------------------------


def test_voter_telemetry_rows_and_audit_entries():
    """The exact metric rows and audit entries the three voters emit for a
    decision with one dissenter, a duplicate, a stale copy and an overflow
    (plus RequestVoter's eviction and superseded counts)."""
    from repro.itdos.voter import MAX_PENDING_REQUESTS, ReadVoter
    from repro.obs.telemetry import Telemetry

    t = Telemetry()
    cmp = Comparator.exact()
    reply = ReplyVoter(n=4, f=1, on_decide=lambda o: None, telemetry=t, owner="cli")
    reply.begin(1, cmp)
    reply.offer("e0", 1, "good", raw=(b"p0", b"s0"))
    reply.offer("e0", 1, "good", raw=(b"p0", b"s0"))  # duplicate
    reply.offer("e1", 1, "bad", raw=(b"p1", b"s1"))  # signed dissenter
    reply.offer("e2", 1, "good", raw=(b"p2", b"s2"))  # decides
    reply.offer("e3", 1, "worse", raw="unsigned")  # unsigned straggler dissent
    reply.offer("e3", 0, "old")  # stale
    reply.begin(2, cmp)
    for i in range(9):  # nine distinct values: the ninth overflows
        reply.offer(f"x{i}", 2, f"junk{i}")

    read = ReadVoter(
        n=4, f=1, core_ids=("e0", "e1", "e2", "e3"), on_decide=lambda o: None,
        on_exhausted=lambda read_id: None, telemetry=t, owner="cli",
    )
    read.begin(1, cmp)
    read.offer("e0", 1, 5, "v")
    read.offer("e0", 1, 5, "v")  # duplicate
    read.offer("e1", 1, 5, "w")  # dissents, but a read accuses nobody
    read.offer("e2", 1, 5, "v")
    read.offer("e3", 1, 5, "v")  # decides at 2f+1
    read.offer("e1", 0, 5, "v")  # stale

    request = RequestVoter(
        client_n=4, client_f=1, on_deliver=lambda o: None, telemetry=t, owner="srv"
    )
    request.offer("c0", 1, "r", cmp)
    request.offer("c0", 1, "r", cmp)  # duplicate
    request.offer("c1", 1, "FORGED", cmp)  # dissenter
    request.offer("c2", 1, "r", cmp)  # delivers request 1
    request.offer("c3", 1, "r", cmp)  # stale
    for i in range(9):  # per-id cap: the ninth overflows
        request.offer(f"x{i}", 5, f"junk{i}", cmp)
    for rid in range(6, 5 + MAX_PENDING_REQUESTS):  # fills the pending table
        request.offer("c0", rid, f"v{rid}", cmp)
    request.offer("c0", 99, "far", cmp)  # beyond the tracked maximum: overflow
    request.offer("c0", 2, "v2", cmp)  # lower id evicts the maximum's ballot
    request.offer("c1", 6, "v6", cmp)  # delivers 6, supersedes 2 and 5

    rows = {
        (row["metric"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in t.registry.collect()
        if row["metric"].startswith("voter_")
    }
    assert rows == {
        ("voter_discarded_total", (("kind", "reply"), ("reason", "duplicate"))): 1,
        ("voter_discarded_total", (("kind", "reply"), ("reason", "stale"))): 1,
        ("voter_discarded_total", (("kind", "reply"), ("reason", "overflow"))): 1,
        ("voter_discarded_total", (("kind", "read"), ("reason", "duplicate"))): 1,
        ("voter_discarded_total", (("kind", "read"), ("reason", "stale"))): 1,
        ("voter_discarded_total", (("kind", "request"), ("reason", "duplicate"))): 1,
        ("voter_discarded_total", (("kind", "request"), ("reason", "stale"))): 1,
        ("voter_discarded_total", (("kind", "request"), ("reason", "overflow"))): 3,
        ("voter_discarded_total", (("kind", "request"), ("reason", "superseded"))): 9,
        ("voter_decisions_total", (("kind", "reply"),)): 1,
        ("voter_decisions_total", (("kind", "read"),)): 1,
        ("voter_decisions_total", (("kind", "request"),)): 2,
        ("voter_dissent_total", (("element", "e1"),)): 1,
        ("voter_dissent_total", (("element", "e3"),)): 1,
        ("voter_dissent_total", (("element", "c1"),)): 1,
    }
    assert (reply.discarded, read.discarded, request.discarded) == (3, 2, 14)
    assert {pid: h.dissents for pid, h in t.health.elements.items()} == {
        "e1": 1, "e3": 1, "c1": 1,
    }
    signed = [
        {"sender": s, "plaintext": p.hex(), "signature": g.hex()}
        for s, p, g in (("e0", b"p0", b"s0"), ("e1", b"p1", b"s1"), ("e2", b"p2", b"s2"))
    ]
    entries = [
        (e.kind, e.accused, e.reporter, e.hard, e.detail, e.evidence)
        for e in t.audit.entries
    ]
    assert entries == [
        ("vote-dissent", "e1", "cli", True, "request=1", {
            "request_id": 1, "dissenter": "e1", "supporters": ["e0", "e2"],
            "ballots": signed,
        }),
        ("vote-dissent", "e3", "cli", False, "request=1", {
            "request_id": 1, "dissenter": "e3", "supporters": ["e0", "e2"],
            "ballots": signed,
        }),
        ("request-dissent", "c1", "srv", False, "request=1", {"request_id": 1}),
    ]
