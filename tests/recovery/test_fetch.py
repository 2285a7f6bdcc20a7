"""repro.bft.catchup.CatchUp against scripted responses.

The driver is exercised on its own: a stub element records what is sent
and which timers are armed, and the test plays the peers — so every rule
of the round (who may answer, what counts as agreement, when it adopts,
when it gives up) is pinned without a simulated deployment. A response's
``stable_seq`` stands for its freshness here, and its checkpoint bytes for
the state it carries, in both its checkpoint and its blob unless a test
splits them.
"""

from types import SimpleNamespace

from repro.bft.catchup import CatchUp
from repro.bft.messages import CatchUpRequest, CatchUpResponse
from repro.crypto.digests import digest
from repro.obs.telemetry import NOOP_TELEMETRY


class StubElement:
    """The slice of ItdosServerElement the driver touches."""

    def __init__(self, pid="kv-e0", f=1):
        n = 3 * f + 1
        self.pid = pid
        self.domain_id = "kv"
        self.domain_info = SimpleNamespace(
            f=f, n=n, element_ids=tuple(f"kv-e{i}" for i in range(n))
        )
        self.telemetry = NOOP_TELEMETRY
        self.sent: list[tuple[str, CatchUpRequest]] = []
        self.timers: dict[int, tuple[float, object]] = {}
        self._next_handle = 0

    def send(self, dst, payload):
        self.sent.append((dst, payload))

    def set_timer(self, delay, callback):
        self._next_handle += 1
        self.timers[self._next_handle] = (delay, callback)
        return self._next_handle

    def cancel_timer(self, handle):
        return self.timers.pop(handle, None) is not None

    def fire_window(self):
        [(handle, (_, callback))] = self.timers.items()
        del self.timers[handle]
        callback()


def response(sender, attempt=1, appended=10, tag=b"honest", blob=None):
    return CatchUpResponse(
        attempt=attempt, stable_seq=appended, checkpoint=tag,
        blob=tag if blob is None else blob, sender=sender,
    )


def make_fetch(element=None, acceptable=lambda r: True, adopt_result=True):
    element = element or StubElement()
    log = SimpleNamespace(adopted=[], gave_up=0, element=element)

    def adopt(r):
        log.adopted.append(r)
        return adopt_result if not callable(adopt_result) else adopt_result(r)

    def on_give_up():
        log.gave_up += 1

    fetch = CatchUp(
        element, element.domain_info.element_ids, element.domain_info.f, element.send,
        lambda r: r.stable_seq if acceptable(r) else None, adopt, on_give_up,
    )
    return fetch, log


def test_round_asks_every_core_peer_but_not_itself():
    fetch, log = make_fetch()
    fetch.start()
    assert [dst for dst, _ in log.element.sent] == ["kv-e1", "kv-e2", "kv-e3"]
    assert {req.attempt for _, req in log.element.sent} == {1}
    assert {req.sender for _, req in log.element.sent} == {"kv-e0"}
    [(delay, _)] = log.element.timers.values()
    assert delay == CatchUp.FETCH_WINDOW


def test_a_reader_asks_all_n_core_elements_and_needs_2f_plus_1():
    fetch, log = make_fetch(StubElement(pid="kv-r0"))
    fetch.start()
    assert len(log.element.sent) == 4
    assert fetch.required_matching() == 3


def test_adopts_at_the_quorum_without_waiting_out_the_window():
    fetch, log = make_fetch()
    fetch.start()
    fetch.handle_response("kv-e1", response("kv-e1"))
    fetch.handle_response("kv-e2", response("kv-e2"))
    assert log.adopted == [] and fetch.active  # 2 of the 3 needed
    fetch.handle_response("kv-e3", response("kv-e3"))
    assert [r.sender for r in log.adopted] == ["kv-e1"]
    assert not fetch.active
    assert log.element.timers == {}  # the window timer was cancelled
    assert log.gave_up == 0


def test_f_liars_with_a_matching_but_wrong_fingerprint_are_never_adopted():
    """f colluders agree with each other on a forged state; alone they
    never reach any quorum, in any round."""
    element = StubElement(f=2)  # n=7, six peers, two of them lying
    fetch, log = make_fetch(element)
    fetch.start()
    for _ in range(CatchUp.MAX_ATTEMPTS):
        attempt = fetch.attempt
        for liar in ("kv-e1", "kv-e2"):
            fetch.handle_response(
                liar, response(liar, attempt=attempt, appended=99, tag=b"forged")
            )
        assert log.adopted == []
        element.fire_window()
    assert log.adopted == [] and log.gave_up == 1

    # Even at the relaxed f+1 quorum of the late rounds the forged state
    # stays one short, and the honest one wins although the forgery claims
    # to be fresher.
    fetch.start()
    for _ in range(CatchUp.FULL_QUORUM_ATTEMPTS):
        element.fire_window()
    attempt = fetch.attempt
    assert fetch.required_matching() == 3
    for liar in ("kv-e1", "kv-e2"):
        fetch.handle_response(
            liar, response(liar, attempt=attempt, appended=99, tag=b"forged")
        )
    for honest in ("kv-e3", "kv-e4", "kv-e5"):
        assert log.adopted == []
        fetch.handle_response(honest, response(honest, attempt=attempt))
    [adopted] = log.adopted
    assert adopted.stable_seq == 10


def test_stale_misattributed_and_foreign_responses_are_ignored():
    fetch, log = make_fetch()
    fetch.start()
    element = log.element
    element.fire_window()  # nothing arrived: round 2
    assert fetch.attempt == 2
    fetch.handle_response("kv-e1", response("kv-e1", attempt=1))  # stale round
    fetch.handle_response("kv-e1", response("kv-e2", attempt=2))  # sender != src
    fetch.handle_response("calc-e2", response("calc-e2", attempt=2))  # another domain
    fetch.handle_response("kv-r0", response("kv-r0", attempt=2))  # not a core element
    fetch.handle_response("kv-e0", response("kv-e0", attempt=2))  # ourselves
    assert fetch._responses == {}
    # A repeat from the same sender replaces its answer, it does not add one.
    for _ in range(3):
        fetch.handle_response("kv-e3", response("kv-e3", attempt=2))
    assert list(fetch._responses) == ["kv-e3"] and log.adopted == []


def test_rounds_one_to_three_need_2f_plus_1_and_round_four_accepts_f_plus_1():
    fetch, log = make_fetch()
    fetch.start()
    element = log.element
    for attempt in (1, 2, 3):
        assert fetch.attempt == attempt and fetch.required_matching() == 3
        fetch.handle_response("kv-e1", response("kv-e1", attempt=attempt))
        fetch.handle_response("kv-e2", response("kv-e2", attempt=attempt))
        assert log.adopted == []
        [(delay, _)] = element.timers.values()
        assert delay == CatchUp.FETCH_WINDOW * attempt  # the window grows
        element.fire_window()
    assert fetch.attempt == 4 and fetch.required_matching() == 2
    fetch.handle_response("kv-e1", response("kv-e1", attempt=4))
    assert log.adopted == []
    fetch.handle_response("kv-e2", response("kv-e2", attempt=4))
    assert len(log.adopted) == 1 and not fetch.active


def test_agreement_the_caller_cannot_accept_is_not_adopted():
    fetch, log = make_fetch(acceptable=lambda r: r.stable_seq >= 10)
    fetch.start()
    element = log.element
    for _ in range(3):
        element.fire_window()
    assert fetch.required_matching() == 2
    attempt = fetch.attempt
    # Two peers agree on a position behind ours: a quorum, but not for us.
    fetch.handle_response("kv-e1", response("kv-e1", attempt, appended=7, tag=b"old"))
    fetch.handle_response("kv-e2", response("kv-e2", attempt, appended=7, tag=b"old"))
    assert log.adopted == [] and fetch.active
    fetch.handle_response("kv-e3", response("kv-e3", attempt, appended=12))
    element.fire_window()  # still no acceptable quorum: next round
    assert log.adopted == [] and fetch.attempt == attempt + 1


def test_failed_adoption_goes_another_round():
    outcomes = iter([False, True])
    fetch, log = make_fetch(adopt_result=lambda r: next(outcomes))
    fetch.start()
    for peer in ("kv-e1", "kv-e2", "kv-e3"):
        fetch.handle_response(peer, response(peer))
    assert len(log.adopted) == 1 and fetch.active and fetch.attempt == 2
    for peer in ("kv-e1", "kv-e2", "kv-e3"):
        fetch.handle_response(peer, response(peer, attempt=2))
    assert len(log.adopted) == 2 and not fetch.active


def test_last_attempt_gives_up_once_and_leaves_no_timer():
    fetch, log = make_fetch()
    fetch.start()
    element = log.element
    for _ in range(CatchUp.MAX_ATTEMPTS):
        element.fire_window()
    assert log.gave_up == 1
    assert not fetch.active
    assert element.timers == {}
    assert len(element.sent) == 3 * CatchUp.MAX_ATTEMPTS
    # A late answer to the last round changes nothing.
    fetch.handle_response(
        "kv-e1", response("kv-e1", attempt=CatchUp.MAX_ATTEMPTS)
    )
    assert log.adopted == [] and log.gave_up == 1


def test_one_answer_that_is_the_callers_own_certificate_is_enough():
    """A checkpoint the caller's group certified to the caller itself needs
    no quorum of answers; a blob beside it, which no certificate covers,
    still does."""
    fetch, log = make_fetch()
    fetch.certificate = (10, digest(b"honest"))
    fetch.start()
    fetch.handle_response("kv-e1", response("kv-e1", tag=b"forged", blob=b""))
    fetch.handle_response("kv-e2", response("kv-e2"))
    assert log.adopted == []
    fetch.handle_response("kv-e3", response("kv-e3", blob=b""))
    [adopted] = log.adopted
    assert adopted.sender == "kv-e3"


def test_a_liars_true_blob_counts_and_its_forged_checkpoint_does_not():
    """f liars send the honest blob beside a forged checkpoint: their blob
    makes the quorum with the honest answers, their checkpoint never does,
    so the answer adopted is an honest one."""
    element = StubElement(f=2)  # n=7, six peers, two of them lying
    fetch, log = make_fetch(element)
    fetch.start()
    for _ in range(CatchUp.FULL_QUORUM_ATTEMPTS):
        element.fire_window()
    attempt = fetch.attempt
    for liar in ("kv-e1", "kv-e2"):
        fetch.handle_response(liar, response(liar, attempt, tag=b"forged", blob=b"state"))
    fetch.handle_response("kv-e3", response("kv-e3", attempt, blob=b"state"))
    assert log.adopted == []  # the blob has three voices, the checkpoint one
    fetch.handle_response("kv-e4", response("kv-e4", attempt, blob=b"state"))
    assert log.adopted == []
    fetch.handle_response("kv-e5", response("kv-e5", attempt, blob=b"state"))
    [adopted] = log.adopted
    assert adopted.checkpoint == b"honest"
