"""A replica that crashes and recovers keeps its timers.

A timer that falls due while the process is crashed is held and fires on
``recover()``: the retransmission tick (and with it the status beacon)
resumes, and the recovered replica is indistinguishable from a peer that
never crashed.
"""

from __future__ import annotations

from tests.bft.conftest import Harness
from tests.equivalence import armed_timers, same_state, state_of


def test_timer_due_during_a_crash_fires_on_recover():
    harness = Harness()
    assert harness.invoke_and_run([b"op"]) == [b"ok:op"]
    r1, r2 = harness.replica(1), harness.replica(2)
    r2.crash()
    harness.run(until=harness.network.now + 1.0)
    r2.recover()
    before = {r.pid: r.messages_sent.get("StatusMsg", 0) for r in (r1, r2)}
    harness.run(until=harness.network.now + 5.0)
    sent = {r.pid: r.messages_sent.get("StatusMsg", 0) - before[r.pid] for r in (r1, r2)}
    # One beacon per view-change timeout, as from a peer that never crashed.
    assert sent[r2.pid] > 0
    assert abs(sent[r2.pid] - sent[r1.pid]) <= 1, sent
    assert "_retransmit_timer" in armed_timers(r2)
    assert same_state(r2, r1), (state_of(r2), state_of(r1))
