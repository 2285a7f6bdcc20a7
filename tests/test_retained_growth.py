"""Per-request memory stops growing: an element keeps no history list, and
no cache keeps a message the protocol has let go.

``tools/soak.py`` traces allocations from before the build, drives requests,
and compares two snapshots 1,000 requests apart. Every allocation site may
rise by fewer than 500 objects (half an object per request), except
``QueueElement.dispatched``, which the scoreboard's health check still reads.

Objects are not the whole story: a retained request weighs its payload, and
its canonical encoding as much again. So ``payload16k`` (the
``sim_payload16k`` deployment, a 16 KiB value put then read back) must also
retain less than a quarter of one value, net, a request
(``tools.soak.MAX_RETAINED_BYTES_PER_REQUEST``); keeping each request's
bytes costs tens of KB.

Nothing is resized here: the message memos hold an entry only while its
message lives, and the scheduler drops cancelled timers once they outnumber
live ones, so a short warm-up reaches the steady state.
"""

import pytest

from tools.soak import measure

WARMUP = {"calc": 300, "readmix": 300, "payload16k": 200}


@pytest.mark.parametrize("shape", sorted(WARMUP))
def test_no_allocation_site_grows_with_every_request(shape):
    report = measure(shape, first=WARMUP[shape], total=WARMUP[shape] + 1_000)
    assert report.offenders() == [], report.sites[:5]
    # The exempt list does grow, so the snapshots did see the traffic.
    [exempt] = [site for site in report.sites if site.where == report.exempt]
    assert exempt.count_diff >= report.requests / 2
    assert not report.too_heavy(), (report.retained_per_request(), report.sites[:5])
