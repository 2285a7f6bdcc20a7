"""Per-request memory stops growing: an element keeps no history list.

``tools/soak.py`` traces allocations from before the build, drives requests,
and compares two snapshots 1,000 requests apart. Every allocation site may
rise by fewer than 500 objects (half an object per request), except
``QueueElement.dispatched``, which the scoreboard's health check still reads.

The message memo caches are shrunk to 64 entries here so that their fill
does not read as growth; at full size they hold 8,192 entries each, and the
nightly 200,000-request soak covers them.

The warm-up before the first snapshot is long enough for the scheduler's
heap of cancelled timers to level off: about 1,000 requests on ``calc``,
but about 2,200 on ``readmix``, whose requests are mostly fast-path reads
of about 2.3 simulated ms each under timers of up to 5 simulated seconds.
"""

import pytest

from repro.bft import messages
from tools.soak import measure

WARMUP = {"calc": 1_000, "readmix": 2_500}


@pytest.mark.parametrize("shape", sorted(WARMUP))
def test_no_allocation_site_grows_with_every_request(shape, monkeypatch):
    monkeypatch.setattr(messages._ENCODING_CACHE, "maxsize", 64)
    monkeypatch.setattr(messages._DIGEST_CACHE, "maxsize", 64)
    report = measure(shape, first=WARMUP[shape], total=WARMUP[shape] + 1_000)
    assert report.offenders() == [], report.sites[:5]
    # The exempt list does grow, so the snapshots did see the traffic.
    [exempt] = [site for site in report.sites if site.where == report.exempt]
    assert exempt.count_diff >= report.requests / 2
