"""Unit tests for BFT message types: digests and sizes."""

from repro.bft.messages import (
    BatchMsg,
    CatchUpRequest,
    CatchUpResponse,
    ClientRequest,
    FillMsg,
    NewViewMsg,
    PrepareMsg,
    PrePrepareMsg,
    ViewChangeMsg,
)


def make_request(payload=b"op", ts=1):
    return ClientRequest(client_id="c", timestamp=ts, payload=payload)


def make_pre_prepare(seq=1, view=0):
    batch = BatchMsg(requests=(make_request(),))
    return PrePrepareMsg(
        view=view, seq=seq, request_digest=batch.content_digest(),
        batch=batch, sender="r0",
    )


def test_content_digest_stable_and_distinct():
    a = make_request(b"x")
    b = make_request(b"x")
    c = make_request(b"y")
    assert a.content_digest() == b.content_digest()
    assert a.content_digest() != c.content_digest()


def test_digest_excludes_auth():
    import dataclasses

    request = make_request()
    stamped = dataclasses.replace(request, auth=b"mac-bytes")
    assert request.content_digest() == stamped.content_digest()
    assert request == stamped  # auth excluded from equality too


def test_wire_size_includes_payload_and_auth():
    small = make_request(b"")
    big = make_request(b"x" * 1000)
    assert big.wire_size() >= small.wire_size() + 1000
    import dataclasses

    authed = dataclasses.replace(big, auth=b"m" * 32)
    assert authed.wire_size() == big.wire_size() + 32


def test_pre_prepare_size_includes_batch():
    pp = make_pre_prepare()
    assert pp.wire_size() > pp.batch.wire_size()
    assert pp.batch.wire_size() > sum(r.wire_size() for r in pp.batch.requests)


def test_batch_digest_covers_membership_and_order():
    a = make_request(b"a", ts=1)
    b = make_request(b"b", ts=2)
    assert (
        BatchMsg(requests=(a, b)).content_digest()
        != BatchMsg(requests=(b, a)).content_digest()
    )
    assert (
        BatchMsg(requests=(a,)).content_digest()
        != BatchMsg(requests=(a, b)).content_digest()
    )


def test_view_change_canonical_fields_cover_certificates():
    pp = make_pre_prepare()
    vc = ViewChangeMsg(
        new_view=1, stable_seq=0, checkpoints=((0, b"\x00" * 32),),
        pre_prepared=(pp,), prepared=((1, 0, pp.request_digest),), sender="r1",
    )
    fields = vc.canonical_fields()
    assert fields["new_view"] == 1
    assert len(fields["pre_prepared"]) == len(fields["prepared"]) == 1
    assert fields["prepared"] == [[1, 0, pp.request_digest]]
    # Digestable end to end.
    assert len(vc.content_digest()) == 32


def test_new_view_canonical_fields():
    vc = ViewChangeMsg(
        new_view=1, stable_seq=0, checkpoints=(), pre_prepared=(), prepared=(),
        sender="r1",
    )
    nv = NewViewMsg(
        new_view=1, view_changes=(vc,), pre_prepares=(make_pre_prepare(view=1),),
        sender="r1",
    )
    assert len(nv.content_digest()) == 32


def test_state_messages():
    request = CatchUpRequest(attempt=1, sender="r3")
    assert len(request.content_digest()) == 32
    response = CatchUpResponse(
        attempt=1, stable_seq=16, checkpoint=b"s" * 100, blob=b"b" * 50, sender="r0",
    )
    assert response.wire_size() > 150


def test_fill_size_scales_with_entries():
    pp = make_pre_prepare()
    one = FillMsg(entries=(pp,), sender="r0")
    two = FillMsg(entries=(pp, pp), sender="r0")
    assert two.wire_size() > one.wire_size()
