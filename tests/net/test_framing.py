"""Frame codec properties: arbitrary chunking, truncation, hostile input."""

import random
import struct

import pytest

from repro.net.framing import (
    HEADER_SIZE,
    MAGIC,
    FrameDecoder,
    FrameError,
    encode_frame,
)


def test_round_trip_single_frame():
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
    assert decoder.buffered == 0
    assert decoder.frames_decoded == 1


def test_empty_body_frame():
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(b"")) == [b""]


def test_coalesced_frames_in_one_read():
    bodies = [b"a", b"bb" * 100, b"", b"ccc"]
    stream = b"".join(encode_frame(b) for b in bodies)
    decoder = FrameDecoder()
    assert decoder.feed(stream) == bodies


def test_byte_at_a_time_reads():
    bodies = [b"x" * 7, b"y" * 300]
    stream = b"".join(encode_frame(b) for b in bodies)
    decoder = FrameDecoder()
    out = []
    for at in range(len(stream)):
        out.extend(decoder.feed(stream[at : at + 1]))
    assert out == bodies
    assert decoder.buffered == 0


def test_random_chunkings_preserve_frame_sequence():
    """Property: any read chunking of any frame sequence reassembles it."""
    rng = random.Random(0xF4A)
    for trial in range(25):
        bodies = [
            rng.randbytes(rng.randrange(0, 2000))
            for _ in range(rng.randrange(1, 8))
        ]
        stream = b"".join(encode_frame(b) for b in bodies)
        decoder = FrameDecoder()
        out, at = [], 0
        while at < len(stream):
            take = rng.randrange(1, 97)
            out.extend(decoder.feed(stream[at : at + take]))
            at += take
        assert out == bodies, f"trial {trial} chunking changed the frames"
        assert decoder.buffered == 0


def test_truncated_frame_stays_buffered():
    frame = encode_frame(b"payload")
    decoder = FrameDecoder()
    assert decoder.feed(frame[: HEADER_SIZE + 3]) == []
    assert decoder.buffered == HEADER_SIZE + 3
    # The remainder completes it; nothing was lost or duplicated.
    assert decoder.feed(frame[HEADER_SIZE + 3 :]) == [b"payload"]


def test_truncated_header_stays_buffered():
    decoder = FrameDecoder()
    assert decoder.feed(MAGIC[:2]) == []
    assert decoder.buffered == 2


def test_oversize_body_refuses_to_encode():
    with pytest.raises(FrameError):
        encode_frame(b"x" * 101, max_frame_bytes=100)


def test_oversize_length_claim_rejected_before_buffering_body():
    # A hostile 4 GiB length claim must die at the header, whether or not
    # any body bytes ever arrive.
    header = MAGIC + struct.pack(">I", 0xFFFF0000)
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(header)


def test_bad_magic_rejected():
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(b"JUNK" + struct.pack(">I", 1) + b"x")


def test_desync_after_valid_frame_rejected():
    decoder = FrameDecoder()
    good = encode_frame(b"fine")
    assert decoder.feed(good) == [b"fine"]
    with pytest.raises(FrameError):
        decoder.feed(b"garbage-that-is-not-a-frame")


def test_frame_at_exact_limit_passes():
    body = b"z" * 64
    decoder = FrameDecoder(max_frame_bytes=64)
    assert decoder.feed(encode_frame(body, max_frame_bytes=64)) == [body]


def test_one_read_carrying_thousands_of_frames_and_a_partial_tail():
    bodies = [bytes([i % 251]) * (i % 7) for i in range(5000)]
    stream = b"".join(encode_frame(body) for body in bodies)
    tail = encode_frame(b"unfinished")
    decoder = FrameDecoder()
    assert decoder.feed(stream + tail[:-3]) == bodies
    assert decoder.buffered == len(tail) - 3
    assert decoder.feed(tail[-3:]) == [b"unfinished"]
    assert decoder.buffered == 0
    assert decoder.frames_decoded == 5001
