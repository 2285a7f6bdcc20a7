"""Length-prefixed frame codec for the TCP backend.

A frame is ``MAGIC (4) | length (4, big-endian) | body (length bytes)``.
TCP is a byte stream: one ``write()`` may arrive split across many reads
or coalesced with its neighbours, so the decoder is an incremental state
machine — feed it arbitrary chunks, collect whole frame bodies.

Hardening (the paper's §2.2 threat model reaches the wire here):

* a frame announcing a body larger than ``max_frame_bytes`` is rejected
  *before* any allocation proportional to the claim — a Byzantine peer
  cannot balloon our memory with a 4 GiB length prefix;
* a bad magic means the stream is desynchronised (or the peer is not
  speaking our protocol); there is no resynchronisation heuristic — the
  connection must be dropped and re-established;
* truncated frames simply stay buffered: TCP delivers the rest or the
  connection dies, and a half frame is never exposed to the payload layer.
"""

from __future__ import annotations

import struct

MAGIC = b"RPN1"
HEADER_SIZE = len(MAGIC) + 4
#: Default ceiling on one frame's body. Queue-state snapshots are the
#: largest payloads in the system; 16 MiB leaves headroom over the 4 MiB
#: default MessageQueue bound while still refusing absurd claims.
DEFAULT_MAX_FRAME = 16 << 20
_LENGTH = struct.Struct(">I")


class FrameError(ValueError):
    """The byte stream is not a valid frame sequence (drop the connection)."""


def encode_frame(body: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame around ``body``. Oversize bodies refuse to encode —
    the sender must fail loudly rather than emit a frame every correct
    receiver rejects."""
    if len(body) > max_frame_bytes:
        raise FrameError(
            f"frame body {len(body)} bytes exceeds limit {max_frame_bytes}"
        )
    return b"".join((MAGIC, _LENGTH.pack(len(body)), body))


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary read chunking."""

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self.frames_decoded = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb one read's bytes; return every frame body completed by it.

        Raises :class:`FrameError` on bad magic or an oversize length
        claim; the caller must treat the stream as dead afterwards.
        """
        buffer = self._buffer
        if buffer:  # part of a frame is waiting: continue it in place
            buffer.extend(data)
            data = buffer
        frames: list[bytes] = []
        cursor = 0
        # Each body is copied out once; ``data`` may be reused once we return.
        with memoryview(data) as view:
            filled = len(view)
            while filled - cursor >= HEADER_SIZE:
                if view[cursor : cursor + len(MAGIC)] != MAGIC:
                    magic = bytes(view[cursor : cursor + len(MAGIC)])
                    raise FrameError(f"bad frame magic {magic!r}")
                (length,) = _LENGTH.unpack_from(view, cursor + len(MAGIC))
                if length > self.max_frame_bytes:
                    raise FrameError(
                        f"frame claims {length} bytes, limit {self.max_frame_bytes}"
                    )
                end = cursor + HEADER_SIZE + length
                if end > filled:
                    break  # truncated: wait for more bytes
                frames.append(bytes(view[cursor + HEADER_SIZE : end]))
                cursor = end
            if data is not buffer:
                buffer.extend(view[cursor:])  # the rest waits for the next read
        if data is buffer:
            del buffer[:cursor]  # cut once per feed, after the view is released
        self.frames_decoded += len(frames)
        return frames
