"""Golden bytes for the real wire: one PrepareMsg datagram and its frame.

Hand-laid, segment by segment, from the format definitions in
``repro.crypto.encoding`` (tag | ulong length | body, containers carry a
ulong count, mapping keys sorted), ``repro.net.wire`` (a registered
dataclass is ``{"__wire__": name, "f": {field: value}}``; a datagram is
``{"dst", "p", "src"}`` with ``p`` the payload's own encoding) and
``repro.net.framing`` (``RPN1`` | ulong length | body). They pin the wire
format across rewrites of the send path: any byte that moves is a
protocol change, not an optimisation.
"""

from repro.bft import messages as bft
from repro.net.framing import FrameDecoder, encode_frame
from repro.net.wire import decode_datagram, encode_datagram, encode_wire_payload

MESSAGE = bft.PrepareMsg(view=1, seq=2, request_digest=b"\xaa\xbb", sender="e1")

PAYLOAD_HEX = (
    "4d 00000082 00000002"  # M, 130 body bytes, 2 items
    "  53 00000008 5f5f776972655f5f"  # S "__wire__"
    "  53 0000000a 507265706172654d7367"  # S "PrepareMsg"
    "  53 00000001 66"  # S "f"
    "  4d 00000057 00000005"  # M, 87 body bytes, 5 fields in sorted order
    "    53 00000004 61757468  4e"  # "auth": None
    "    53 0000000e 726571756573745f646967657374  42 00000002 aabb"  # "request_digest"
    "    53 00000006 73656e646572  53 00000002 6531"  # "sender": "e1"
    "    53 00000003 736571  49 00000001 32"  # "seq": int "2"
    "    53 00000004 76696577  49 00000001 31"  # "view": int "1"
)

DATAGRAM_HEX = (
    "4d 000000b4 00000003"  # M, 180 body bytes, 3 items
    "  53 00000003 647374  53 00000002 6532"  # "dst": "e2"
    "  53 00000001 70  42 00000087"  # "p": 135 payload bytes
    + PAYLOAD_HEX
    + "  53 00000003 737263  53 00000002 6531"  # "src": "e1"
)

FRAME_HEX = "52504e31 000000b9" + DATAGRAM_HEX  # RPN1, 185 body bytes


def test_payload_bytes():
    assert encode_wire_payload(MESSAGE) == bytes.fromhex(PAYLOAD_HEX)


def test_datagram_bytes():
    datagram = encode_datagram("e1", "e2", MESSAGE)
    assert datagram == bytes.fromhex(DATAGRAM_HEX)
    assert decode_datagram(datagram) == ("e1", "e2", MESSAGE)


def test_frame_bytes():
    frame = encode_frame(bytes.fromhex(DATAGRAM_HEX))
    assert frame == bytes.fromhex(FRAME_HEX)
    assert FrameDecoder().feed(frame) == [bytes.fromhex(DATAGRAM_HEX)]
