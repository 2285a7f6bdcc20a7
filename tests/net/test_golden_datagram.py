"""Golden bytes for the real wire: one PrepareMsg datagram and its frame.

Hand-laid, segment by segment, from the format definitions in
``repro.crypto.encoding`` (tag | ulong length | body, containers carry a
ulong count), ``repro.net.wire`` (a registered dataclass at the top of a
payload is ``O``, its field count, its class name, then its field values in
declaration order, without names; a datagram is the list ``dst``, ``p``,
``src`` with ``p`` the payload's own encoding) and ``repro.net.framing``
(``RPN1`` | ulong length | body). They pin the wire format across rewrites
of the send path: any byte that moves is a protocol change, not an
optimisation.
"""

from repro.bft import messages as bft
from repro.net.framing import FrameDecoder, encode_frame
from repro.net.wire import decode_datagram, encode_datagram, encode_wire_payload

MESSAGE = bft.PrepareMsg(view=1, seq=2, request_digest=b"\xaa\xbb", sender="e1")

PAYLOAD_HEX = (
    "4f 0000002e 00000005"  # O, 46 body bytes, 5 fields
    "  53 0000000a 507265706172654d7367"  # S "PrepareMsg"
    "  49 00000001 31"  # view: int "1"
    "  49 00000001 32"  # seq: int "2"
    "  42 00000002 aabb"  # request_digest
    "  53 00000002 6531"  # sender: "e1"
    "  4e"  # auth: None
)

DATAGRAM_HEX = (
    "4c 0000004a 00000003"  # L, 74 body bytes, 3 items
    "  53 00000002 6532"  # dst: "e2"
    "  42 00000033"  # p: 51 payload bytes
    + PAYLOAD_HEX
    + "  53 00000002 6531"  # src: "e1"
)

FRAME_HEX = "52504e31 0000004f" + DATAGRAM_HEX  # RPN1, 79 body bytes

#: A message in a field hinted as its class (here a tuple of them) is unnamed.
BATCH = bft.BatchMsg(requests=(bft.ClientRequest(client_id="c", timestamp=1, payload=b"op"),))

BATCH_HEX = (
    "4f 00000037 00000001"  # O, 55 body bytes, 1 field
    "  53 00000008 42617463684d7367"  # S "BatchMsg"
    "  4c 00000021 00000001"  # requests: L, 33 body bytes, 1 item
    "    4c 00000018 00000004"  # a ClientRequest, unnamed: L, 24 body bytes, 4 fields
    "      53 00000001 63"  # client_id: "c"
    "      49 00000001 31"  # timestamp: int "1"
    "      42 00000002 6f70"  # payload: b"op"
    "      4e"  # auth: None
)


def test_payload_bytes():
    assert encode_wire_payload(MESSAGE) == bytes.fromhex(PAYLOAD_HEX)


def test_nested_message_bytes():
    assert encode_wire_payload(BATCH) == bytes.fromhex(BATCH_HEX)


def test_datagram_bytes():
    datagram = encode_datagram("e1", "e2", MESSAGE)
    assert datagram == bytes.fromhex(DATAGRAM_HEX)
    assert decode_datagram(datagram) == ("e1", "e2", MESSAGE)


def test_frame_bytes():
    frame = encode_frame(bytes.fromhex(DATAGRAM_HEX))
    assert frame == bytes.fromhex(FRAME_HEX)
    assert FrameDecoder().feed(frame) == [bytes.fromhex(DATAGRAM_HEX)]
