"""Tests for trace labels and the sequence-diagram generator."""

import pytest

from repro.bft.messages import BatchMsg, ClientRequest, PrepareMsg
from repro.giop.ior import ObjectRef
from repro.giop.messages import LocateReplyMessage, LocateStatus
from repro.itdos.messages import SmiopReply
from repro.sim.trace import TraceEvent, TraceRecorder, render_sequence_diagram


def make_events():
    return [
        TraceEvent(time=0.0, kind="send", src="a", dst="b", label="Hello", payload=None),
        TraceEvent(time=0.1, kind="deliver", src="a", dst="b", label="Hello", payload=None),
        TraceEvent(time=0.2, kind="send", src="b", dst="a", label="Reply", payload=None),
        TraceEvent(time=0.3, kind="send", src="b", dst="a", label="Reply", payload=None),
        TraceEvent(time=0.4, kind="send", src="x", dst="a", label="Noise", payload=None),
    ]


@pytest.mark.parametrize(
    "payload,label",
    [
        # int and str fields in declaration order; bytes are skipped.
        (
            PrepareMsg(view=1, seq=2, request_digest=b"d", sender="r1"),
            "PrepareMsg(view=1,seq=2,sender=r1)",
        ),
        # An unset optional field (auth=None) is neither int nor str.
        (
            ClientRequest(client_id="c", timestamp=1, payload=b"op"),
            "ClientRequest(client_id=c,timestamp=1)",
        ),
        # A dataclass with no int or str field still shows it is one.
        (BatchMsg(requests=()), "BatchMsg()"),
        # A bool is an int, and so is an IntEnum member (its value).
        (
            SmiopReply(
                conn_id=1, request_id=4, key_id=0, ciphertext=b"", sender="e2",
                signature=b"", is_digest=True,
            ),
            "SmiopReply(conn_id=1,request_id=4,key_id=0,sender=e2,is_digest=True)",
        ),
        (
            LocateReplyMessage(
                request_id=7, locate_status=LocateStatus.OBJECT_HERE, byte_order="big"
            ),
            "LocateReplyMessage(request_id=7,locate_status=1,byte_order=big)",
        ),
        (
            ObjectRef("Bank", "domain-1", b"acct-7"),
            "ObjectRef(interface_name=Bank,domain_id=domain-1,transport=smiop)",
        ),
        # A payload that is not a dataclass is its type name alone.
        ("m", "str"),
        (b"m", "bytes"),
        (7, "int"),
    ],
)
def test_label_is_type_name_and_int_str_fields(payload, label):
    recorder = TraceRecorder()
    recorder.record(0.0, "send", "a", "b", payload)
    assert recorder.events[0].label == label


def test_sequence_diagram_basics():
    diagram = render_sequence_diagram(make_events(), ["a", "b"])
    lines = diagram.splitlines()
    assert "a" in lines[0] and "b" in lines[0]
    assert any("Hello" in line and ">" in line for line in lines)
    # Two identical replies merged with a repeat count.
    assert any("Reply x2" in line for line in lines)
    # Unknown participant "x" excluded.
    assert not any("Noise" in line for line in lines)


def test_sequence_diagram_direction_markers():
    diagram = render_sequence_diagram(make_events(), ["a", "b"])
    hello = next(line for line in diagram.splitlines() if "Hello" in line)
    reply = next(line for line in diagram.splitlines() if "Reply" in line)
    assert ">" in hello and "<" not in hello
    assert "<" in reply and ">" not in reply


def test_sequence_diagram_collapse_lanes():
    events = [
        TraceEvent(time=0.0, kind="send", src="client", dst="e0", label="Req", payload=None),
        TraceEvent(time=0.1, kind="send", src="client", dst="e1", label="Req", payload=None),
    ]
    diagram = render_sequence_diagram(
        events, ["client", "domain"], collapse={"e0": "domain", "e1": "domain"}
    )
    assert "Req x2" in diagram


def test_sequence_diagram_max_rows():
    events = [
        TraceEvent(time=float(i), kind="send", src="a", dst="b", label=f"m{i}", payload=None)
        for i in range(10)
    ]
    diagram = render_sequence_diagram(events, ["a", "b"], max_rows=3)
    assert "... 7 more rows" in diagram


def test_trace_clear():
    recorder = TraceRecorder()
    recorder.record(0.0, "send", "a", "b", "x")
    recorder.clear()
    assert len(recorder) == 0
