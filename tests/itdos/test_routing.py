"""Every element routes a delivery by one lookup in its ``type -> handler``
table; this file holds those tables to the ``isinstance`` ladders they
replaced.

``EXPECTED`` was generated on the commit *before* the tables existed
(``PYTHONPATH=src python -m tests.itdos.test_routing`` prints it): one sample
of every registered message, plus an object that is no message at all, is
delivered to each of the four element kinds under a profiler that records
which handler the routing reaches — and whether the replica-to-replica
authenticator was consulted first. A row missing from a table, a row naming
the wrong handler, or an auth check that moved shows up as a diff here.
"""

from __future__ import annotations

import sys
from typing import Any

import pytest

from repro import schema
from repro.bft.messages import BftReply, CatchUpRequest, PrepareMsg
from repro.itdos.messages import CommitFeed, ReadRequest
from repro.workloads.scenarios import build_read_heavy_system
from tests.message_samples import sample

#: (file the function lives in, its name): the branches a ladder could take.
HANDLERS = {
    ("bft/auth.py", "accept"),
    *(("bft/replica.py", name) for name in (
        "_on_client_request", "_on_pre_prepare", "_on_prepare", "_on_commit",
        "_on_checkpoint", "_on_view_change", "_on_new_view", "_on_catch_up_request",
        "_on_status", "_on_fill",
    )),
    ("bft/catchup.py", "handle_response"),
    ("itdos/element.py", "_handle_server_share"),
    ("itdos/element.py", "_serve_read"),
    ("itdos/replica.py", "_handle_body_request"),
    ("itdos/readtier.py", "_handle_commit_feed"),
    ("itdos/sockets.py", "handle_gm_share"),
    ("itdos/sockets.py", "handle_reply"),
    ("itdos/sockets.py", "handle_read_reply"),
    ("itdos/sockets.py", "handle_body_reply"),
}
#: The client engines look at every delivery a ladder shows them and claim
#: only a ``BftReply``: they count as a branch for that type alone.
ENGINE = ("bft/client.py", "handle_message")

KINDS = ("server", "reader", "gm", "client")


def _key(code: Any) -> tuple[str, str]:
    return "/".join(code.co_filename.split("/")[-2:]), code.co_name


def branches_taken(element: Any, src: str, payload: Any) -> list[str]:
    """The outermost :data:`HANDLERS` calls one delivery makes, in order."""
    taken: list[str] = []
    depth = 0

    def profiler(frame: Any, event: str, arg: Any) -> None:
        nonlocal depth
        if event not in ("call", "return"):
            return
        key = _key(frame.f_code)
        if key == ENGINE and type(frame.f_locals.get("payload")) is not BftReply:
            return
        if key in HANDLERS or key == ENGINE:
            if event == "return":
                depth -= 1
                return
            if depth == 0:
                taken.append(key[1])
            depth += 1

    sys.setprofile(profiler)
    try:
        element.deliver(src, payload)
    finally:
        sys.setprofile(None)
    return taken


def build(kind: str) -> tuple[Any, str]:
    """A settled read-tier deployment whose client has one connection open;
    returns the element of ``kind`` and a peer to deliver from."""
    system = build_read_heavy_system(seed=3, readers=1)
    client = system.add_client("alice")
    system.settle(1.0)
    client.stub(system.ref("kv", b"kv")).put("k", "v")
    system.settle(0.5)
    element = {
        "server": system.elements["kv-e0"],
        "reader": system.read_tier("kv")[0],
        "gm": system.gm_elements[0],
        "client": client,
    }[kind]
    return element, "kv-e1"


def payloads() -> dict[str, Any]:
    out = {cls.__name__: sample(cls) for cls in schema.registered().values()}
    out["object"] = object()
    return out


def observed(kind: str) -> dict[str, list[str]]:
    element, src = build(kind)
    return {name: branches_taken(element, src, payload) for name, payload in payloads().items()}


_PBFT = {
    "ClientRequest": ["accept", "_on_client_request"],
    "PrePrepareMsg": ["accept", "_on_pre_prepare"],
    "PrepareMsg": ["accept", "_on_prepare"],
    "CommitMsg": ["accept", "_on_commit"],
    "CheckpointMsg": ["accept", "_on_checkpoint"],
    "ViewChangeMsg": ["accept", "_on_view_change"],
    "NewViewMsg": ["accept", "_on_new_view"],
    "CatchUpRequest": ["accept", "_on_catch_up_request"],
    "CatchUpResponse": ["accept", "handle_response"],
    "StatusMsg": ["accept", "_on_status"],
    "FillMsg": ["accept", "_on_fill"],
}
#: kind -> (what a type with no branch of its own does, the types that have one).
#: A replica asks its authenticator about a stranger's message and drops it;
#: a reader and a singleton client drop it unseen. The sample replies name
#: no open connection, so the endpoint does not claim them.
_LADDERS: dict[str, tuple[list[str], dict[str, list[str]]]] = {
    "server": (["accept"], {
        **_PBFT,
        "GmShareEnvelope": ["_handle_server_share", "handle_gm_share"],
        "BodyRequest": ["_handle_body_request"],
        "ReadRequest": ["_serve_read"],
        "BftReply": ["handle_message", "accept"],  # the GM engine, then the gate
    }),
    "gm": (["accept"], {**_PBFT, "BftReply": ["handle_message", "accept"]}),
    "reader": ([], {
        "CommitFeed": ["_handle_commit_feed"],
        "CatchUpResponse": ["handle_response"],
        "ReadRequest": ["_serve_read"],
        "GmShareEnvelope": ["_handle_server_share"],
    }),
    "client": ([], {
        "GmShareEnvelope": ["handle_gm_share"],
        "BftReply": ["handle_message", "handle_message"],  # GM engine, kv engine
    }),
}
EXPECTED = {
    kind: {name: own.get(name, default) for name in payloads()}
    for kind, (default, own) in _LADDERS.items()
}


def test_tables_cover_every_registered_type():
    names = set(payloads())
    assert len(names) >= 28
    for kind in KINDS:
        assert set(EXPECTED[kind]) == names, kind


@pytest.mark.parametrize("kind", KINDS)
def test_table_takes_the_branch_the_ladder_took(kind):
    got = observed(kind)
    assert got == EXPECTED[kind], {
        name: (got[name], EXPECTED[kind].get(name))
        for name in got
        if got[name] != EXPECTED[kind].get(name)
    }


def test_a_table_is_the_replicas_own_extended_in_place():
    """One dict per element: swapping a row on a live instance (as
    tests/bft/test_state_transfer.py does) takes effect for every kind of row."""
    server, src = build("server")
    seen = []
    server._handlers[CatchUpRequest] = lambda src, msg: seen.append("pbft")
    server._handlers[ReadRequest] = lambda src, msg: seen.append("shell")
    server.deliver(src, sample(CatchUpRequest))
    server.deliver(src, sample(ReadRequest))
    assert seen == ["pbft", "shell"]
    assert PrepareMsg in server._handlers and BftReply in server._handlers


def test_an_overridden_handler_is_the_row():
    """Fault classes work by overriding a handler (or a send helper): rows are
    taken from ``self.<method>`` in ``__init__``, so the override binds."""
    from repro.chaos.byzantine import (
        CorruptReplyReplica,
        ForgedWatermarkElement,
        LaggingReader,
        SilentReplica,
        SlowReplica,
    )
    from tests.bft.conftest import Harness

    system = build_read_heavy_system(seed=3, readers=1)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {},
        byzantine={"calc-e1": ForgedWatermarkElement, "calc-r0": LaggingReader},
        readers=1,
    )
    forger = system.elements["calc-e1"]
    [lagger] = system.read_tier("calc")
    assert forger._handlers[ReadRequest].__func__ is ForgedWatermarkElement._serve_read
    assert lagger._handlers[CommitFeed].__func__ is LaggingReader._handle_commit_feed

    silent = Harness(byzantine={"grp-r3": SilentReplica})
    silent.replicas[3].deliver("grp-r0", sample(PrepareMsg))
    assert not silent.replicas[3]._timers  # not even the gate ran

    slow = Harness(byzantine={"grp-r3": SlowReplica})
    assert slow.invoke_and_run([b"1"]) == [b"ok:1"]
    assert slow.replicas[3].messages_sent == {}  # every send still parked in its lag
    assert slow.replicas[3]._timers

    corrupt = Harness(byzantine={"grp-r3": CorruptReplyReplica})
    trace = corrupt.network.enable_trace()
    assert corrupt.invoke_and_run([b"1"]) == [b"ok:1"]
    corrupt.run(until=corrupt.network.now + 0.1)
    [lie] = trace.filter(kind="send", src="grp-r3")
    assert lie.payload.result == b"\xde\xadok:1"


if __name__ == "__main__":
    import pprint

    pprint.pprint({kind: observed(kind) for kind in KINDS}, width=100)
