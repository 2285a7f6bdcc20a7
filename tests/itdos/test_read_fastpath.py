"""E19 read fast path: tentative reads, fallback, and the read tier.

The Castro–Liskov read-only optimization at the ITDOS layer: ``read_only``
operations skip ordering, every element executes them tentatively against
its committed prefix, and the client accepts 2f+1 matching
(watermark, value) core replies — falling back to ordered resubmission of
the same request wire when the replies diverge or time out. A non-voting
read-tier element rides the committed stream for capacity, never quorums.
"""

from __future__ import annotations

import pytest

from repro.bft.messages import CatchUpRequest, CatchUpResponse
from repro.chaos.byzantine import ForgedWatermarkElement, LaggingReader
from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.messages import CommitFeed, ReadReply, ReadRequest
from repro.workloads.scenarios import (
    KvStoreServant,
    standard_repository,
)
from tests.history import History

# Everything the read tier can put on the wire. Its catch-up is the shared
# CatchUp pair, which a deployment without readers (and without a lagging,
# diverged or recovering element) never sends either.
READ_MESSAGE_TYPES = (
    ReadRequest,
    ReadReply,
    CommitFeed,
    CatchUpRequest,
    CatchUpResponse,
)


def make_kv(
    readers: int = 0,
    read_fastpath: bool = True,
    byzantine: dict | None = None,
    seed: int = 0,
) -> ItdosSystem:
    system = ItdosSystem(
        seed=seed,
        repository=standard_repository(),
        heterogeneous=False,
        read_fastpath=read_fastpath,
    )
    History(system.network)
    system.add_server_domain(
        "kv",
        f=1,
        servants=lambda element: {b"kv": KvStoreServant()},
        readers=readers,
        byzantine=byzantine,
    )
    system.settle(1.0)  # GM bootstrap
    return system


def client_and_stub(system):
    client = system.add_client("alice")
    stub = client.stub(system.ref("kv", b"kv"))
    return client, stub


def the_connection(client):
    assert len(client.endpoint.connections) == 1
    return next(iter(client.endpoint.connections.values()))


def decided_reads(client):
    """(read id, decided watermark) per fast-path decision on the client's
    one connection, from the History ``make_kv`` attached."""
    history = client.network.observer
    return history.read_decisions[(client.pid, the_connection(client).conn_id)]


def honest_prefix(system, skip=()):
    return max(
        element.queue.total_appended
        for pid, element in system.elements.items()
        if pid not in skip and not pid.startswith("kv-r")
    )


# -- the fast path ----------------------------------------------------------


def test_read_decides_tentatively_within_commit_bound():
    system = make_kv()
    client, stub = client_and_stub(system)
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    connection = the_connection(client)
    assert connection.read_fastpath_hits == 1
    assert connection.read_fastpath_fallbacks == 0
    [(read_id, watermark)] = decided_reads(client)
    assert read_id == 1
    assert watermark <= honest_prefix(system)


def test_fastpath_off_never_puts_read_messages_on_the_wire(monkeypatch):
    from repro.net.transport import SimTransport

    seen: list[str] = []
    real = SimTransport.transmit

    def spy(self, src, dst, payload, size, extra_delay):
        if isinstance(payload, READ_MESSAGE_TYPES):
            seen.append(type(payload).__name__)
        return real(self, src, dst, payload, size, extra_delay)

    monkeypatch.setattr(SimTransport, "transmit", spy)
    system = make_kv(read_fastpath=False)
    client, stub = client_and_stub(system)
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    assert stub.size() == 1
    connection = the_connection(client)
    assert connection.reads_sent == 0
    assert connection.read_fastpath_hits == 0
    assert seen == []  # feature off = inert: the E19 wire surface is absent


def test_divergent_replies_fall_back_transparently():
    """Two forged-watermark elements split the ballots 2/2: no 2f+1
    agreement can form, the voter reports exhaustion, and the read is
    resubmitted through ordering — the caller just sees the right value.

    (Two liars exceed the f=1 safety budget on purpose: the point here is
    the fallback *mechanics*, which must work no matter why replies
    diverge.)
    """
    system = make_kv(
        byzantine={"kv-e1": ForgedWatermarkElement, "kv-e2": ForgedWatermarkElement}
    )
    client, stub = client_and_stub(system)
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    connection = the_connection(client)
    assert connection.read_fastpath_hits == 0
    assert connection.read_fastpath_fallbacks == 1
    # The fallback is per-read, not sticky: the next read tries the fast
    # path again (and falls back again — no voter starvation, no wedging).
    assert stub.get("k") == "v1"
    assert connection.read_fastpath_fallbacks == 2
    # The ordered resubmission executed exactly once per element: request
    # ids in every dispatch log are strictly increasing, no replays.
    for pid in system.elements:
        ids = [request_id for _, request_id in system.network.observer.dispatches[pid]]
        assert ids == sorted(set(ids))
    # Writes after the fallback are unaffected.
    stub.put("k", "v2")
    assert stub.get("k") == "v2"


def test_forged_watermark_within_f_cannot_steer_a_decision():
    system = make_kv(byzantine={"kv-e1": ForgedWatermarkElement})
    client, stub = client_and_stub(system)
    stub.put("k", "v1")
    stub.put("k", "v2")
    assert stub.get("k") == "v2"
    connection = the_connection(client)
    # Three honest elements agree, so the read still decides on the fast
    # path — and the decided watermark sits inside the committed prefix.
    assert connection.read_fastpath_hits == 1
    assert len(decided_reads(client)) == 1
    for _, watermark in decided_reads(client):
        assert watermark <= honest_prefix(system, skip=("kv-e1",))


def test_interleaved_reads_and_writes_all_account():
    system = make_kv(readers=1)
    client, stub = client_and_stub(system)
    for i in range(6):
        stub.put(f"k{i}", f"v{i}")
        assert stub.get(f"k{i}") == f"v{i}"
        assert stub.size() == i + 1
    connection = the_connection(client)
    assert connection.reads_sent == 12
    assert (
        connection.read_fastpath_hits + connection.read_fastpath_fallbacks
        == connection.reads_sent
    )


# -- the read tier ----------------------------------------------------------


def test_read_tier_rides_the_commit_feed():
    system = make_kv(readers=1)
    _, stub = client_and_stub(system)
    for i in range(3):
        stub.put(f"k{i}", f"v{i}")
    system.settle(0.5)
    [reader] = system.read_tier("kv")
    assert reader.queue.total_appended == 3
    assert reader.feeds_applied == 3
    assert not reader.diverged
    # Byte-identical committed history: the reader's append chain matches
    # the core's.
    core = system.elements["kv-e0"]
    assert reader._append_chain == core._append_chain
    servant = reader.orb.adapter.servant_for(b"kv")
    assert servant.data == {f"k{i}": f"v{i}" for i in range(3)}


def test_reader_restart_catches_up_via_state_sync():
    system = make_kv(readers=1)
    _, stub = client_and_stub(system)
    for i in range(3):
        stub.put(f"k{i}", f"v{i}")
    system.settle(0.5)
    [reader] = system.read_tier("kv")
    reader.crash()
    for i in range(3, 6):
        stub.put(f"k{i}", f"v{i}")  # feeds the reader never sees
    reader.restart()
    system.settle(2.0)
    assert reader.syncs_completed >= 1
    assert not reader.diverged
    assert reader.queue.total_appended == 6
    assert reader._append_chain == system.elements["kv-e0"]._append_chain
    # The adopted queue position came with the store that belongs to it:
    # k3..k5 were ordered while the reader was down, so only the shipped
    # servant state can have put them there.
    servant = reader.orb.adapter.servant_for(b"kv")
    assert servant.data == {f"k{i}": f"v{i}" for i in range(6)}


#: What a BftReplica carries that a reader must not even have.
BFT_SURFACE = (
    "view", "log", "config", "client_table", "stable_seq", "auth",
    "recovery", "endpoint", "_retransmit_timer", "last_executed",
)


def test_reader_is_a_queue_element_on_a_plain_process():
    from repro.bft.replica import BftReplica
    from repro.itdos.element import QueueElement
    from repro.itdos.readtier import ReadOnlyElement
    from repro.itdos.replica import ItdosServerElement
    from repro.sim.process import Process

    assert ReadOnlyElement.__mro__ == (ReadOnlyElement, QueueElement, Process, object)
    assert ItdosServerElement.__mro__[:3] == (
        ItdosServerElement, QueueElement, BftReplica,
    )
    system = make_kv(readers=1)
    [reader] = system.read_tier("kv")
    assert [name for name in BFT_SURFACE if hasattr(reader, name)] == []
    # The core element next to it kept every one of them.
    assert all(hasattr(system.elements["kv-e0"], name) for name in BFT_SURFACE)


def test_reader_consumes_four_message_types_and_nothing_else():
    """One sample of every registered message, sent by a core element: only
    CommitFeed, CatchUpResponse, ReadRequest and GmShareEnvelope have a
    handler on a reader at all; nothing else moves its queue, its chain,
    its feed counter or its timers."""
    from repro import schema
    from repro.itdos.messages import GmShareEnvelope
    from tests.message_samples import sample

    consumed = {CommitFeed, CatchUpResponse, ReadRequest, GmShareEnvelope}
    system = make_kv(readers=1)
    _, stub = client_and_stub(system)
    stub.put("k", "v")
    system.settle(0.5)
    [reader] = system.read_tier("kv")
    core = system.elements["kv-e1"]

    def state():
        return (
            reader.queue.total_appended,
            reader._append_chain,
            reader.feeds_applied,
            set(reader._timers),
        )

    classes = schema.registered().values()
    assert consumed <= set(classes) and len(classes) >= 27
    for cls in classes:
        before = state()
        core.send(reader.pid, sample(cls))
        system.settle(0.1)
        if cls not in consumed:
            assert state() == before, cls.__name__


def test_reader_is_unreachable_through_its_inherited_bft_handlers():
    """A reader used to be a BftReplica as a shell (a private config listed
    it as a replica). A core element's FillMsg of *genuine* executed
    entries executed straight into the reader's queue — doubling it,
    arming the status beacon, and killing the commit feed (every later
    ``feed.index <= total_appended``). It has no such handlers now."""
    from repro.bft.messages import FillMsg, StatusMsg
    from repro.workloads.scenarios import build_read_heavy_system

    system = build_read_heavy_system(seed=3, readers=1)
    system.settle(1.0)
    _, stub = client_and_stub(system)
    for i in range(5):
        stub.put(f"k{i}", f"v{i}")
    system.settle(0.5)
    [reader] = system.read_tier("kv")
    core = system.elements["kv-e1"]
    assert reader.queue.total_appended == 5
    chain, timers = reader._append_chain, set(reader._timers)
    entries = tuple(core.log[seq].pre_prepare for seq in range(1, core.last_executed + 1))
    for filler in ("kv-e1", "kv-e2"):
        system.elements[filler].send(reader.pid, FillMsg(entries=entries, sender=filler))
    core.send(
        reader.pid,
        StatusMsg(view=0, last_executed=0, stable_seq=0, sender=core.pid),
    )
    system.settle(0.5)
    # Nothing executed, no beacon armed, no log to fill — there is no
    # execution position, retransmit timer or log on a reader to begin with.
    assert (reader.queue.total_appended, reader._append_chain) == (5, chain)
    assert set(reader._timers) == timers
    assert [name for name in BFT_SURFACE if hasattr(reader, name)] == []
    # ... and the feed is still what moves it.
    stub.put("k5", "v5")
    system.settle(0.5)
    assert reader.queue.total_appended == reader.feeds_applied == 6
    assert reader._append_chain == core._append_chain
    assert stub.get("k5") == "v5"


def test_kv_builders_wire_the_servant_state_hooks():
    """Every KvStore deployment ships the store with a catch-up: core
    elements and readers alike export and restore ``servant.data`` through
    the element's servant-state path, keyed by object key, with nothing
    wired by the builder."""
    from repro.net.config import TopologyConfig
    from repro.workloads.scenarios import build_kv_system, build_read_heavy_system

    systems = [
        build_kv_system(seed=3),
        build_read_heavy_system(seed=3, readers=1),
        TopologyConfig(seed=3, domain="kv", workload="kv", readers=1).build_system(),
    ]
    for system in systems:
        for element in system.domain_elements("kv") + system.read_tier("kv"):
            servant = element.orb.adapter.servant_for(b"kv")
            servant.put("k", "v")
            assert element.servant_state() == {"kv": {"k": "v"}}
            element._adopt_servant_state({"kv": {"other": "state"}})
            assert servant.data == {"other": "state"}


def test_lagging_reader_recovers_through_the_stall_timer():
    system = make_kv(readers=1, byzantine={"kv-r0": LaggingReader})
    client, stub = client_and_stub(system)
    for i in range(5):
        stub.put(f"k{i}", f"v{i}")
    system.settle(0.5)
    [reader] = system.read_tier("kv")
    # The reader dropped most of its feed: stale but legal — reads still
    # decide from the core quorum without it.
    assert reader.queue.total_appended < 5
    assert stub.get("k4") == "v4"
    assert the_connection(client).read_fastpath_hits == 1
    # The buffered out-of-order feed arms the stall timer; once it fires
    # the reader state-syncs back to the committed prefix.
    system.settle(reader.FEED_STALL_TIMEOUT + 2.0)
    assert reader.syncs_completed >= 1
    assert reader.queue.total_appended == 5


def test_reader_never_votes_in_the_read_quorum():
    system = make_kv(readers=1)
    client, stub = client_and_stub(system)
    stub.put("k", "v1")
    assert stub.get("k") == "v1"
    connection = the_connection(client)
    system.settle(0.5)  # let the reader's (late) reply arrive
    # Reader ballots are recorded for lag observability only.
    for sender, _ in connection.read_voter.reader_ballots:
        assert sender == "kv-r0"


def test_readers_zero_is_construction_identical():
    """readers=0 must not perturb the RNG stream: same seed, same keys,
    same multicast layout as a build that never heard of the read tier."""
    plain = make_kv(readers=0, read_fastpath=False)
    with_flag = make_kv(readers=0, read_fastpath=True)
    assert sorted(plain.elements) == sorted(with_flag.elements)
    for pid, element in plain.elements.items():
        twin = with_flag.elements[pid]
        assert element.queue.total_appended == twin.queue.total_appended
    assert (
        plain.network.stats.messages_sent == with_flag.network.stats.messages_sent
    )
    assert plain.network.stats.bytes_sent == with_flag.network.stats.bytes_sent
