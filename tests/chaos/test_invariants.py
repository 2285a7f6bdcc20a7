"""The omniscient checker actually catches each class of seeded violation."""

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import InvariantChecker, InvariantViolation


def make_replica(pid, stable=0, executed=0, high=100, snapshot=b""):
    return SimpleNamespace(
        pid=pid,
        domain_id="calc",
        stable_seq=stable,
        last_executed=executed,
        high_watermark=high,
        stable_checkpoint=lambda: (stable, snapshot, ()),
        key_store=None,
    )


def make_system(elements=(), gms=(), clients=()):
    calc = SimpleNamespace(kind="server", element_ids=tuple(r.pid for r in elements))
    return SimpleNamespace(
        network=SimpleNamespace(now=1.0),
        gm_elements=list(gms),
        elements={r.pid: r for r in elements},
        clients={c.pid: c for c in clients},
        directory=SimpleNamespace(domains={"calc": calc}),
    )


def expect(checker, name, fn):
    with pytest.raises(InvariantViolation) as excinfo:
        fn()
    assert excinfo.value.violation.name == name
    assert checker.violations[-1].name == name


def test_clean_system_passes_every_predicate():
    replicas = [make_replica(f"e{i}", executed=2) for i in range(4)]
    checker = InvariantChecker(make_system(replicas))
    for r in replicas:
        checker.on_order(r.pid, 1, b"d1")
        checker.on_order(r.pid, 2, b"d2")
        checker.on_execute(r.pid, 1, "alice", 1)
        checker.on_dispatch(r.pid, 7, 1)
        checker.on_dispatch(r.pid, 7, 2)
    checker.on_deliver("a", "b", b"x")
    checker.final(pending=None)
    assert checker.violations == []


def test_order_divergence_detected():
    checker = InvariantChecker(
        make_system([make_replica("e0", executed=1), make_replica("e1", executed=1)])
    )
    checker.on_order("e0", 1, b"digest-a")
    checker.on_order("e1", 1, b"digest-b")
    expect(checker, "order-divergence", checker.check_ordering)


def test_events_are_judged_on_delivery_not_when_reported():
    checker = InvariantChecker(make_system([make_replica("e0")]))
    for request_id in (1, 2, 2):
        checker.on_dispatch("e0", 7, request_id)  # never raises here
    assert checker.violations == []
    with pytest.raises(InvariantViolation):
        checker.on_deliver("a", "b", b"x")


def test_duplicate_dispatch_detected():
    checker = InvariantChecker(make_system([make_replica("e0")]))
    for request_id in (1, 2, 2):
        checker.on_dispatch("e0", 7, request_id)
    expect(checker, "duplicate-dispatch", checker.check_dispatches)


def test_dispatch_regression_detected():
    checker = InvariantChecker(make_system([make_replica("e0")]))
    for request_id in (3, 1):
        checker.on_dispatch("e0", 7, request_id)
    expect(checker, "duplicate-dispatch", checker.check_dispatches)


def _with_keys(pid, epoch, floor, epoch_of):
    keys = SimpleNamespace(current_epoch=epoch, fence_floor=floor,
                           epoch_of=dict(epoch_of))
    replica = make_replica(pid)
    replica.key_store = SimpleNamespace(connections={7: keys})
    return replica, keys


def test_fence_regression_detected():
    replica, keys = _with_keys("e0", epoch=3, floor=2, epoch_of={5: 3})
    checker = InvariantChecker(make_system([replica]))
    checker.check_key_fences()  # records (3, 2)
    keys.current_epoch = 1  # regress
    expect(checker, "fence-regression", checker.check_key_fences)


def test_fenced_key_held_detected():
    replica, _ = _with_keys("e0", epoch=3, floor=3, epoch_of={4: 1})
    checker = InvariantChecker(make_system([replica]))
    expect(checker, "fenced-key-held", checker.check_key_fences)


def test_watermark_inversion_detected():
    replica = make_replica("e0", stable=5, executed=3)
    checker = InvariantChecker(make_system([replica]))
    expect(checker, "watermark-inversion", checker.check_watermarks)


def test_watermark_overrun_detected():
    replica = make_replica("e0", executed=200, high=100)
    checker = InvariantChecker(make_system([replica]))
    expect(checker, "watermark-overrun", checker.check_watermarks)


def test_checkpoint_divergence_detected():
    a = make_replica("e0", stable=8, executed=8, snapshot=b"state-a")
    b = make_replica("e1", stable=8, executed=8, snapshot=b"state-b")
    checker = InvariantChecker(make_system([a, b]))
    expect(checker, "checkpoint-divergence", checker.check_checkpoints)


def _client_with_vote(supporters, f=1, decided=True):
    decision = SimpleNamespace(decided=decided, supporters=list(supporters))
    connection = SimpleNamespace(
        voter=SimpleNamespace(decision=decision),
        target=SimpleNamespace(f=f),
    )
    return SimpleNamespace(
        pid="alice",
        endpoint=SimpleNamespace(connections={7: connection}),
        key_store=None,
    )


def test_thin_vote_quorum_detected():
    client = _client_with_vote(["e0"], f=1)
    checker = InvariantChecker(make_system(clients=[client]))
    expect(checker, "vote-thin-quorum", checker.check_vote_consistency)


def test_all_corrupt_vote_detected():
    client = _client_with_vote(["e0", "e1"], f=1)
    checker = InvariantChecker(make_system(clients=[client]),
                               corrupt={"e0", "e1"})
    expect(checker, "vote-all-corrupt", checker.check_vote_consistency)


def test_honest_supporter_passes():
    client = _client_with_vote(["e0", "e3"], f=1)
    checker = InvariantChecker(make_system(clients=[client]), corrupt={"e0"})
    checker.check_vote_consistency()


def test_liveness_failure_reported_in_final():
    checker = InvariantChecker(make_system())
    expect(checker, "liveness", lambda: checker.final(pending={"req-5": 0.1}))


def test_deep_check_runs_on_interval_only():
    replica, keys = _with_keys("e0", epoch=3, floor=2, epoch_of={})
    checker = InvariantChecker(make_system([replica]), deep_check_interval=4)
    checker.deep_check()  # record the (3, 2) baseline
    keys.current_epoch = 1  # regression staged, not yet scanned
    checker.on_deliver("a", "b", b"x")
    checker.on_deliver("a", "b", b"x")
    checker.on_deliver("a", "b", b"x")
    with pytest.raises(InvariantViolation):
        checker.on_deliver("a", "b", b"x")  # 4th delivery -> deep check


# -- E19 read staleness bound ------------------------------------------------


def _read_world(appended=3, corrupt=()):
    """Four core elements in one domain, each ``appended`` deep."""
    elements = []
    for i in range(4):
        replica = make_replica(f"e{i}")
        replica.queue = SimpleNamespace(total_appended=appended)
        elements.append(replica)
    return InvariantChecker(make_system(elements), corrupt=set(corrupt))


def _read_reply(sender, watermark):
    from repro.itdos.messages import ReadReply

    return ReadReply(
        conn_id=7,
        read_id=1,
        key_id=1,
        ciphertext=b"",
        sender=sender,
        mac=b"",
        watermark=watermark,
    )


def test_honest_read_beyond_commit_detected():
    checker = _read_world(appended=3)
    payload = _read_reply("e0", watermark=5)
    expect(checker, "read-beyond-commit",
           lambda: checker.check_read_reply("e0", payload))


def test_stale_read_reply_is_legal():
    checker = _read_world(appended=3)
    checker.check_read_reply("e0", _read_reply("e0", watermark=1))
    assert checker.violations == []


def test_corrupt_sender_forgery_is_not_an_honest_violation():
    # A designated-Byzantine element may lie on the wire; the invariant
    # only indicts *honest* elements (the client quorum handles liars).
    checker = _read_world(appended=3, corrupt={"e0"})
    checker.check_read_reply("e0", _read_reply("e0", watermark=50))
    assert checker.violations == []


def _reading_client():
    """Client ``alice`` with one connection, 7, to the calc domain."""
    connection = SimpleNamespace(target=SimpleNamespace(domain_id="calc", f=1))
    return SimpleNamespace(
        pid="alice",
        endpoint=SimpleNamespace(connections={7: connection}),
        key_store=None,
    )


def test_read_decided_beyond_commit_detected():
    checker = _read_world(appended=3)
    checker.system.clients = {"alice": _reading_client()}
    checker.on_read_decided("alice", 7, 1, 9)
    expect(checker, "read-decided-beyond-commit", checker.check_decided_reads)


def test_read_decisions_scan_is_incremental():
    checker = _read_world(appended=3)
    checker.system.clients = {"alice": _reading_client()}
    checker.on_read_decided("alice", 7, 1, 2)
    checker.check_decided_reads()  # clean; (1, 2) is judged and dropped
    checker.on_read_decided("alice", 7, 2, 3)
    checker.check_decided_reads()
    assert checker.violations == []
    checker.on_read_decided("alice", 7, 3, 4)  # beyond the prefix
    expect(checker, "read-decided-beyond-commit", checker.check_decided_reads)


def test_a_reader_is_audited_for_dispatch_and_keys_not_for_ordering():
    """A read-tier element orders nothing — no journal, no watermarks, no
    checkpoints to audit — but it does run servants and hold keys."""
    from repro.workloads.scenarios import build_read_heavy_system

    system = build_read_heavy_system(seed=5, readers=1)
    checker = InvariantChecker(system)
    system.network.observer = checker
    system.settle(1.0)
    stub = system.add_client("alice").stub(system.ref("kv", b"kv"))
    for i in range(6):
        stub.put(f"k{i}", "v")  # past a checkpoint, so check_checkpoints bites
    system.settle(0.5)
    [reader] = system.read_tier("kv")
    audited = [replica.pid for _, replica in checker._replicas()]
    assert reader.pid not in audited and "kv-e0" in audited and "gm-0" in audited
    assert reader in checker._key_stores()
    checker.on_deliver("a", "b", b"x")
    checker.deep_check()
    assert checker.violations == []
    # The reader reported its six dispatches (request ids 1..6); a replay of
    # the last one is caught and charged to the reader.
    assert len(reader.dispatched) == 6
    conn_id = reader.dispatched[-1][0]
    assert checker._last_dispatch[(reader.pid, conn_id)] == 6
    checker.on_dispatch(reader.pid, conn_id, 6)
    expect(checker, "duplicate-dispatch", checker.check_dispatches)
    assert checker.violations[-1].process == reader.pid
