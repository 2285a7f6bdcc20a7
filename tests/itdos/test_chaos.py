"""Chaos tests: the full ITDOS stack under adverse network/process conditions.

The §2.2 assumptions bound what must be tolerated; these tests exercise the
system at those bounds: message loss, crash of a domain's BFT primary
mid-session (view change under live ITDOS traffic), Group Manager element
failures, and a GM element withholding its coin reveal at bootstrap.
"""

import pytest

from repro.crypto.coin import combine_reveals
from repro.itdos.messages import CoinMessage
from repro.sim.latency import UniformLatency
from tests.history import History
from tests.itdos.conftest import CalculatorServant, make_system


def test_end_to_end_under_message_loss():
    """10% loss everywhere: retransmission layers must still drive every
    invocation to a voted result."""
    system = make_system(seed=101)
    system.network.config.drop_probability = 0.10
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    for i in range(5):
        assert stub.add(float(i), 1.0) == float(i) + 1.0


def test_end_to_end_with_jittery_latency():
    system = make_system(seed=102, latency=UniformLatency(0.0005, 0.01))
    history = History(system.network)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    results = [stub.add(float(i), 2.0) for i in range(5)]
    assert results == [float(i) + 2.0 for i in range(5)]
    system.settle(2.0)
    histories = [history.executions[e.pid] for e in system.domain_elements("calc")]
    assert all(h == histories[0] for h in histories)


def test_server_domain_primary_crash_mid_session():
    """Crashing the calc domain's BFT primary forces a view change under
    live SMIOP traffic; the session continues."""
    system = make_system(seed=103)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(1.0, 1.0) == 2.0
    system.elements["calc-e0"].crash()  # view-0 primary
    assert stub.add(2.0, 2.0) == 4.0  # served after the view change
    assert stub.add(3.0, 3.0) == 6.0
    live = [e for e in system.domain_elements("calc") if not e.crashed]
    assert all(e.view >= 1 for e in live)


def test_gm_element_crash_tolerated():
    """The Group Manager is itself a replication domain: one crashed GM
    element (f_gm=1) must not block connection establishment."""
    system = make_system(seed=104)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    system.settle(1.5)  # bootstrap completes
    system.gm_elements[1].crash()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(4.0, 4.0) == 8.0  # 3 live GM elements still issue f+1 shares


def test_gm_primary_crash_tolerated():
    system = make_system(seed=105)
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    system.settle(1.5)
    system.gm_elements[0].crash()  # the GM domain's view-0 primary
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(5.0, 5.0) == 10.0


@pytest.mark.parametrize("withholder", range(4), ids=lambda i: f"gm-{i}")
def test_coin_withholding_gm_element(withholder):
    """A GM element that commits but never reveals cannot block the
    bootstrap: the reveal phase closes at the f+1-th valid reveal, and every
    element seeds its PRNG from exactly those reveals."""
    system = make_system(seed=106)
    # Replace one element's behaviour before the bootstrap timers fire.
    saboteur = system.gm_elements[withholder]
    saboteur._side_effect_reveal = lambda: None
    system.settle(5.0)
    gms = system.gm_elements
    assert [gm.state.phase for gm in gms] == ["ready"] * 4
    f = gms[0].gm_info.f
    for gm in gms:
        assert len(gm.state.coin_reveals) == f + 1
        assert saboteur.pid not in gm.state.coin_reveals
        assert gm.prng._seed == combine_reveals(gm.state.coin_commits, gm.state.coin_reveals)
    assert len({gm.prng._seed for gm in gms}) == 1
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    assert stub.add(6.0, 1.0) == 7.0


def test_a_reveal_ordered_after_the_close_changes_no_seed():
    """Every committer reveals; the ones ordered after the f+1-th get DUP."""
    system = make_system(seed=106)
    system.settle(5.0)
    gms = system.gm_elements
    seeds = [gm.prng._seed for gm in gms]
    state = gms[0].state
    late = [gm for gm in gms if gm.pid in state.coin_commits and gm.pid not in state.coin_reveals]
    assert late  # n - f = 3 committers, f + 1 = 2 reveals counted
    verdicts = []
    for gm in late:
        reveal = CoinMessage(phase="reveal", pid=gm.pid, value=gm._coin_value)
        gm.self_engine.invoke(reveal.to_payload(), verdicts.append)
    system.settle(2.0)
    assert verdicts == [b"DUP"] * len(late)
    assert [gm.prng._seed for gm in gms] == seeds


def test_forged_coin_reveal_is_refused_and_a_genuine_one_seeds_every_element():
    """`_exec_coin` lets a reveal in only if it opens its sender's commitment
    (`crypto.coin.reveal_matches`), and every element seeds its PRNG from
    `crypto.coin.combine_reveals` over the same f+1 opened reveals."""
    system = make_system(seed=106)
    gms = system.gm_elements
    # Stop the moment every element has opened the reveal phase, before any
    # ordered reveal executes, and offer reveals by hand.
    system.run_until(lambda: all(gm.state.phase == "reveal" for gm in gms))
    assert not any(gm.state.coin_reveals for gm in gms)
    committers = sorted(gms[0].state.coin_commits)
    by_pid = {gm.pid: gm for gm in gms}
    first, second = (by_pid[pid] for pid in committers[:2])
    forged = CoinMessage(phase="reveal", pid=first.pid, value=b"\x00" * 32)
    for gm in gms:
        assert gm._exec_coin(forged, first.pid) == b"BAD"
        assert first.pid not in gm.state.coin_reveals
        for committer, phase in ((first, "reveal"), (second, "ready")):
            genuine = CoinMessage(phase="reveal", pid=committer.pid, value=committer._coin_value)
            assert gm._exec_coin(genuine, committer.pid) == b"OK"
            assert gm.state.phase == phase
        assert sorted(gm.state.coin_reveals) == committers[:2]
    draws = {gm.prng.next_bytes(16) for gm in gms}
    assert len(draws) == 1


def test_combined_faults_loss_plus_liar_plus_crash():
    """Loss + one lying element + one crashed element, same domain, f=1 —
    the absolute boundary of the fault budget, plus network misbehaviour."""
    system = make_system(seed=107)
    system.network.config.drop_probability = 0.05
    # One *crashed* element uses the crash budget; everyone else honest.
    system.add_server_domain(
        "calc", f=1, servants=lambda element: {b"calc": CalculatorServant()}
    )
    system.elements["calc-e3"].crash()
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    for i in range(4):
        assert stub.add(float(i), 10.0) == float(i) + 10.0


def test_queue_overflow_raises():
    from repro.itdos.queuestate import QueueOverflow

    system = make_system(seed=108)
    system.add_server_domain(
        "calc",
        f=1,
        servants=lambda element: {b"calc": CalculatorServant()},
        queue_max_bytes=64,  # smaller than a single envelope
    )
    client = system.add_client("alice")
    stub = client.stub(system.ref("calc", b"calc"))
    with pytest.raises(QueueOverflow):
        for i in range(50):
            stub.store(float(i))
