"""Property: BFT safety holds under randomized crash/partition schedules.

Whatever the adversarial schedule does (within the f-bound), no two
replicas may ever execute different requests at the same sequence number —
the linearisability core of the protocol. Liveness is checked only when
the schedule leaves a quorum connected.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.bft.conftest import Harness

events = st.lists(
    st.one_of(
        st.tuples(st.just("invoke"), st.integers(min_value=0, max_value=255)),
        st.tuples(st.just("crash"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("partition"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("heal"), st.none()),
        st.tuples(st.just("advance"), st.floats(min_value=0.1, max_value=2.0)),
    ),
    min_size=3,
    max_size=10,
)


# Found by a random seed. A replica joining a view change while its own
# timer ran left that timer armed, and it fired into healthy views: the
# group climbed to view 10 before the second request completed, and to 26
# with no traffic at all.
SLOW_HEAL = [
    ("invoke", 0), ("crash", 0), ("advance", 2.0),
    ("invoke", 0), ("partition", 1), ("advance", 2.0),
]


def play(schedule, seed):
    """Drive ``schedule`` on a fresh group, then heal and settle 10 s.

    Returns the harness, the results accepted so far (one per completed
    invocation) and the number of invocations made.
    """
    harness = Harness(seed=seed)
    client = harness.client()
    crashed = 0
    invoked = 0
    completed: list[bytes] = []
    for action, arg in schedule:
        if action == "invoke":
            # PBFT clients are single-outstanding: a request pipelined
            # behind an uncommitted one can be superseded by the replicas'
            # at-most-once timestamp table if orderings invert across a
            # view change. Respect the client model.
            if client.outstanding:
                continue
            invoked += 1
            client.invoke(bytes([arg]), completed.append)
        elif action == "crash" and crashed == 0:
            # At most one crash: stay within f=1.
            target = harness.replicas[arg]
            if not target.crashed:
                target.crash()
                crashed += 1
        elif action == "partition":
            target = harness.replicas[arg]
            others = {r.pid for r in harness.replicas if r is not target}
            harness.network.heal()
            harness.network.partition({target.pid}, others)
        elif action == "heal":
            harness.network.heal()
        elif action == "advance":
            harness.run(until=harness.network.now + arg, max_events=500_000)
    harness.network.heal()
    harness.run(until=harness.network.now + 10.0, max_events=1_000_000)
    return harness, completed, invoked


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(schedule=events, seed=st.integers(min_value=0, max_value=1000))
@example(schedule=SLOW_HEAL, seed=0)
def test_property_no_divergent_execution(schedule, seed):
    harness, completed, invoked = play(schedule, seed)

    # SAFETY: per sequence number, all replicas that executed it agree.
    by_seq: dict[int, set] = {}
    for replica in harness.replicas:
        for seq, client_id, ts in harness.executions(replica):
            by_seq.setdefault(seq, set()).add((client_id, ts))
    for seq, executions in by_seq.items():
        assert len(executions) == 1, f"divergence at seq {seq}: {executions}"

    # LIVENESS (conditional): with one crash at most and the network healed,
    # every invocation completes within a short horizon after the settle.
    # The view-change back-off only escalates while a view change or an
    # accepted request is outstanding, so a healed group is back on a
    # stable view well inside the settle; 2 s covers the client's retry.
    harness.network.run(
        until=harness.network.now + 2.0,
        max_events=1_000_000,
        stop_when=lambda: len(completed) == invoked,
    )
    assert len(completed) == invoked
