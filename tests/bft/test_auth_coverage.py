"""Which messages a replica sends can carry authentication material.

``BftReplica._mcast``/``_p2p`` hand every outgoing message to
``MessageAuth.stamp``, which answers by setting the message's ``auth``
field — so a message type without one cannot be sent authenticated
(``protocol_auth="hmac"`` dies on the first status beacon). This pins the
gap for ROADMAP item 3's audit; it does not fix it.
"""

import pytest

from repro import schema
from repro.bft.auth import NullAuth
from repro.bft.messages import BftMessage
from tests.bft.test_state_transfer import make_app_harness


class RecordingAuth(NullAuth):
    def __init__(self, stamped: set) -> None:
        self.stamped = stamped

    def stamp(self, message, receivers):
        self.stamped.add(type(message))
        return message


def stamped_types() -> set[type]:
    """Every type some replica stamps across: normal case, checkpoints, a
    partitioned replica catching up (status, fill, state transfer), a client
    retry fanned out to backups, and a primary crash (view change)."""
    stamped: set[type] = set()
    harness, _ = make_app_harness()
    for replica in harness.replicas:
        replica.auth = RecordingAuth(stamped)
    lagger = harness.replicas[3]
    harness.network.partition({lagger.pid}, {r.pid for r in harness.replicas[:3]})
    harness.invoke_and_run([b"1"] * 9)
    harness.network.heal()
    harness.invoke_and_run([b"1"] * 4, client_name="client2")
    harness.run(until=harness.network.now + 3.0)
    harness.replicas[0].crash()
    harness.invoke_and_run([b"1"] * 2, client_name="client3")
    harness.run(until=harness.network.now + 3.0)
    return stamped


def without_auth(types: set[type]) -> list[str]:
    return sorted(
        cls.__name__ for cls in types if "auth" not in schema.plan_of(cls).names
    )


def test_scenario_reaches_every_message_a_replica_can_send():
    stamped = stamped_types()
    assert all(issubclass(cls, BftMessage) for cls in stamped)
    # A BFT message that names its ``sender`` is one a replica puts on the
    # wire itself (the rest only ever travel nested inside another).
    senders = {
        cls
        for cls in schema.registered().values()
        if issubclass(cls, BftMessage) and "sender" in schema.plan_of(cls).names
    }
    assert senders <= stamped
    assert without_auth(stamped) == [
        "FillMsg", "StateRequestMsg", "StateResponseMsg", "StatusMsg",
    ]


@pytest.mark.xfail(
    strict=True,
    reason="StatusMsg, FillMsg, StateRequestMsg and StateResponseMsg have no "
    "auth field, so authenticated mode cannot stamp them (ROADMAP item 3)",
)
def test_every_message_a_replica_sends_has_an_auth_field():
    assert without_auth(stamped_types()) == []
