"""A recovered replica is indistinguishable from one that never left.

:func:`same_state` compares two replicas of one ordering group on what
decides their future behaviour: view, last executed sequence number, stable
checkpoint, client table (timestamp and result digest per client), the
outstanding requests, and which of the replica's timers are armed. Use it
after an idle window, once both replicas have had time to catch up::

    assert same_state(recovered, peer), (state_of(recovered), state_of(peer))
"""

from __future__ import annotations

from repro.bft.replica import BftReplica
from repro.crypto.digests import digest


def armed_timers(replica: BftReplica) -> set[str]:
    """The kinds of timer ``replica`` has armed: each ``*_timer`` attribute
    whose handle is still pending. A handle whose event has passed is not
    armed, however the attribute reads."""
    return {
        name
        for name, handle in vars(replica).items()
        if name.endswith("_timer") and handle is not None and handle in replica._timers
    }


def state_of(replica: BftReplica) -> dict[str, object]:
    """The fields :func:`same_state` compares, as one comparable dict."""
    stable_seq, snapshot = replica.stable_checkpoint()
    return {
        "view": replica.view,
        "last_executed": replica.last_executed,
        "stable_checkpoint": (stable_seq, digest(snapshot).hex()),
        "client_table": {
            client: (timestamp, digest(result).hex())
            for client, (timestamp, result) in sorted(replica.client_table.items())
        },
        "awaiting": dict(sorted(replica._awaiting.items())),
        "armed_timers": sorted(armed_timers(replica)),
    }


def same_state(a: BftReplica, b: BftReplica) -> bool:
    """Are ``a`` and ``b`` indistinguishable on every field of :func:`state_of`?"""
    return state_of(a) == state_of(b)
