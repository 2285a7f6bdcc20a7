"""Per-process history of a world, recorded from its observer events.

Processes keep no history lists: each ordered batch, execution, servant
dispatch and decided fast-path read is reported to ``network.observer``
(``repro.sim.network.Network``). Tests that assert over those histories
attach a :class:`History` before the traffic they examine::

    history = History(system.network)
    ...
    assert history.executions[a.pid] == history.executions[b.pid]

Every table is a ``defaultdict(list)``, so a process that never reported
reads as an empty history.
"""

from __future__ import annotations

from collections import defaultdict


class History:
    """Records every observer event of one network, per process."""

    def __init__(self, network) -> None:
        # pid -> [(seq, batch digest)]
        self.orders: defaultdict[str, list] = defaultdict(list)
        # pid -> [(seq, client id, timestamp)]
        self.executions: defaultdict[str, list] = defaultdict(list)
        # pid -> [(conn id, request id)]
        self.dispatches: defaultdict[str, list] = defaultdict(list)
        # (pid, conn id) -> [(read id, decided watermark)]
        self.read_decisions: defaultdict[tuple, list] = defaultdict(list)
        network.observer = self

    def on_order(self, pid, seq, batch_digest) -> None:
        self.orders[pid].append((seq, batch_digest))

    def on_execute(self, pid, seq, client_id, timestamp) -> None:
        self.executions[pid].append((seq, client_id, timestamp))

    def on_dispatch(self, pid, conn_id, request_id) -> None:
        self.dispatches[pid].append((conn_id, request_id))

    def on_read_decided(self, pid, conn_id, read_id, watermark) -> None:
        self.read_decisions[(pid, conn_id)].append((read_id, watermark))

    def on_deliver(self, src, dst, payload) -> None:
        """Deliveries are not history."""
