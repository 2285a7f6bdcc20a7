"""E9 — §3.6: voter garbage collection bounds state under attack.

"By doing this, receivers avoid retaining information without limit,
avoiding a potential attack." — stale or flooded replies are discarded
without penalty, the single outstanding request per connection keeps the
collation window small, and the voter's memory stays bounded no matter what
a Byzantine element sends.
"""

from typing import Any

from benchmarks.conftest import once, print_table
from repro.crypto.symmetric import encrypt
from repro.itdos.messages import SmiopReply
from repro.itdos.replica import IncomingConnection
from repro.itdos.sockets import traffic_nonce
from repro.workloads.scenarios import CalculatorServant, standard_repository
from repro.itdos.bootstrap import ItdosSystem

FLOOD = 300


class ReplyFloodElement:
    """Floods the client with garbage replies under stale/bogus ids."""

    def _send_reply(
        self, record: IncomingConnection, request_id: int, plaintext: bytes
    ) -> None:
        super()._send_reply(record, request_id, plaintext)
        key = self.key_store.current_key(record.conn_id)
        if key is None or record.client_kind != "singleton":
            return
        for i in range(FLOOD):
            bogus_id = max(1, request_id - 1) if i % 2 == 0 else request_id + 50 + i
            nonce = traffic_nonce(record.conn_id, bogus_id, f"{self.pid}-{i}", "rep")
            flood = SmiopReply(
                conn_id=record.conn_id,
                request_id=bogus_id,
                key_id=key.key_id,
                ciphertext=encrypt(key, b"\x00" * 32, nonce),
                sender=self.pid,
                signature=b"\x00" * 32,
            )
            self.send(record.client, flood)


def test_e9_voter_gc_under_reply_flood(benchmark):
    def scenario():
        system = ItdosSystem(seed=51, repository=standard_repository())
        system.add_server_domain(
            "calc",
            f=1,
            servants=lambda element: {b"calc": CalculatorServant()},
            byzantine={"calc-e3": ReplyFloodElement},
        )
        client = system.add_client("alice")
        stub = client.stub(system.ref("calc", b"calc"))
        results = [stub.add(float(i), 1.0) for i in range(5)]
        system.settle(1.0)
        return system, client, results

    system, client, results = once(benchmark, scenario)
    assert results == [float(i) + 1.0 for i in range(5)]

    connection = next(iter(client.endpoint.connections.values()))
    voter = connection.voter
    flood_sent = 5 * FLOOD
    print_table(
        "E9 — voter state under a reply flood (one Byzantine element)",
        ["metric", "value"],
        [
            ["garbage replies sent by the attacker", f">= {flood_sent}"],
            ["voted results delivered correctly", f"{len(results)}/5"],
            ["ballots retained by the voter", voter.ballots_held],
            ["voter hard memory bound (2n)", voter.n * 2],
            ["messages discarded without penalty", voter.discarded],
        ],
    )
    # Shape: bounded memory, massive discards, full availability.
    assert voter.ballots_held <= voter.n * 2
    assert voter.discarded >= flood_sent * 0.9
    # The flooding element was NOT penalised for stale ids (the paper:
    # "cannot distinguish between late and Byzantine processes").
    accused = {
        accused_pid
        for request in client.endpoint.change_requests_sent
        for accused_pid in request.accused
    }
    assert "calc-e3" not in accused
    benchmark.extra_info["discarded"] = voter.discarded
