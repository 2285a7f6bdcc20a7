"""ITDOS: the Intrusion Tolerant Distributed Object System.

The paper's primary contribution, assembled from the substrates:

* **Replication domains** (:mod:`~repro.itdos.domain`) — a "server" is
  ``3f+1`` deterministic state-machine elements ordered by PBFT (§2).
* **SMIOP sockets** (:mod:`~repro.itdos.sockets`,
  :mod:`~repro.itdos.smiop`) — virtual connection semantics layered over the
  Castro–Liskov transport, plugged into the ORB (§3.3, Figure 2).
* **Message-queue state machine** (:mod:`~repro.itdos.queuestate`) — the
  replicated state is the ordered message queue, giving scalability
  independent of object size (§3.1, §5).
* **Voting in middleware** (:mod:`~repro.itdos.vvm`,
  :mod:`~repro.itdos.voter`) — exact and inexact voting on *unmarshalled*
  values, so heterogeneous replicas vote correctly where byte-by-byte
  voting fails (§3.6).
* **The Group Manager** (:mod:`~repro.itdos.group_manager`) — itself a
  replication domain; manages membership, connection establishment
  (Figure 3), threshold generation of communication keys via the
  distributed PRF, and expulsion of faulty elements by rekeying (§3.3, §3.5,
  §3.6).
* **Server elements and clients** (:mod:`~repro.itdos.element` under
  :mod:`~repro.itdos.replica`; :mod:`~repro.itdos.client`) — the two-thread
  model: Castro–Liskov delivery feeding an ORB loop, with nested
  invocations via parked generators (§3.1).
* **Fault injection** (:mod:`~repro.itdos.faults`) and the **enclave
  firewall proxy** (:mod:`~repro.itdos.firewall`, Figure 1).

Most users start from :class:`~repro.itdos.bootstrap.ItdosSystem`.
"""

from repro.itdos.bootstrap import ItdosSystem
from repro.itdos.domain import DomainInfo, SystemDirectory
from repro.itdos.voter import ReplyVoter, RequestVoter, VoteOutcome
from repro.itdos.vvm import Comparator, compile_comparator, majority_vote

__all__ = [
    "Comparator",
    "DomainInfo",
    "ItdosSystem",
    "ReplyVoter",
    "RequestVoter",
    "SystemDirectory",
    "VoteOutcome",
    "compile_comparator",
    "majority_vote",
]
