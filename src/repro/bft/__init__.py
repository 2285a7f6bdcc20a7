"""Castro–Liskov Practical Byzantine Fault Tolerance.

ITDOS's Secure Reliable Multicast layer is "the BFT mechanism developed by
Miguel Castro and Barbara Liskov" [6, 7] (§3.1). This package implements the
protocol over the deterministic simulator:

* the three-phase normal case (pre-prepare / prepare / commit) with quorum
  size ``2f+1`` out of ``n >= 3f+1`` replicas;
* client request retransmission and ``f+1`` matching-reply acceptance;
* periodic checkpoints with ``2f+1`` checkpoint quorums, log garbage
  collection, and a sliding watermark window;
* view changes that carry prepared requests into the new view, decided by
  counting senders (no certificate is believed on the names it lists), so
  a faulty primary cannot halt the system;
* one catch-up round (:mod:`repro.bft.catchup`), so a replica that missed a
  stable checkpoint, or disagrees with it, fetches the application state;
* pluggable message authentication (none / pairwise HMAC / RSA signatures),
  mirroring the paper's split between cheap authenticators and transferable
  signatures.

The replica's *application* is an upcall — ITDOS plugs its message-queue
state machine in here, turning the request/response protocol into a message
passing transport exactly as §3.1 describes.
"""

from repro.bft.auth import HmacAuth, MessageAuth, NullAuth, RsaAuth
from repro.bft.client import BftClient, BftClientEngine
from repro.bft.config import BftConfig
from repro.bft.messages import (
    BatchMsg,
    BftReply,
    CatchUpRequest,
    CatchUpResponse,
    CheckpointMsg,
    ClientRequest,
    CommitMsg,
    FillMsg,
    NewViewMsg,
    PrepareMsg,
    PrePrepareMsg,
    StatusMsg,
    ViewChangeMsg,
)
from repro.bft.replica import BftReplica, build_group

__all__ = [
    "BatchMsg",
    "BftClient",
    "BftClientEngine",
    "BftConfig",
    "BftReplica",
    "BftReply",
    "CatchUpRequest",
    "CatchUpResponse",
    "CheckpointMsg",
    "ClientRequest",
    "CommitMsg",
    "FillMsg",
    "HmacAuth",
    "MessageAuth",
    "NewViewMsg",
    "NullAuth",
    "PrePrepareMsg",
    "PrepareMsg",
    "RsaAuth",
    "StatusMsg",
    "ViewChangeMsg",
    "build_group",
]
