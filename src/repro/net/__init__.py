"""repro.net — the real-network execution backend.

Everything above this package (GIOP, SMIOP, PBFT, voting, the Group
Manager, recovery) runs unchanged over two interchangeable transports:

* :class:`~repro.net.transport.SimTransport` — the discrete-event
  simulator's delivery path (deterministic; the chaos/invariant oracle);
* :class:`~repro.net.tcp.AsyncioTransport` — real OS processes talking
  length-prefixed frames over TCP via asyncio (`python -m repro serve`).

The package layers bottom-up:

``framing``    length-prefixed frame codec (split/coalesced-read safe,
               oversize rejection)
``wire``       payload-object ↔ canonical-bytes codec shared by both
               backends (the byte-identity contract)
``transport``  the Transport seam + the simulator implementation
``clock``      wall-clock scheduler presenting the simulator's timer API
``world``      Network-compatible facade hosting one element per process;
               its ``adversary`` slot runs the chaos plan's link faults
``tcp``        the asyncio TCP transport (reconnect, backpressure)
``config``     topology files and deterministic cluster construction
``node``       the per-process element harness behind ``repro serve``
``launcher``   subprocess cluster launcher used by tests, CI, and bench
"""

from repro.net.clock import RealTimeScheduler
from repro.net.config import TopologyConfig, TopologyError
from repro.net.framing import FrameDecoder, FrameError, encode_frame
from repro.net.transport import SimTransport, Transport
from repro.net.wire import (
    WireCodecError,
    assert_wire_encodable,
    decode_wire_payload,
    encode_wire_payload,
)
from repro.net.world import NetWorld

__all__ = [
    "FrameDecoder",
    "FrameError",
    "encode_frame",
    "NetWorld",
    "RealTimeScheduler",
    "SimTransport",
    "TopologyConfig",
    "TopologyError",
    "Transport",
    "WireCodecError",
    "assert_wire_encodable",
    "decode_wire_payload",
    "encode_wire_payload",
]
