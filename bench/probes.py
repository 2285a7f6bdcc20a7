"""Timing probes around the layers' entry points, installed from here.

``TARGETS`` is the one table: ``"module:qualname" -> layer``. For the
traced run every target is wrapped so that each call is a span; a layer's
*self time* is its spans' durations minus the part their child spans cover
(everything runs on one thread, so the span stack gives the parent). Spans
are summed per layer as they close; nothing per-span is kept.

Layers are the repo's module names. Small modules without an entry of
their own are charged to the layer that calls them: ``itdos.client`` to
``orb``, ``itdos.smiop`` to ``itdos.sockets``, the simulator's
``net.transport.SimTransport`` to ``sim``; ``itdos.messages``, ``itdos.keys``,
``itdos.queuestate``, ``crypto.rsa`` and ``crypto.dprf`` stay inside whichever
span calls them.

Modules import names by value (``from repro.crypto.digests import digest``),
so :func:`install` rebinds every ``repro.*`` module attribute and class
attribute that *is* the target, and :meth:`Installed.remove` puts the
originals back. Install before the deployment is built: constructors store
bound methods (``self.execute_fn = self._bft_execute``) that would
otherwise bypass the wrapper.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict, deque
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = (
    "orb",
    "giop",
    "crypto.symmetric",
    "crypto.signing",
    "crypto.encoding",
    "crypto.digests",
    "bft",
    "itdos.sockets",
    "itdos.replica",
    "itdos.voter",
    "itdos.readtier",
    "itdos.group_manager",
    "sim",
    "net.world",
    "net.wire",
    "net.framing",
    "net.tcp",
)

#: ``module:qualname`` -> layer. A rename in ``src/`` must break
#: ``bench/tests/test_probes.py``, never silently zero a layer.
TARGETS: dict[str, str] = {
    # orb: the client- and server-side ORB calls of one invocation
    "repro.itdos.client:ItdosClient.async_invoke": "orb",
    "repro.orb.core:Orb.marshal_request": "orb",
    "repro.orb.core:Orb.unmarshal_reply": "orb",
    "repro.orb.core:Orb.result_from_reply": "orb",
    "repro.orb.core:Orb.unmarshal_request": "orb",
    "repro.orb.core:Orb.dispatch": "orb",
    "repro.orb.core:Orb.marshal_reply": "orb",
    # giop: CDR marshalling of whole messages
    "repro.giop.messages:encode_request": "giop",
    "repro.giop.messages:encode_reply": "giop",
    "repro.giop.messages:decode_message": "giop",
    "repro.giop.messages:peek_request_header": "giop",
    # crypto
    "repro.crypto.symmetric:encrypt": "crypto.symmetric",
    "repro.crypto.symmetric:decrypt": "crypto.symmetric",
    "repro.crypto.signing:RsaSigner.sign": "crypto.signing",
    "repro.crypto.signing:KeyRing.verify": "crypto.signing",
    "repro.crypto.encoding:canonical_bytes": "crypto.encoding",
    "repro.crypto.encoding:parse_canonical": "crypto.encoding",
    "repro.crypto.digests:digest": "crypto.digests",
    "repro.crypto.digests:hmac_digest": "crypto.digests",
    # bft: message handling, timers, the client engine
    "repro.bft.replica:BftReplica.on_message": "bft",
    "repro.bft.replica:BftReplica._retransmit_tick": "bft",
    "repro.bft.replica:BftReplica._on_batch_timeout": "bft",
    "repro.bft.replica:BftReplica._on_vc_timeout": "bft",
    "repro.bft.client:BftClientEngine.invoke": "bft",
    "repro.bft.client:BftClientEngine.handle_message": "bft",
    "repro.bft.client:BftClientEngine._retry": "bft",
    # itdos.sockets: SMIOP virtual connections (and their ORB adapter)
    "repro.itdos.smiop:SmiopTransport.connect": "itdos.sockets",
    "repro.itdos.smiop:SmiopConnectionAdapter.send_request": "itdos.sockets",
    "repro.itdos.sockets:SmiopEndpoint.handle_message": "itdos.sockets",
    "repro.itdos.sockets:SmiopEndpoint.handle_gm_share": "itdos.sockets",
    "repro.itdos.sockets:OutgoingConnection._retry": "itdos.sockets",
    "repro.itdos.sockets:OutgoingConnection._read_exhausted": "itdos.sockets",
    "repro.itdos.sockets:OutgoingConnection._decided": "itdos.sockets",
    "repro.itdos.sockets:OutgoingConnection._read_decided": "itdos.sockets",
    # itdos.replica: routing, the execute upcall, checkpoint snapshots
    "repro.itdos.replica:ItdosServerElement.on_message": "itdos.replica",
    "repro.itdos.replica:ItdosServerElement._bft_execute": "itdos.replica",
    "repro.itdos.replica:ItdosServerElement._snapshot": "itdos.replica",
    "repro.itdos.replica:ItdosServerElement._on_head_stall": "itdos.replica",
    # itdos.voter
    "repro.itdos.voter:ReplyVoter.begin": "itdos.voter",
    "repro.itdos.voter:ReplyVoter.offer": "itdos.voter",
    "repro.itdos.voter:ReadVoter.begin": "itdos.voter",
    "repro.itdos.voter:ReadVoter.offer": "itdos.voter",
    "repro.itdos.voter:RequestVoter.offer": "itdos.voter",
    # itdos.readtier
    "repro.itdos.readtier:ReadOnlyElement.on_message": "itdos.readtier",
    "repro.itdos.readtier:ReadOnlyElement._on_feed_stall": "itdos.readtier",
    # itdos.group_manager
    "repro.itdos.group_manager:GroupManagerElement.on_message": "itdos.group_manager",
    "repro.itdos.group_manager:GroupManagerElement._gm_execute": "itdos.group_manager",
    "repro.itdos.group_manager:GroupManagerElement.start": "itdos.group_manager",
    # sim: the scheduler loop and the simulated network
    "repro.sim.scheduler:Scheduler.run": "sim",
    "repro.sim.network:Network.send": "sim",
    "repro.sim.network:Network.multicast": "sim",
    "repro.net.transport:SimTransport.transmit": "sim",
    # net.*: the real wire
    "repro.net.world:NetWorld.send": "net.world",
    "repro.net.world:NetWorld.multicast": "net.world",
    "repro.net.world:NetWorld.deliver": "net.world",
    "repro.net.wire:encode_datagram": "net.wire",
    "repro.net.wire:decode_datagram": "net.wire",
    "repro.net.framing:encode_frame": "net.framing",
    "repro.net.framing:FrameDecoder.feed": "net.framing",
    "repro.net.tcp:AsyncioTransport.transmit": "net.tcp",
    "repro.net.tcp:AsyncioTransport._enqueue": "net.tcp",
    "repro.net.tcp:AsyncioTransport._handle_frame": "net.tcp",
}


class Tracer:
    """Per-layer self time, call counts, and the counts taken at probes.

    Off until :attr:`active` is set, so set-up, warm-up and the reference
    kernel run unprobed. :meth:`snapshot` before and after a slice gives the
    slice's share by subtraction.
    """

    def __init__(self) -> None:
        self.active = False
        self.self_ns: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: nanoseconds inside any span (the complement is ``other``)
        self.covered_ns = 0
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: open spans, innermost last: [nanoseconds in child spans, target]
        self.stack: list[list] = []
        #: per (src, dst) link, when each frame still in flight was enqueued
        self.in_flight: defaultdict[tuple[str, str], deque[int]] = defaultdict(deque)

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "covered_ns": self.covered_ns,
            "counts": dict(self.counts),
        }


# -- counts taken at the probes --------------------------------------------------
# Each hook sees (tracer, args, kwargs, result) of one finished call.


def _len_of_result(name: str) -> Callable:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[name] += len(result)

    return hook


def _len_of_arg(name: str, index: int) -> Callable:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[name] += len(args[index])

    return hook


def _tally(name: str) -> Callable:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[name] += 1

    return hook


_BFT_CLASSES = {
    "PrePrepareMsg": "bft.preprepares",
    "PrepareMsg": "bft.prepares",
    "CommitMsg": "bft.commits",
    "CheckpointMsg": "bft.checkpoints",
    "ViewChangeMsg": "bft.view_changes",
}


def _classify_multicast(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """``multicast(self, src, group, payload)``: the payload class is the
    protocol phase; a pre-prepare also says how full its batch is."""
    payload = args[3]
    tracer.counts["multicasts"] += 1
    name = _BFT_CLASSES.get(type(payload).__name__)
    if name is not None:
        tracer.counts[name] += 1
        if name == "bft.preprepares":
            tracer.counts["bft.batched_requests"] += len(payload.batch.requests)


def _frame_enqueued(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    transport, dst = args[0], args[1]
    tracer.in_flight[(transport.own_pid, dst)].append(perf_counter_ns())


def _frame_decoded(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Enqueue at the sender to decode at the receiver, matched in link
    order: queue wait + writer task + socket + reader task."""
    src, dst, _payload = result
    waiting = tracer.in_flight[(src, dst)]
    if waiting:
        tracer.counts["net.tcp.wait_ns"] += perf_counter_ns() - waiting.popleft()
        tracer.counts["net.tcp.waits"] += 1


HOOKS: dict[str, Callable] = {
    "repro.giop.messages:encode_request": _len_of_result("giop.bytes"),
    "repro.giop.messages:encode_reply": _len_of_result("giop.bytes"),
    "repro.giop.messages:decode_message": _len_of_arg("giop.bytes", 1),
    "repro.crypto.symmetric:encrypt": _len_of_arg("crypto.symmetric.bytes", 1),
    "repro.crypto.symmetric:decrypt": _len_of_result("crypto.symmetric.bytes"),
    "repro.crypto.encoding:canonical_bytes": _len_of_result("crypto.encoding.bytes"),
    "repro.crypto.encoding:parse_canonical": _len_of_arg("crypto.encoding.bytes", 0),
    "repro.crypto.signing:RsaSigner.sign": _tally("crypto.signing.signs"),
    "repro.crypto.signing:KeyRing.verify": _tally("crypto.signing.verifies"),
    "repro.itdos.voter:ReplyVoter.offer": _tally("itdos.voter.ballots"),
    "repro.itdos.voter:ReadVoter.offer": _tally("itdos.voter.ballots"),
    "repro.itdos.sockets:OutgoingConnection._decided": _tally("itdos.voter.decisions"),
    "repro.itdos.sockets:OutgoingConnection._read_decided": _tally("itdos.voter.decisions"),
    "repro.sim.network:Network.multicast": _classify_multicast,
    "repro.net.world:NetWorld.multicast": _classify_multicast,
    "repro.net.wire:encode_datagram": _tally("net.wire.encodes"),
    "repro.net.wire:decode_datagram": _frame_decoded,
    "repro.net.tcp:AsyncioTransport._enqueue": _frame_enqueued,
}


# -- wrapping ----------------------------------------------------------------------


def _wrap(tracer: Tracer, target: str, fn: Callable, layer: str, hook: Callable | None) -> Callable:
    stack = tracer.stack
    self_ns = tracer.self_ns
    calls = tracer.calls

    def probe(*args: Any, **kwargs: Any) -> Any:
        # A target calling itself (canonical_bytes recursing through its
        # module global) stays inside the span already open.
        if not tracer.active or (stack and stack[-1][1] is target):
            return fn(*args, **kwargs)
        frame = [0, target]
        stack.append(frame)
        started = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - started
            stack.pop()
            self_ns[layer] += elapsed - frame[0]
            calls[layer] += 1
            if stack:
                stack[-1][0] += elapsed
            else:
                tracer.covered_ns += elapsed
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    probe.__wrapped__ = fn  # type: ignore[attr-defined]
    probe.__name__ = getattr(fn, "__name__", "probe")
    probe.__qualname__ = getattr(fn, "__qualname__", "probe")
    return probe


def resolve(target: str) -> Callable:
    """The plain function a ``module:qualname`` target names.

    Raises ``ImportError``/``AttributeError`` when ``src/`` renamed it.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, leaf = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    value = vars(owner)[leaf] if leaf in vars(owner) else getattr(owner, leaf)
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if not callable(value):
        raise AttributeError(f"{target} is not callable")
    return value


def _namespaces() -> list[Any]:
    """Every loaded ``repro`` module, and every class one of them defines."""
    found: list[Any] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        found.append(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                found.append(value)
    return found


def _rebind(old: Callable, new: Callable) -> int:
    """Point every attribute that is ``old`` at ``new``; returns how many."""
    rebound = 0
    for owner in _namespaces():
        for attr, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, attr, new)
            elif isinstance(value, staticmethod) and value.__func__ is old:
                setattr(owner, attr, staticmethod(new))
            elif isinstance(value, classmethod) and value.__func__ is old:
                setattr(owner, attr, classmethod(new))
            else:
                continue
            rebound += 1
    return rebound


class Installed:
    """The probes now in place; :meth:`remove` restores the originals."""

    def __init__(self, pairs: list[tuple[Callable, Callable]]) -> None:
        self._pairs = pairs

    def remove(self) -> None:
        for original, probe in self._pairs:
            _rebind(probe, original)
        self._pairs = []


def install(tracer: Tracer) -> Installed:
    """Wrap every target in :data:`TARGETS`; spans report to ``tracer``."""
    pairs = []
    for target, layer in TARGETS.items():
        original = resolve(target)
        probe = _wrap(tracer, target, original, layer, HOOKS.get(target))
        if not _rebind(original, probe):
            raise AttributeError(f"{target} resolved but nothing binds it")
        pairs.append((original, probe))
    return Installed(pairs)
