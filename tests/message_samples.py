"""One sample instance per protocol message, built from its type hints.

The message classes are found by scanning the three ``messages`` modules for
the frozen dataclasses they define, and every field value is derived from
the field's hint — so a new message is covered by the schema tests and by
the golden file without being added to any list here.

``python -m tests.message_samples`` (with ``PYTHONPATH=src``) prints the
golden JSON: for every sample, the hex of each byte form the protocol
depends on. ``tests/golden_messages.json`` was generated with it on the
commit *before* the message schema existed; regenerate it only for a
deliberate wire-format change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import types
import typing
from typing import Any

from repro.bft import messages as bft
from repro.crypto.encoding import canonical_bytes
from repro.itdos import messages as itdos
from repro.net.wire import encode_wire_payload
from repro.recovery import messages as recovery
from repro.sim.network import payload_size

MESSAGE_MODULES = (bft, itdos, recovery)

#: Field values a hint cannot supply: validated enumerations, and the one
#: bare ``tuple`` hint (which carries checkpoint messages).
_OVERRIDES: dict[str, dict[str, Any]] = {
    "OpenRequest": {"requester_kind": "singleton"},
    "ChangeRequest": {"requester_kind": "domain"},
    "CoinMessage": {"phase": "commit"},
    "QueueStateResponse": {
        "checkpoint_proof": tuple(
            bft.CheckpointMsg(seq=8, state_digest=b"\x05" * 32, sender=f"kv-e{i}")
            for i in range(3)
        )
    },
}


def message_classes() -> dict[str, type]:
    """Every frozen dataclass the three message modules define, by name
    (``BftMessage`` itself is the field-less base, not a message)."""
    found = {}
    for module in MESSAGE_MODULES:
        for name, obj in vars(module).items():
            if (
                dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
                and obj is not bft.BftMessage
            ):
                assert obj.__dataclass_params__.frozen, f"{name} is not frozen"
                found[name] = obj
    return found


@contextlib.contextmanager
def scratch_registry():
    """Forget, on exit, whatever message classes the block registered."""
    from repro import schema  # here, so the generator runs on a pre-schema commit

    registries = (schema._BY_CLASS, schema._BY_NAME, schema._BY_KIND)
    saved = [dict(registry) for registry in registries]
    try:
        yield
    finally:
        for registry, before in zip(registries, saved):
            registry.clear()
            registry.update(before)


def _value(hint: Any, name: str, position: int) -> Any:
    if hint is int:
        return position + 1
    if hint is str:
        return f"{name}-{position}"
    if hint is bytes:
        return name.encode() + bytes((0, 255, position))
    if hint is bool:
        return True
    if dataclasses.is_dataclass(hint):
        return sample(hint)
    origin = typing.get_origin(hint)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return (_value(args[0], name, position), _value(args[0], name, position + 1))
        return tuple(_value(arg, name, position + i) for i, arg in enumerate(args))
    if origin in (typing.Union, types.UnionType):  # the ``auth`` fields
        if any(typing.get_origin(arg) is dict for arg in typing.get_args(hint)):
            return {"e1": b"\x01" * 8, "e2": b"\x02" * 8}
        return b"\x0a" * 8
    raise AssertionError(f"no sample value for {name}: {hint!r}")


def sample(cls: type, **overrides: Any) -> Any:
    hints = typing.get_type_hints(cls)
    fixed = {**_OVERRIDES.get(cls.__name__, {}), **overrides}
    return cls(
        **{
            field.name: fixed[field.name]
            if field.name in fixed
            else _value(hints[field.name], field.name, position)
            for position, field in enumerate(dataclasses.fields(cls))
        }
    )


def samples() -> dict[str, Any]:
    """Label -> instance: one per class, plus the variants whose bytes take
    a different path (the second coin kind, signature-mode and absent auth)."""
    out = {name: sample(cls) for name, cls in sorted(message_classes().items())}
    out["CoinMessage/reveal"] = sample(itdos.CoinMessage, phase="reveal")
    out["PrepareMsg/signed"] = sample(bft.PrepareMsg, auth=b"\x0b" * 32)
    out["ClientRequest/noauth"] = sample(bft.ClientRequest, auth=None)
    return out


def byte_forms(message: Any) -> dict[str, Any]:
    """Every byte form of one message; ``None`` where the type has none."""
    is_bft = isinstance(message, bft.BftMessage)
    to_payload = getattr(message, "to_payload", None)
    return {
        "signed": canonical_bytes(message).hex() if is_bft else None,
        "digest": message.content_digest().hex() if is_bft else None,
        "wire_size": payload_size(message),
        "payload": to_payload().hex() if to_payload else None,
        "wire": encode_wire_payload(message).hex(),
    }


if __name__ == "__main__":
    print(
        json.dumps(
            {label: byte_forms(message) for label, message in samples().items()},
            indent=1,
        )
    )
