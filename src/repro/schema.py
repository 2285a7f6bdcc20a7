"""One field list per protocol message: the dataclass.

A message is a frozen dataclass decorated with :func:`message`, which reads
``dataclasses.fields`` and the type hints once, at import, into a
:class:`Plan`. The three byte forms a message takes are read off that plan:

* **signed** — what a MAC, signature or digest covers
  (``BftMessage.canonical_fields()``): every field but ``auth`` and the
  ``unsigned=`` ones, nested messages as their own signed dicts;
* **ordered** — what rides inside a BFT request (``to_payload()`` /
  ``parse_payload``) for a message registered with ``kind=``:
  ``{"kind": kind, **fields}``, nested messages as plain dicts;
* **wire** — what crosses a socket (:mod:`repro.net.wire`): every field's
  value, ``auth`` included, in declaration order and without names; only a
  message whose place does not say its class carries the class name.

Sits below ``bft``, ``itdos``, ``recovery`` and ``net``; imports none of them.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Callable

from repro.crypto.encoding import canonical_bytes

_ATOMS = (int, str, bytes, bool)
_BY_CLASS: dict[type, "Plan"] = {}
_BY_NAME: dict[str, "Plan"] = {}
_BY_KIND: dict[str, "Plan"] = {}


class Plan:
    """What :func:`message` worked out for one class, once."""

    def __init__(self, cls: type, unsigned: tuple[str, ...]) -> None:
        hints = typing.get_type_hints(cls)  # PEP 563 strings resolved here, once
        self.cls = cls
        self.hints = hints
        self.name = cls.__name__  # what the wire calls it
        #: the fields in declaration order: the constructor's, and the wire's
        self.names = tuple(field.name for field in dataclasses.fields(cls))
        signed = tuple(n for n in self.names if n != "auth" and n not in unsigned)
        #: instance -> its signed form / every field; nested messages as dicts
        self.signed = _accessor(signed, hints, "signed")
        self.plain = _accessor(self.names, hints, "plain")
        #: per field, what restores its tuples and nested messages (or None)
        self.coercers = tuple((n, _coercer(hints[n])) for n in self.names)

    def build(self, fields: dict) -> Any:
        """An instance from a decoded field dict: unknown keys ignored,
        absent fields left to the dataclass defaults, ``TypeError``/
        ``ValueError`` when that fails."""
        kwargs = {}
        for name, coerce in self.coercers:
            if name in fields:
                kwargs[name] = fields[name] if coerce is None else coerce(fields[name])
        return self.cls(**kwargs)

    def coerce(self, value: Any) -> Any:
        """A field hinted as this class: already rebuilt (named on the wire), or
        still the plain dict the ordered form carries."""
        if type(value) is self.cls:
            return value
        if type(value) is dict:
            return self.build(value)
        raise ValueError(f"expected {self.name}, got {type(value).__name__}")


def message(
    cls: type | None = None, *, kind: str | None = None, unsigned: tuple[str, ...] = ()
) -> Any:
    """Class decorator: register a frozen dataclass as a protocol message.
    ``kind`` makes it an ordered payload (and gives it ``to_payload()``);
    ``unsigned`` names fields besides ``auth`` that the signed form omits.
    A second class under a registered name or kind is a deployment bug."""
    if cls is None:
        return lambda decorated: message(decorated, kind=kind, unsigned=unsigned)
    name = cls.__name__
    if name in _BY_NAME or kind in _BY_KIND:
        raise ValueError(f"message {name!r} (kind {kind!r}) already registered")
    plan = Plan(cls, unsigned)
    _BY_CLASS[cls] = _BY_NAME[name] = plan
    if kind is not None:
        _BY_KIND[kind] = plan
        cls.to_payload = lambda self: encode_payload(kind, plan.plain(self))
    return cls


#: class / wire name -> its :class:`Plan`, or ``None`` when unregistered.
plan_of: Callable[[type], Plan | None] = _BY_CLASS.get
plan_named: Callable[[str], Plan | None] = _BY_NAME.get


def registered() -> dict[str, type]:
    """Wire name -> class, for every registered message."""
    return {name: plan.cls for name, plan in _BY_NAME.items()}


def encode_payload(kind: str, fields: dict[str, Any]) -> bytes:
    """The ordered form: canonical bytes of ``{"kind": kind, **fields}``."""
    return canonical_bytes({"kind": kind, **fields})


def from_payload(fields: dict) -> Any:
    """The message a parsed ordered form describes; ``ValueError`` or
    ``TypeError`` for anything else (an unhashable ``kind`` included)."""
    kind = fields["kind"]
    plan = _BY_KIND.get(kind) if isinstance(kind, str) else None
    if plan is None:
        raise ValueError(f"unknown payload kind {kind!r}")
    return plan.build(fields)


def _accessor(names: tuple[str, ...], hints: dict, form: str) -> Callable[[Any], dict]:
    """``lambda o: {"view": o.view, ...}`` compiled from source, so reading
    a message's fields costs what the hand-written literal did (the signed
    form is read on every simulated send, by ``wire_size()``). Only a field
    whose hint is not an atom goes through ``plain``: a nested message
    becomes its own ``form`` dict, a tuple a list of the same."""

    def plain(value: Any) -> Any:
        plan = _BY_CLASS.get(type(value))
        if plan is not None:
            return getattr(plan, form)(value)
        return [plain(item) for item in value] if type(value) is tuple else value

    items = ", ".join(
        f"{n!r}: o.{n}" if hints[n] in _ATOMS else f"{n!r}: plain(o.{n})" for n in names
    )
    return eval(f"lambda o: {{{items}}}", {"plain": plain})  # noqa: S307 - field names only


def _coercer(hint: Any) -> Callable[[Any], Any] | None:
    """Compile a field's type hint into the function that restores what the
    canonical encoding flattens — tuples, and nested messages still in
    dict form — or ``None`` when values pass through."""
    plan = _BY_CLASS.get(hint) if isinstance(hint, type) else None
    if plan is not None:
        return plan.coerce
    if typing.get_origin(hint) is not tuple and hint is not tuple:
        return None  # atoms, and unions such as ``auth``: nothing to restore
    args = typing.get_args(hint)
    if not args or (len(args) == 2 and args[1] is Ellipsis):
        arity, inners = None, [_coercer(args[0]) if args else None]
    else:
        arity, inners = len(args), [_coercer(arg) for arg in args]

    def coerce_tuple(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected sequence for {hint}, got {type(value).__name__}")
        if arity is None:  # ``tuple`` or ``tuple[X, ...]``
            return tuple(value if inners[0] is None else map(inners[0], value))
        if arity != len(value):
            raise ValueError(f"expected {arity}-tuple for {hint}, got {len(value)} items")
        return tuple(
            item if inner is None else inner(item) for inner, item in zip(inners, value)
        )

    return coerce_tuple
