"""IDL-level interface definitions.

A CORBA system is programmed against IDL interfaces; stubs and skeletons are
generated from them. Here interfaces are declared directly in Python — the
moral equivalent of a compiled IDL file — and drive three consumers:

* the ORB's dynamic stubs (marshal arguments per operation signature),
* servant dispatch (unmarshal + validate before invoking the method),
* the Group Manager's standalone marshalling engine, which needs
  operation signatures looked up *by interface name* to re-vote on
  expulsion proofs (§3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.giop.codec import OperationPlan
from repro.giop.typecodes import TC_VOID, TypeCode, TypeCodeError


class IdlError(Exception):
    """Malformed interface definition or unknown operation/interface."""


@dataclass(frozen=True)
class Parameter:
    """One ``in`` parameter of an operation (out/inout are not modelled)."""

    name: str
    tc: TypeCode


@dataclass(frozen=True)
class Operation:
    """A named operation with typed parameters and a typed result."""

    name: str
    params: tuple[Parameter, ...] = ()
    result: TypeCode = TC_VOID
    oneway: bool = False
    # Declares the operation side-effect free: invoking it must not change
    # servant state. The ITDOS transport may then serve it on the tentative
    # read fast path (executed against the last-committed state, no
    # ordering). The IDL author's declaration is a contract — elements
    # refuse to execute non-read_only operations outside ordering, so a
    # mislabelled mutator can at worst corrupt its own domain's state, never
    # bypass the dedup/ordering guarantees of other operations.
    read_only: bool = False

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise IdlError(f"duplicate parameter names in operation {self.name}")
        if self.oneway and self.result is not TC_VOID:
            raise IdlError(f"oneway operation {self.name} cannot return a value")
        if self.read_only and self.oneway:
            raise IdlError(f"oneway operation {self.name} cannot be read_only")

    def validate_args(self, args: tuple[Any, ...]) -> None:
        if len(args) != len(self.params):
            raise TypeCodeError(
                f"operation {self.name} takes {len(self.params)} args, got {len(args)}"
            )
        for param, arg in zip(self.params, args):
            try:
                param.tc.validate(arg)
            except TypeCodeError as exc:
                raise TypeCodeError(f"{self.name}({param.name}): {exc}") from exc


@dataclass(frozen=True)
class InterfaceDef:
    """A named collection of operations."""

    name: str
    operations: tuple[Operation, ...] = ()

    def __post_init__(self) -> None:
        names = [op.name for op in self.operations]
        if len(set(names)) != len(names):
            raise IdlError(f"duplicate operations in interface {self.name}")

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise IdlError(f"interface {self.name} has no operation {name!r}")

    def has_operation(self, name: str) -> bool:
        return any(op.name == name for op in self.operations)


@dataclass
class InterfaceRepository:
    """Name -> InterfaceDef registry; the simulation's interface repository.

    Shared read-only by all ORBs and by the Group Manager's marshalling
    engine — the deployed analogue is the CORBA Interface Repository plus
    out-of-band IDL distribution.

    ``register`` builds an :class:`~repro.giop.codec.OperationPlan` per
    operation, found by name in ``plans`` (encode) and by the CDR bytes of
    its two name strings in ``wire_plans[order]`` (decode).
    """

    _interfaces: dict[str, InterfaceDef] = field(default_factory=dict)
    plans: dict[tuple[str, str], OperationPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    wire_plans: tuple[dict[tuple[bytes, bytes], OperationPlan], ...] = field(
        default_factory=lambda: ({}, {}), init=False, repr=False, compare=False
    )

    def register(self, interface: InterfaceDef) -> InterfaceDef:
        existing = self._interfaces.get(interface.name)
        if existing is not None and existing != interface:
            raise IdlError(f"conflicting registration for interface {interface.name}")
        self._interfaces[interface.name] = interface
        for op in interface.operations:
            plan = OperationPlan(interface.name, op)
            self.plans[interface.name, op.name] = plan
            for order, key in enumerate(plan.keys):
                self.wire_plans[order][key] = plan
        return interface

    def plan(self, interface_name: str, operation: str) -> OperationPlan:
        """The plan for ``interface_name.operation``; IdlError if unknown."""
        plan = self.plans.get((interface_name, operation))
        if plan is None:
            self.lookup(interface_name).operation(operation)  # raises
        return plan

    def lookup(self, name: str) -> InterfaceDef:
        try:
            return self._interfaces[name]
        except KeyError:
            raise IdlError(f"unknown interface {name!r}") from None

    def knows(self, name: str) -> bool:
        return name in self._interfaces

    def __len__(self) -> int:
        return len(self._interfaces)
