"""Dynamic client stubs.

A :class:`Stub` wraps an object reference and exposes the interface's
operations as Python methods. Marshalling, transport, and voting are the
invoker's concern — the same stub class serves:

* top-level client code, whose invoker sends the request and *runs the
  simulation* until the voted reply arrives, then returns it; and
* servant code, whose invoker returns a :class:`~repro.orb.servant.PendingCall`
  for the servant to ``yield`` (nested invocation, §3.1).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.giop.idl import InterfaceDef
from repro.giop.ior import ObjectRef
from repro.orb.errors import BadOperation

Invoker = Callable[[ObjectRef, str, tuple[Any, ...]], Any]


class Stub:
    """Proxy for a remote object."""

    def __init__(self, ref: ObjectRef, interface: InterfaceDef, invoker: Invoker) -> None:
        if ref.interface_name != interface.name:
            raise BadOperation(
                f"reference is for {ref.interface_name}, stub built for {interface.name}"
            )
        self._ref = ref
        self._interface = interface
        self._invoker = invoker

    @property
    def ref(self) -> ObjectRef:
        return self._ref

    def __getattr__(self, name: str) -> Callable[..., Any]:
        # Only reached for names not found normally — i.e. operations.
        if not self._interface.has_operation(name):
            raise AttributeError(
                f"interface {self._interface.name} has no operation {name!r}"
            )
        operation = self._interface.operation(name)

        def call(*args: Any) -> Any:
            operation.validate_args(args)
            return self._invoker(self._ref, name, args)

        call.__name__ = name
        return call

    def __repr__(self) -> str:
        return f"<Stub {self._interface.name}@{self._ref.domain_id}>"
