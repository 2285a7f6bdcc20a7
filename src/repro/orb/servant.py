"""Servants: the application objects hosted by a server.

A servant implements the operations of one interface as Python methods.
Two method shapes are supported:

* **plain methods** — compute and return the result directly; and
* **generator methods** — for servants that make *nested invocations* on
  other replication domains (§3.1). A generator method ``yield``s each
  remote :class:`PendingCall` (produced by calling a stub method) and
  receives its voted result back at the yield point::

      def transfer(self, amount):
          balance = yield self.audit_stub.record(amount)   # nested call
          return balance + amount

This is the deterministic single-threaded execution model: the ORB parks the
generator while the reply travels through the totally ordered channel, and
resumes it at the exact same point on every replica.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

from repro.giop.idl import InterfaceDef
from repro.giop.ior import ObjectRef
from repro.orb.errors import BadOperation


@dataclass(frozen=True)
class PendingCall:
    """A nested remote invocation requested by a servant.

    Created by stub methods when invoked in servant context; the servant
    must ``yield`` it, and the ORB supplies the result.
    """

    ref: ObjectRef
    operation: str
    args: tuple[Any, ...]


class Servant:
    """Base class for application objects.

    Subclasses set :attr:`interface` (an :class:`InterfaceDef`) and define
    one method per operation.
    """

    interface: InterfaceDef

    def get_state(self) -> Any:
        """The replicated object state (canonical-encodable) that catch-up
        and object-mode checkpoints carry; ``None``, the default, is none."""
        return None

    def set_state(self, state: Any) -> None:
        """Adopt a peer's :meth:`get_state`, or raise ``TypeError``/
        ``ValueError`` — changing nothing — on a value it does not accept."""
        if state is not None:
            raise TypeError(f"{type(self).__name__} declares no state")

    def dispatch(self, operation: str, args: tuple[Any, ...]) -> Any:
        """Invoke ``operation``; returns the result or a live generator.

        The caller (the ORB's request loop) distinguishes the two by
        :func:`inspect.isgenerator` on the return value.
        """
        if not self.interface.has_operation(operation):
            raise BadOperation(f"{self.interface.name} has no operation {operation!r}")
        method = getattr(self, operation, None)
        if method is None or not callable(method):
            raise BadOperation(
                f"servant {type(self).__name__} does not implement {operation!r}"
            )
        return method(*args)

    def is_generator_operation(self, operation: str) -> bool:
        """Does this operation make nested invocations?"""
        method = getattr(self, operation, None)
        return method is not None and inspect.isgeneratorfunction(method)
