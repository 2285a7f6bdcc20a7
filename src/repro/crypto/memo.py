"""Content-addressed memoization whose entries live as long as their key.

The ordering stack hashes the same message many times: a pre-prepare is
digested when built, once per receiver when MAC-stamped, again at every
receiver's accept, and once more per retransmission tick. All of those
calls encode the same canonical bytes. :class:`WeakMemo` maps a (hashable,
frozen) message to a value computed from it, so equal messages — including
stamped copies, whose ``auth`` field is excluded from equality and hashing,
and an equal copy decoded separately — share one encoding and one digest.

An entry is held weakly on its key and dies with the message it was first
stored under: the memo keeps nothing alive that the protocol has let go.
A message is not cheap to retain — a request or batch carries its payload,
and its canonical encoding is as large again — so a count-bounded cache
keyed by strong references holds thousands of payloads it will never hit.
No size bound is needed and none is kept. No locks either: the simulation
is single-threaded. Hit/miss counters let benchmarks report effectiveness.
"""

from __future__ import annotations

from typing import Any, Callable
from weakref import WeakKeyDictionary

_MISSING = object()
_EMPTY: dict = {}


class WeakMemo:
    """A mapping from live key objects to computed values, with hit/miss
    accounting. Keys compare by value; an entry is dropped when the object
    it was stored under is collected.

    Use one instance either through :meth:`memo` (one value per key) or
    through :meth:`get`/:meth:`put` (one value per key and part).
    """

    def __init__(self) -> None:
        self._data: WeakKeyDictionary[Any, Any] = WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any, part: Any) -> Any:
        """The value stored for ``(key, part)``, or ``None``. ``part`` is a
        plain hashable that qualifies the key (a receiver set), held as
        long as ``key`` is."""
        value = self._data.get(key, _EMPTY).get(part)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Any, part: Any, value: Any) -> None:
        parts = self._data.get(key)
        if parts is None:
            parts = self._data[key] = {}
        parts[part] = value

    def memo(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            value = self._data[key] = compute()
            return value
        self.hits += 1
        return value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "size": float(len(self._data)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            # Nothing is evicted: an entry ends with its key.
            "evictions": 0.0,
            "hit_rate": self.hit_rate,
        }
