"""Message authentication strategies for BFT protocol traffic.

Castro–Liskov moved from signatures to pairwise-MAC *authenticator vectors*
for throughput [8]; ITDOS additionally needs real signatures on replies so
they can serve as transferable expulsion proof (§3.6). Three strategies:

* :class:`NullAuth` — trusted channels; fastest, used where an experiment is
  not about authentication. The simulated network never spoofs sender ids,
  so safety against *our* fault injectors is preserved.
* :class:`HmacAuth` — one MAC per receiver over the canonical content.
* :class:`RsaAuth` — one signature per message, verifiable by anyone.

Both cryptographic strategies share the message's memoized canonical
encoding (``auth`` is outside the canonical fields, so clean and stamped
instances encode identically) and keep a bounded cache of stamped forms:
stamping a message for n receivers marshals once, and a retransmission of
an identical message reuses the whole authenticator vector or signature.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.crypto.encoding import canonical_bytes
from repro.crypto.memo import MemoCache
from repro.crypto.signing import HmacAuthenticator, KeyRing, RsaSigner

#: Stamped protocol messages retained per strategy instance. Sized to cover
#: a replica's retransmission working set (a few dozen live messages), not
#: the whole log.
STAMP_CACHE_SIZE = 1024


def _content_bytes(message: Any) -> bytes:
    """The canonical bytes a MAC or signature covers.

    ``auth`` never participates in ``canonical_fields()``, so a stamped
    message's own content bytes are exactly what its sender authenticated —
    no stripped copy is needed on either side, and messages that memoize
    their encoding hash once across stamp, accept, and retransmit.
    """
    encode = getattr(message, "canonical_encoding", None)
    if callable(encode):
        return encode()
    return canonical_bytes(message)


class MessageAuth(ABC):
    """Strategy: stamp outgoing messages, accept or reject incoming ones."""

    #: Why the most recent ``accept`` returned False ("" after a success).
    #: Read by the caller's intrusion-evidence hook; a rejected MAC cannot
    #: distinguish a lying sender from a corrupted wire, so this only ever
    #: feeds *soft* suspicion.
    last_reject_reason: str = ""

    @abstractmethod
    def stamp(self, message: Any, receivers: Sequence[str]) -> Any:
        """Return a copy of ``message`` carrying authentication material."""

    @abstractmethod
    def accept(self, src: str, message: Any) -> bool:
        """Is ``message`` authentically from ``src``?"""


class NullAuth(MessageAuth):
    """No cryptographic authentication; rely on the simulator's honest
    source addressing."""

    def stamp(self, message: Any, receivers: Sequence[str]) -> Any:
        return message

    def accept(self, src: str, message: Any) -> bool:
        return True


class HmacAuth(MessageAuth):
    """Authenticator vectors over pairwise keys (Castro–Liskov style)."""

    def __init__(
        self, authenticator: HmacAuthenticator, stamp_cache_size: int = STAMP_CACHE_SIZE
    ) -> None:
        self.authenticator = authenticator
        # (message, receivers) -> stamped copy. Keyed on content equality,
        # so the fresh-but-identical prepares/commits a retransmission tick
        # rebuilds hit without re-MACing.
        self._stamped = MemoCache(maxsize=stamp_cache_size)

    @property
    def stamp_cache(self) -> MemoCache:
        return self._stamped

    def stamp(self, message: Any, receivers: Sequence[str]) -> Any:
        others = tuple(r for r in receivers if r != self.authenticator.own_id)
        key = (message, others)
        cached = self._stamped.get(key)
        if cached is not None:
            return cached
        data = _content_bytes(message)  # marshalled once, shared by every MAC
        vector = {
            peer: self.authenticator.mac_for(peer, data)
            for peer in others
            if self.authenticator.knows(peer)
        }
        stamped = dataclasses.replace(message, auth=vector)
        self._stamped.put(key, stamped)
        return stamped

    def accept(self, src: str, message: Any) -> bool:
        auth = getattr(message, "auth", None)
        if not isinstance(auth, dict):
            self.last_reject_reason = "missing-authenticator"
            return False
        mac = auth.get(self.authenticator.own_id)
        if mac is None:
            self.last_reject_reason = "missing-mac"
            return False
        if not self.authenticator.check(src, _content_bytes(message), mac):
            self.last_reject_reason = "bad-mac"
            return False
        self.last_reject_reason = ""
        return True


class RsaAuth(MessageAuth):
    """One transferable signature per message."""

    def __init__(
        self,
        signer: RsaSigner,
        keyring: KeyRing,
        stamp_cache_size: int = STAMP_CACHE_SIZE,
    ) -> None:
        self.signer = signer
        self.keyring = keyring
        self._stamped = MemoCache(maxsize=stamp_cache_size)

    @property
    def stamp_cache(self) -> MemoCache:
        return self._stamped

    def stamp(self, message: Any, receivers: Sequence[str]) -> Any:
        cached = self._stamped.get(message)
        if cached is not None:
            return cached
        signature = self.signer.sign(_content_bytes(message))
        stamped = dataclasses.replace(message, auth=signature)
        self._stamped.put(message, stamped)
        return stamped

    def accept(self, src: str, message: Any) -> bool:
        auth = getattr(message, "auth", None)
        if not isinstance(auth, (bytes, bytearray)):
            self.last_reject_reason = "missing-signature"
            return False
        if not self.keyring.verify(src, _content_bytes(message), bytes(auth)):
            self.last_reject_reason = "bad-signature"
            return False
        self.last_reject_reason = ""
        return True
