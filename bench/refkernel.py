"""The frozen reference kernel every timing metric is divided by.

Wall-clock on a shared 2-vCPU VM does not repeat: back-to-back runs of one
loop differ by a third while the host is contended. The contention slows
this kernel by the same factor as the workload next to it, so the harness
brackets every slice of requests with one kernel run and reports

    ref-us = wall_us * REF_NOMINAL_US / kernel_us

The kernel mixes what the stack itself spends time on (dataclass
construction, ``struct`` packing, sha256/hmac, a 255-bit modular ``pow``,
dict and list traffic) so that cache and frequency effects hit both alike.

FROZEN: an edit here changes the unit of every timing metric and restarts
the trajectory in BENCHMARK.json. ``REF_CHECKSUM`` makes such an edit loud:
the kernel's output is checked on every call.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
import time
from dataclasses import dataclass

#: Nominal duration of one kernel run, in microseconds: the scale factor
#: that keeps ref-us readable as "about a microsecond on the machine the
#: benchmark was defined on". A constant, never re-measured.
REF_NOMINAL_US = 4000.0

#: sha256 of the kernel's output; see :func:`run_kernel`.
REF_CHECKSUM = "abe28c4f7325ca752d38a8872e61752f5bee3766e4e6186fc73cef177eb2d56f"

_P = (1 << 255) - 19
_ROUNDS = 160


@dataclass(frozen=True)
class _Record:
    seq: int
    sender: str
    body: bytes


class RefKernelChanged(RuntimeError):
    """The kernel no longer computes what it computed when it was frozen."""


def run_kernel() -> str:
    """One run of the kernel; returns the hex checksum of its output."""
    acc = hashlib.sha256()
    key = b"ref-kernel-key"
    table: dict[int, _Record] = {}
    x = 0x1234567
    for i in range(_ROUNDS):
        body = struct.pack(">IQd", i, x & 0xFFFFFFFFFFFFFFFF, i * 0.5) * 4
        record = _Record(seq=i, sender=f"e{i & 3}", body=body)
        table[i & 31] = record
        mac = hmac.new(key, record.body, hashlib.sha256).digest()
        acc.update(mac)
        acc.update(record.sender.encode())
        x = pow(x + int.from_bytes(mac[:8], "big"), 65537, _P)
        fields = sorted((r.seq, len(r.body)) for r in table.values())
        acc.update(struct.pack(f">{len(fields)}I", *(s for s, _ in fields)))
    acc.update(x.to_bytes(32, "big"))
    return acc.hexdigest()


def timed_kernel() -> float:
    """Seconds one checked kernel run took."""
    started = time.perf_counter()
    checksum = run_kernel()
    elapsed = time.perf_counter() - started
    if checksum != REF_CHECKSUM:
        raise RefKernelChanged(
            f"reference kernel output {checksum} != frozen {REF_CHECKSUM}; "
            "the kernel is frozen - see bench/README.md"
        )
    return elapsed


def to_ref_us(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` of wall-clock as ref-us, given the kernel time beside it."""
    return seconds / kernel_seconds * REF_NOMINAL_US
