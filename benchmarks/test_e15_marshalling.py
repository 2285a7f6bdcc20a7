"""E15 — compiled CDR codecs: marshal/vote fast-path throughput.

ITDOS encodes every request once per sender and decodes every reply 3f+1
times in the client-side voter (§3.6), so CDR marshalling sits on the
system's hottest path once E14's batching has amortized the ordering
traffic. This experiment times the compiled codec plans against the
reference TypeCode walker in ``tests/giop/reference_cdr.py``: encode/decode
ops/s per corpus TypeCode, both byte orders — the struct/sequence workloads
must show the >= 3x combined speedup the plans exist for. Byte-identity of
the two is asserted inline for every cell.

The end-to-end off/on cell (ordered req/s with the wire path switched
between the two coders, x1.38 in RESULTS.md) is retired: the product has
one coder and no switch to flip. The scoreboard's ``giop.self_us`` /
``giop.calls`` / ``giop.bytes`` rows are the continuing measurement.
"""

import time

from benchmarks.conftest import once, print_table
from repro.giop.codec import codec_cache_stats, compile_codec
from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_STRING,
    TC_ULONG,
    SequenceType,
    StructType,
)
from tests.giop.reference_cdr import CdrDecoder, CdrEncoder

SAMPLE = StructType(
    "Sample", (("t", TC_DOUBLE), ("value", TC_DOUBLE), ("seq", TC_ULONG))
)
READING = StructType(
    "Reading",
    (("ok", TC_BOOLEAN), ("label", TC_STRING), ("samples", SequenceType(SAMPLE))),
)

CELLS = [
    ("struct", SAMPLE, {"t": 1.5, "value": -2.25, "seq": 7}),
    ("seq<double>[256]", SequenceType(TC_DOUBLE), [i * 0.25 for i in range(256)]),
    (
        "seq<struct>[64]",
        SequenceType(SAMPLE),
        [{"t": i * 0.5, "value": i * 1.25, "seq": i} for i in range(64)],
    ),
    (
        "mixed nested",
        READING,
        {
            "ok": True,
            "label": "sensor-7",
            "samples": [
                {"t": i * 0.5, "value": i * 1.25, "seq": i} for i in range(16)
            ],
        },
    ),
]

# The cells the fast path is for: bulk primitive runs and struct sequences.
HOT_CELLS = {"seq<double>[256]", "seq<struct>[64]"}


def _rate(fn, min_time=0.08):
    """(ops/sec, seconds/op) via an adaptive doubling loop."""
    fn()  # warm: compile plans, fill caches
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            return n / elapsed, elapsed / n
        n *= 2


def _measure_cell(tc, value, byte_order):
    def enc_interp():
        encoder = CdrEncoder(byte_order)
        encoder.encode(tc, value)
        return encoder.getvalue()

    codec = compile_codec(tc)
    order = 0 if byte_order == "big" else 1

    def enc_fast():
        buf = bytearray()
        codec.encode_value_into(buf, value, order)
        return bytes(buf)

    wire = enc_interp()
    assert wire == enc_fast()  # byte identity before any timing

    def dec_interp():
        return CdrDecoder(wire, byte_order).decode(tc)

    def dec_fast():
        return codec.decode_value(memoryview(wire), 0, order)[0]

    assert dec_fast() == dec_interp()
    return {
        "wire_bytes": len(wire),
        "encode_interp": _rate(enc_interp)[0],
        "encode_fast": _rate(enc_fast)[0],
        "decode_interp": _rate(dec_interp)[0],
        "decode_fast": _rate(dec_fast)[0],
    }


def test_e15_micro_codec_throughput(benchmark):
    def scenario():
        return {
            (name, order): _measure_cell(tc, value, order)
            for name, tc, value in CELLS
            for order in ("big", "little")
        }

    table = once(benchmark, scenario)
    rows = []
    combined = {}
    for name, _tc, _value in CELLS:
        for order in ("big", "little"):
            cell = table[(name, order)]
            enc_x = cell["encode_fast"] / cell["encode_interp"]
            dec_x = cell["decode_fast"] / cell["decode_interp"]
            # Combined = one encode + one decode of the same value, the
            # voter-path unit of work.
            combined[(name, order)] = (
                1 / cell["encode_interp"] + 1 / cell["decode_interp"]
            ) / (1 / cell["encode_fast"] + 1 / cell["decode_fast"])
            rows.append(
                [
                    name,
                    order,
                    cell["wire_bytes"],
                    f"{cell['encode_fast']:,.0f}",
                    f"x{enc_x:.1f}",
                    f"{cell['decode_fast']:,.0f}",
                    f"x{dec_x:.1f}",
                    f"x{combined[(name, order)]:.1f}",
                ]
            )
    print_table(
        "E15 — compiled codec vs interpreted CDR (micro)",
        ["workload", "order", "bytes", "enc/s", "enc speedup",
         "dec/s", "dec speedup", "enc+dec speedup"],
        rows,
    )
    # The headline claim: >= 3x combined encode+decode throughput on the
    # struct/sequence workloads, both byte orders.
    for name in HOT_CELLS:
        for order in ("big", "little"):
            assert combined[(name, order)] >= 3.0, (name, order, combined)
    # The fast path must never lose, even on the tiny-struct cell.
    for key, speedup in combined.items():
        assert speedup >= 0.9, (key, speedup)
    benchmark.extra_info["combined_speedup"] = {
        f"{name}/{order}": round(speedup, 2)
        for (name, order), speedup in combined.items()
    }
    benchmark.extra_info["codec_cache"] = codec_cache_stats()
