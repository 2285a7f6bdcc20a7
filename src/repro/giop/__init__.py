"""GIOP/CDR marshalling and the IDL-level type system.

CORBA interoperability rests on the General Inter-ORB Protocol [28]: typed
values are marshalled with Common Data Representation (CDR) rules — sender
chooses byte order (carried in a header flag), primitives are aligned to
their natural boundaries — and wrapped in GIOP Request/Reply messages.

This package implements the subset ITDOS needs, plus the paper's two
extensions:

* the **full interface name embedded in the GIOP request header** (§3.6:
  "ITDOS adds the full interface name to the GIOP message (which GIOP
  doesn't normally provide)") so the Group Manager's standalone marshalling
  engine can unmarshal and re-vote on proof messages; and
* **platform profiles** (:mod:`~repro.giop.platforms`) that emulate
  heterogeneous implementations: byte order differences change the wire
  bytes of equal values, and floating-point pipelines differ in low-order
  bits — the two phenomena that break byte-by-byte voting [3].
"""

from repro.giop.codec import (
    CdrError,
    clear_codec_cache,
    codec_cache_stats,
    compile_codec,
)
from repro.giop.idl import InterfaceDef, InterfaceRepository, Operation, Parameter
from repro.giop.ior import ObjectRef
from repro.giop.messages import (
    GiopError,
    ReplyMessage,
    ReplyStatus,
    RequestHeader,
    RequestMessage,
    decode_message,
    encode_reply,
    encode_request,
    peek_request_header,
)
from repro.giop.platforms import (
    LINUX_X86,
    PLATFORMS,
    SOLARIS_SPARC,
    PlatformProfile,
)
from repro.giop.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_STRING,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    TC_VOID,
    EnumType,
    SequenceType,
    StructType,
    TypeCode,
    TypeCodeError,
)

__all__ = [
    "CdrError",
    "EnumType",
    "GiopError",
    "InterfaceDef",
    "InterfaceRepository",
    "LINUX_X86",
    "ObjectRef",
    "Operation",
    "PLATFORMS",
    "Parameter",
    "PlatformProfile",
    "ReplyMessage",
    "ReplyStatus",
    "RequestHeader",
    "RequestMessage",
    "SOLARIS_SPARC",
    "SequenceType",
    "StructType",
    "TC_BOOLEAN",
    "TC_DOUBLE",
    "TC_FLOAT",
    "TC_LONG",
    "TC_LONGLONG",
    "TC_OCTET",
    "TC_SHORT",
    "TC_STRING",
    "TC_ULONG",
    "TC_ULONGLONG",
    "TC_USHORT",
    "TC_VOID",
    "TypeCode",
    "TypeCodeError",
    "clear_codec_cache",
    "codec_cache_stats",
    "compile_codec",
    "decode_message",
    "encode_reply",
    "encode_request",
    "peek_request_header",
]
