from .build import IndexConfig, build_index
from .streaming import append_index_streaming, build_index_streaming
from .optimize import optimize_index
from .varint import (
    decode_postings,
    delta_decode,
    delta_encode,
    encode_postings,
    varint_decode,
    varint_encode,
)

__all__ = [
    "IndexConfig", "build_index", "optimize_index",
    "append_index_streaming", "build_index_streaming",
    "decode_postings", "delta_decode", "delta_encode",
    "encode_postings", "varint_decode", "varint_encode",
]
