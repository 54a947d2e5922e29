"""Typed address streams: the common currency below the trace layer.

An :class:`AddressStream` is the one representation every producer of
memory references emits — the interpreter tracer, the codegen tracer,
and external traces imported from disk — and
every consumer accepts: the cache/hierarchy simulators, the locality
analyzers, and the on-disk trace cache.  See DESIGN §9.
"""

from .io import (
    FORMAT_VERSION,
    StreamFormatError,
    read_stream,
    read_stream_binary,
    read_stream_csv,
    write_stream,
    write_stream_csv,
)
from .stream import AddressStream, StreamMeta

__all__ = [
    "AddressStream",
    "FORMAT_VERSION",
    "StreamFormatError",
    "StreamMeta",
    "read_stream",
    "read_stream_binary",
    "read_stream_csv",
    "write_stream",
    "write_stream_csv",
]
