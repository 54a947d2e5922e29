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

#: accesses the measuring chain holds at once: tracers split top-level
#: nests into outer-loop spans of about this many, the harness batches
#: them to chunks of it, and the memory hierarchy simulates arrays in
#: slices of it (2**17–2**18 measured fastest; smaller chunks pay the
#: levels' state replay more often, larger ones leave the CPU caches)
CHUNK_ACCESSES = 2**18

__all__ = [
    "AddressStream",
    "CHUNK_ACCESSES",
    "FORMAT_VERSION",
    "StreamFormatError",
    "StreamMeta",
    "read_stream",
    "read_stream_binary",
    "read_stream_csv",
    "write_stream",
    "write_stream_csv",
]
