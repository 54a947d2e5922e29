"""Typed address streams: the common currency below the trace layer.

An :class:`AddressStream` is the one representation every producer of
memory references emits — the codegen tracer, the Walk oracle,
and external traces imported from disk — and
every consumer accepts: the cache/hierarchy simulators, the locality
analyzers, and the on-disk trace cache.  See DESIGN §9.
"""

from typing import Callable, Iterable, Iterator, Optional

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


def replay_steps(
    step: Callable[[], Iterable], steps: int, mark: Optional[Callable] = None
) -> Iterator:
    """The segments of ``steps`` time steps, ``step()`` producing one
    step's.  A step that fits in one chunk (by ``len(segment)``, which
    every segment kind makes its access count) is produced once and
    replayed — nothing larger than a chunk is kept — a larger one is
    produced again each step.  Every step yields the same stream, so
    ``mark``, when given, reports where each one begins: it maps the
    step's first segment to the one yielded in its place
    (:meth:`AddressStream.starting_step`)."""
    kept: Optional[list] = []
    for n in range(steps):
        if n and kept is not None:
            yield from kept
            continue
        size = 0
        for at, segment in enumerate(step()):
            if mark is not None and at == 0:
                segment = mark(segment)
            size += len(segment)
            if size > CHUNK_ACCESSES:
                kept = None
            elif kept is not None:
                kept.append(segment)
            yield segment

__all__ = [
    "AddressStream",
    "CHUNK_ACCESSES",
    "FORMAT_VERSION",
    "StreamFormatError",
    "StreamMeta",
    "read_stream",
    "read_stream_binary",
    "read_stream_csv",
    "replay_steps",
    "write_stream",
    "write_stream_csv",
]
