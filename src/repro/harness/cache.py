"""On-disk trace and result cache for the experiment harness.

Trace generation (interpreting the program) dominates warm experiment
time once the fast simulation engine is in play, and the same (program,
size, optimization level, layout) tuple is re-traced by every benchmark
that touches it.  :class:`TraceCache` persists the
:class:`~repro.stream.AddressStream` the simulator actually consumes —
byte addresses, the write mask and ref ids, in the period-aware ``.ast``
binary format — under ``.cache/`` so repeat runs replay instead of
re-tracing, plus the final :class:`~repro.memsim.MemStats` per (trace,
machine, engine) so fully-repeated experiments skip simulation
entirely.  The autotuner's candidate evaluations are entries of the
same store (``tune-*.json``, see :func:`repro.tune.evaluate_candidate`).
A stream is written a segment at a time while it is
simulated (:meth:`TraceCache.trace_writer`) and replayed a chunk at a
time as it is read (:meth:`TraceCache.replay_trace`), so neither side
holds it whole.  Entries written by the pre-stream ``.npz`` layout
simply read as misses and are re-traced once.

Every key follows one rule, :meth:`TraceCache.key`: the hash of the
fields the entry depends on.  A trace key covers the compiled program
text, the parameter binding, the step count, and a fingerprint of the
data layout (array placements), so *any* change to the program, the
transformations applied to it, or the regrouped layout invalidates the
entry automatically.  Explicit invalidation is ``TraceCache.clear()`` or
``python -m repro cache --clear``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

from ..core.regroup.layout import Layout
from ..memsim import MachineConfig, MemStats
from ..obs import metrics
from ..stream import AddressStream, StreamMeta
from ..stream.io import StreamReader, StreamWriter, read_stream_binary

#: Default cache directory (overridable via ``REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = ".cache"

#: entry kind -> (file suffix, the name :meth:`TraceCache.info` counts it under)
_KINDS = {
    "trace": (".ast", "traces"),
    "result": (".json", "results"),
    "tune": (".json", "tune"),
}


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


@contextmanager
def _published(path: Path) -> Iterator[Path]:
    """A temporary beside ``path`` for the block to write, renamed onto
    ``path`` when the block completes and removed when it raises.  One
    per process, so concurrent writers of one key never share one (named
    so that :meth:`TraceCache.clear` sweeps a crashed writer's leftover);
    the rename is atomic, so readers never see a partial entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def layout_fingerprint(layout: Layout) -> str:
    """Stable hash of a data layout (the regrouping side of the key)."""
    items = []
    for name in sorted(layout.placements):
        p = layout.placements[name]
        items.append(
            (p.name, tuple(p.shape), int(p.offset), tuple(p.strides), p.elem_size)
        )
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class TraceCache:
    """Content-addressed store for address streams, experiment results
    and tune scores, one file per entry under :attr:`root`."""

    def __init__(self, root: Optional[Path | str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}{_KINDS[kind][0]}"

    # -- keys ----------------------------------------------------------

    @staticmethod
    def key(fields: Mapping[str, object]) -> str:
        """The one key rule: the sha256 of ``fields`` as sorted JSON, cut
        to 32 hex characters."""
        blob = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    def trace_key(
        self,
        program_text: str,
        params: Mapping[str, int],
        steps: int,
        layout_hash: str,
    ) -> str:
        """Key of one (program variant, size, layout) address stream.

        ``program_text`` is the *compiled* variant's source, so the
        optimization level and every fusion/regroup knob that changes
        the access order is already folded in; ``layout_hash`` covers
        transformations that only move data.
        """
        return self.key({
            "program": program_text,
            "params": {k: int(v) for k, v in sorted(params.items())},
            "steps": int(steps),
            "layout": layout_hash,
        })

    def result_key(
        self, trace_key: str, machine: MachineConfig, engine: Optional[str]
    ) -> str:
        """Key of one simulated outcome: trace x machine x engine."""
        return self.key(
            {"trace": trace_key, "machine": repr(machine), "engine": engine or ""}
        )

    # -- traces --------------------------------------------------------

    def replay_trace(self, key: str) -> Optional[StreamReader]:
        """The stored stream opened for replay, its chunks decoded (ref
        ids skipped) as they are iterated; ``None`` (a miss) when there
        is none or its header is malformed.  A chunk damaged past the
        header raises :class:`~repro.stream.StreamFormatError` during the
        iteration."""
        try:
            reader = StreamReader(self._path("trace", key), refs=False)
        except (OSError, ValueError):
            metrics.inc("cache.trace.misses")
            return None  # absent or corrupt: a miss, the entry will be rewritten
        metrics.inc("cache.trace.hits")
        return reader

    def load_trace(self, key: str) -> Optional[AddressStream]:
        """The stored stream, whole; ``None`` (a miss) when absent or corrupt."""
        try:
            stream = read_stream_binary(self._path("trace", key))
        except (OSError, ValueError):
            metrics.inc("cache.trace.misses")
            return None
        metrics.inc("cache.trace.hits")
        return stream

    @contextmanager
    def trace_writer(
        self, key: str, meta: Optional[StreamMeta] = None, refs: Optional[bool] = None
    ) -> Iterator[StreamWriter]:
        """A :class:`~repro.stream.io.StreamWriter` for the stream under
        ``key``, written chunk by chunk and published only when the block
        completes (an exception discards it)."""
        with _published(self._path("trace", key)) as tmp:
            with StreamWriter(tmp, meta, refs) as writer:
                yield writer
        metrics.inc("cache.trace.stores")

    def store_trace(self, key: str, stream: AddressStream) -> None:
        with self.trace_writer(key, stream.meta, stream.ref_ids is not None) as writer:
            writer.write(stream)

    # -- JSON entries --------------------------------------------------

    def load_entry(self, kind: str, key: str) -> Optional[dict]:
        """The JSON entry of ``kind`` under ``key``; ``None`` (a miss)
        when it is absent or corrupt, and it will be rewritten."""
        try:
            entry = json.loads(self._path(kind, key).read_text())
        except (OSError, ValueError):
            entry = None
        hit = isinstance(entry, dict)
        metrics.inc(f"cache.{kind}.{'hits' if hit else 'misses'}")
        return entry if hit else None

    def store_entry(self, kind: str, key: str, entry: Mapping[str, object]) -> None:
        with _published(self._path(kind, key)) as tmp:
            tmp.write_text(json.dumps(dict(entry), sort_keys=True))
        metrics.inc(f"cache.{kind}.stores")

    def load_result(self, key: str) -> Optional[MemStats]:
        entry = self.load_entry("result", key)
        try:
            return None if entry is None else MemStats(**entry)
        except TypeError:
            return None  # fields of another MemStats: a miss, rewritten

    def store_result(self, key: str, stats: MemStats) -> None:
        self.store_entry("result", key, dataclasses.asdict(stats))

    # -- maintenance ---------------------------------------------------

    def _files(self) -> Iterator[tuple[str, Path]]:
        """Every ``(kind, path)`` under the root, writers' temporaries too."""
        if self.root.is_dir():
            for path in self.root.iterdir():
                kind, dash, _ = path.name.partition("-")
                if dash and kind in _KINDS:
                    yield kind, path

    def clear(self) -> int:
        """Remove every cache entry; returns the number of files removed."""
        removed = 0
        for _, path in self._files():
            path.unlink()
            removed += 1
        return removed

    def info(self) -> dict[str, int]:
        """Published entry counts and their on-disk footprint (a
        writer's temporary is not an entry yet)."""
        counts = {name: 0 for _, name in _KINDS.values()}
        size = 0
        for kind, path in self._files():
            if path.suffix != ".tmp":
                counts[_KINDS[kind][1]] += 1
                size += path.stat().st_size
        return {**counts, "bytes": size}


def resolve_cache(
    cache: Union[None, bool, str, Path, TraceCache],
) -> Optional[TraceCache]:
    """The one reading of a ``cache=`` argument: ``None`` or ``False`` is
    no store, ``True`` the default directory, a path that directory, and
    a :class:`TraceCache` is itself."""
    if cache is None or cache is False:
        return None
    if isinstance(cache, TraceCache):
        return cache
    return TraceCache(None if cache is True else cache)
