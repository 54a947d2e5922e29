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
entirely.  A stream is written a segment at a time while it is
simulated (:meth:`TraceCache.trace_writer`) and replayed a chunk at a
time as it is read (:meth:`TraceCache.replay_trace`), so neither side
holds it whole.  Entries written by the pre-stream ``.npz`` layout
simply read as misses and are re-traced once.

Keys are content hashes over the compiled program text, the parameter
binding, the step count, and a fingerprint of the data layout (array
placements), so *any* change to the program, the transformations applied
to it, or the regrouped layout invalidates the entry automatically.
Explicit invalidation is ``TraceCache.clear()`` or
``python -m repro cache --clear``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Optional

from ..core.regroup.layout import Layout
from ..memsim import MachineConfig, MemStats
from ..obs import metrics
from ..stream import AddressStream, StreamMeta
from ..stream.io import StreamReader, StreamWriter, read_stream_binary

#: Default cache directory (overridable via ``REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = ".cache"


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
    """Content-addressed store for address streams and experiment results."""

    def __init__(self, root: Optional[Path | str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- keys ----------------------------------------------------------

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
        blob = json.dumps(
            {
                "program": program_text,
                "params": {k: int(v) for k, v in sorted(params.items())},
                "steps": int(steps),
                "layout": layout_hash,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    def result_key(
        self, trace_key: str, machine: MachineConfig, engine: Optional[str]
    ) -> str:
        """Key of one simulated outcome: trace x machine x engine."""
        blob = f"{trace_key}|{machine!r}|{engine or ''}"
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    # -- traces --------------------------------------------------------

    def replay_trace(self, key: str) -> Optional[StreamReader]:
        """The stored stream opened for replay, its chunks decoded (ref
        ids skipped) as they are iterated; ``None`` (a miss) when there
        is none or its header is malformed.  A chunk damaged past the
        header raises :class:`~repro.stream.StreamFormatError` during the
        iteration."""
        try:
            reader = StreamReader(self.root / f"trace-{key}.ast", refs=False)
        except (OSError, ValueError):
            metrics.inc("cache.trace.misses")
            return None  # absent or corrupt: a miss, the entry will be rewritten
        metrics.inc("cache.trace.hits")
        return reader

    def load_trace(self, key: str) -> Optional[AddressStream]:
        """The stored stream, whole; ``None`` (a miss) when absent or corrupt."""
        try:
            stream = read_stream_binary(self.root / f"trace-{key}.ast")
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
        with _published(self.root / f"trace-{key}.ast") as tmp:
            with StreamWriter(tmp, meta, refs) as writer:
                yield writer
        metrics.inc("cache.trace.stores")

    def store_trace(self, key: str, stream: AddressStream) -> None:
        with self.trace_writer(key, stream.meta, stream.ref_ids is not None) as writer:
            writer.write(stream)

    # -- results -------------------------------------------------------

    def load_result(self, key: str) -> Optional[MemStats]:
        path = self.root / f"result-{key}.json"
        if not path.exists():
            metrics.inc("cache.result.misses")
            return None
        try:
            stats = MemStats(**json.loads(path.read_text()))
        except (OSError, TypeError, ValueError):
            metrics.inc("cache.result.misses")
            return None
        metrics.inc("cache.result.hits")
        return stats

    def store_result(self, key: str, stats: MemStats) -> None:
        with _published(self.root / f"result-{key}.json") as tmp:
            tmp.write_text(json.dumps(dataclasses.asdict(stats)))
        metrics.inc("cache.result.stores")

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Remove every cache entry; returns the number of files removed.

        Covers the autotuner's ``tune-*`` score entries too — the tune
        cache shares this directory (see :class:`repro.tune.TuneCache`).
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if path.name.startswith(("trace-", "result-", "tune-")):
                    path.unlink()
                    removed += 1
        return removed

    def info(self) -> dict[str, int]:
        """Published entry counts and their on-disk footprint (a
        writer's temporary is not an entry yet)."""
        traces = results = tune = size = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if path.suffix == ".tmp":
                    continue
                if path.name.startswith("trace-"):
                    traces += 1
                elif path.name.startswith("result-"):
                    results += 1
                elif path.name.startswith("tune-"):
                    tune += 1
                else:
                    continue
                size += path.stat().st_size
        return {"traces": traces, "results": results, "tune": tune, "bytes": size}
