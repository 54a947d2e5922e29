"""The :class:`AddressStream` type.

A stream is three parallel columns over numpy — int64 addresses, a bool
write mask, and optional int32 static reference ids — plus a small
metadata record saying what the addresses denominate (bytes under a
concrete layout, or canonical element keys) and which cache-line /
element geometry they were produced for.  Multi-million access streams
stay compact (struct-of-arrays, no Python objects per access), and the
chunk API lets serializers walk the columns without materializing
intermediate copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

#: address units a stream may be denominated in
UNITS = ("bytes", "elements")


@dataclass
class StreamMeta:
    """What the addresses mean and where they came from."""

    name: str = "stream"
    #: producing subsystem: interp | codegen | interleave | import | cache
    source: str = "unknown"
    #: "bytes" (layout applied) or "elements" (canonical global keys)
    unit: str = "bytes"
    #: geometry hints, carried so an imported stream can be simulated
    #: and analyzed without guessing (None = unknown, lint S501)
    line_bytes: Optional[int] = None
    elem_bytes: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.unit not in UNITS:
            raise ValueError(f"unknown stream unit {self.unit!r}; expected {UNITS}")

    @property
    def has_geometry(self) -> bool:
        return self.line_bytes is not None and self.elem_bytes is not None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "source": self.source,
            "unit": self.unit,
            "line_bytes": self.line_bytes,
            "elem_bytes": self.elem_bytes,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "StreamMeta":
        return cls(
            name=str(data.get("name", "stream")),
            source=str(data.get("source", "unknown")),
            unit=str(data.get("unit", "bytes")),
            line_bytes=(
                None if data.get("line_bytes") is None else int(data["line_bytes"])
            ),
            elem_bytes=(
                None if data.get("elem_bytes") is None else int(data["elem_bytes"])
            ),
            extra=dict(data.get("extra") or {}),
        )


class AddressStream:
    """An ordered sequence of memory accesses as typed columns.

    Supports the array protocol (``np.asarray(stream)`` yields the
    address column), so vectorized consumers written against raw numpy
    arrays keep working unchanged.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        writes: Optional[np.ndarray] = None,
        ref_ids: Optional[np.ndarray] = None,
        meta: Optional[StreamMeta] = None,
    ) -> None:
        self._addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if self._addresses.ndim != 1:
            raise ValueError("addresses must be one-dimensional")
        n = len(self._addresses)
        if writes is None:
            self._writes = np.zeros(n, dtype=bool)
        else:
            self._writes = np.ascontiguousarray(writes, dtype=bool)
        if len(self._writes) != n:
            raise ValueError(
                f"writes column length {len(self._writes)} != addresses {n}"
            )
        if ref_ids is not None:
            ref_ids = np.ascontiguousarray(ref_ids, dtype=np.int32)
            if len(ref_ids) != n:
                raise ValueError(
                    f"ref_ids column length {len(ref_ids)} != addresses {n}"
                )
        self._ref_ids = ref_ids
        self.meta = meta if meta is not None else StreamMeta()

    # -- columns -------------------------------------------------------

    @property
    def addresses(self) -> np.ndarray:
        return self._addresses

    @property
    def writes(self) -> np.ndarray:
        return self._writes

    @property
    def ref_ids(self) -> Optional[np.ndarray]:
        return self._ref_ids

    def __len__(self) -> int:
        return len(self._addresses)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The address column under numpy's protocol: ``copy=True`` is a
        copy, ``copy=False`` never is (a dtype change then raises), and
        ``copy=None`` copies only to change the dtype."""
        if dtype is None or np.dtype(dtype) == self._addresses.dtype:
            return self._addresses.copy() if copy else self._addresses
        if copy is False:
            raise ValueError(
                f"addresses are {self._addresses.dtype}; {np.dtype(dtype)} "
                f"needs a copy, which copy=False forbids"
            )
        return self._addresses.astype(dtype)

    def __repr__(self) -> str:
        return (
            f"AddressStream(n={len(self)}, unit={self.meta.unit!r}, "
            f"source={self.meta.source!r}, writes={int(self._writes.sum())})"
        )

    # -- derived views -------------------------------------------------

    def lines(self, line_bytes: Optional[int] = None) -> np.ndarray:
        """The cache-line id of every access (needs a line size)."""
        size = line_bytes if line_bytes is not None else self.meta.line_bytes
        if size is None or size < 1:
            raise ValueError("stream has no line_bytes; pass one explicitly")
        return self._addresses // size

    def slice(self, start: int, stop: int) -> "AddressStream":
        return AddressStream(
            self._addresses[start:stop],
            self._writes[start:stop],
            None if self._ref_ids is None else self._ref_ids[start:stop],
            meta=self.meta,
        )

    def chunks(
        self, chunk_size: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """Walk the columns ``chunk_size`` accesses at a time."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            stop = start + chunk_size
            yield (
                self._addresses[start:stop],
                self._writes[start:stop],
                None if self._ref_ids is None else self._ref_ids[start:stop],
            )

    def fingerprint(self) -> str:
        """Content hash over all columns (stable across processes)."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self._addresses).tobytes())
        h.update(np.packbits(self._writes).tobytes())
        if self._ref_ids is not None:
            h.update(np.ascontiguousarray(self._ref_ids).tobytes())
        return h.hexdigest()[:16]

    # -- constructors --------------------------------------------------

    @classmethod
    def from_trace(
        cls,
        trace,
        layout=None,
        name: str = "trace",
        source: str = "interp",
    ) -> "AddressStream":
        """A stream from an :class:`~repro.interp.trace.AccessTrace`.

        With a :class:`~repro.core.regroup.layout.Layout` the addresses
        are concrete byte addresses under that placement; without one
        they are the canonical element keys (identity layout).
        """
        from ..memsim.geometry import ELEM_BYTES, L2_LINE_BYTES

        if layout is not None:
            addresses = layout.addresses(trace, in_bytes=True)
            meta = StreamMeta(
                name=name,
                source=source,
                unit="bytes",
                line_bytes=L2_LINE_BYTES,
                elem_bytes=ELEM_BYTES,
            )
        else:
            addresses = trace.global_keys()
            meta = StreamMeta(
                name=name, source=source, unit="elements", elem_bytes=ELEM_BYTES
            )
        return cls(addresses, trace.writes, trace.ref_ids, meta=meta)

    @classmethod
    def concat(
        cls, streams: Sequence["AddressStream"], name: str = "concat"
    ) -> "AddressStream":
        """Concatenate streams; ref_ids survive only if every part has them."""
        if not streams:
            return cls(np.empty(0, dtype=np.int64))
        addresses = np.concatenate([s.addresses for s in streams])
        writes = np.concatenate([s.writes for s in streams])
        refs = None
        if all(s.ref_ids is not None for s in streams):
            refs = np.concatenate([s.ref_ids for s in streams])
        meta = StreamMeta(
            name=name,
            source=streams[0].meta.source,
            unit=streams[0].meta.unit,
            line_bytes=streams[0].meta.line_bytes,
            elem_bytes=streams[0].meta.elem_bytes,
        )
        return cls(addresses, writes, refs, meta=meta)
