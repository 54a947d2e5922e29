"""On-disk address-stream formats: period-aware RLE binary, and CSV.

Binary layout (everything little-endian, ``.ast`` by convention)::

    magic   b"RAST"
    version u16      (currently 2; version 1 files still read)
    flags   u16      bit0: ref_ids column present
    mlen    u32      metadata length
    meta    mlen bytes of UTF-8 JSON (:meth:`StreamMeta.to_json`)
    nchunks u32
    per chunk:
      n       u32    accesses in this chunk
      nparts  u32    (version 2 only) then nparts * (length u32,
                     period u32, first u32): the chunk's parts in order,
                     lengths summing to n; ``first`` is the part's own
                     index when it is stored here, else the index of the
                     earlier part it repeats.  (A version 1 chunk is one
                     stored part whose period is its length.)
      addr    u8 encoding tag, then the stored parts' addresses, each in
              period order, one part after another:
                0 = raw:       m * i64
                1 = rle-delta: first i64, npairs u32,
                               npairs * (delta i64, run u32)
      writes  rle of every stored part's first period, one after another:
                     npairs u32, npairs * (value u8, run u32)
      ref_ids the same (only when flagged), npairs * (value i32, run u32)

A chunk is what the measuring chain simulates at once, and its parts
are the loop-nest segments it joins.  The writer gives a part the
shortest period at which its ref ids and write flags repeat exactly
(:func:`body_period`) — a uniform loop nest's body length, or the whole
part when nothing shorter repeats — so those two columns are stored as
one period of each part.  The address column is stored in *period
order*: each part read as rows of its period and listed column by
column, so a stored column is one reference's addresses in iteration
order, an arithmetic sequence the delta-RLE collapses to a few (stride,
run) pairs; the raw tag keeps pathological (e.g. random) chunks from
expanding — whichever encoding is smaller wins, per chunk.  A segment
the chunk already holds (a time step the tracer replays) is stored once.

:class:`StreamWriter` appends one chunk per :meth:`~StreamWriter.write`
and :class:`StreamReader` decodes one per step of its iteration, so a
stream written as it is produced and replayed as it is read never
exists whole; :func:`write_stream` / :func:`read_stream_binary` are the
whole-stream spellings over them.

CSV is the interchange format for external traces: an optional
``# repro-address-stream v1 {json-meta}`` comment, an optional header
row, then ``address[,write[,ref_id]]`` rows (decimal or 0x-hex
addresses).  Import is deliberately tolerant — a bare single-column
address list from any tracing tool loads; missing geometry metadata is
what the S501 lint flags downstream.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Iterator, Optional, Sequence, Sized, TextIO, Union

import numpy as np

from .stream import AddressStream, StreamMeta

MAGIC = b"RAST"
FORMAT_VERSION = 2
_FLAG_REFS = 1
_PART = np.dtype([("length", "<u4"), ("period", "<u4"), ("first", "<u4")])
#: accesses per chunk when :func:`write_stream` serializes a whole stream
CHUNK_SIZE = 1 << 16

CSV_MARKER = "# repro-address-stream"


class StreamFormatError(ValueError):
    """Raised when a stream file is malformed."""


# -- column encodings --------------------------------------------------


def body_period(refs: Optional[np.ndarray], writes: np.ndarray) -> int:
    """The shortest period ``p`` — dividing the length, at least two
    rows — at which the ref ids and write flags both repeat exactly: a
    uniform loop nest's body length.  The whole length when there is
    none, or no ref ids to find one by."""
    n = len(writes)
    if refs is None or n < 4:
        return n
    candidates = np.flatnonzero(refs[1 : n // 2 + 1] == refs[0]) + 1
    for p in candidates[n % candidates == 0]:
        # two short slices reject most candidates before the full compares
        if (
            np.array_equal(refs[p : 2 * p], refs[:p])
            and np.array_equal(refs[n - p :], refs[:p])
            and np.array_equal(refs[p:], refs[:-p])
            and np.array_equal(writes[p:], writes[:-p])
        ):
            return int(p)
    return n


def _transpose(src: np.ndarray, dst: np.ndarray, period: int, inverse: bool) -> None:
    """``src`` into ``dst``, rows of ``period`` turned into one column
    after another (or back, with ``inverse``)."""
    rows = len(src) // period
    if period == 1 or rows == 1:
        dst[...] = src
    elif inverse:
        dst.reshape(rows, period)[...] = src.reshape(period, rows).T
    else:
        dst.reshape(period, rows)[...] = src.reshape(rows, period).T


def _rle(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run values, run lengths) of a non-empty 1-D array."""
    bounds = np.flatnonzero(values[1:] != values[:-1]) + 1
    bounds = np.concatenate(([0], bounds, [len(values)]))
    return values[bounds[:-1]], np.diff(bounds)


def _encode_addresses(addr: np.ndarray) -> bytes:
    if len(addr) < 2:
        return b"\x00" + addr.astype("<i8", copy=False).tobytes()
    vals, runs = _rle(np.diff(addr))
    # first + npairs + pairs vs the raw column
    if 8 + 4 + len(vals) * 12 >= 8 * len(addr):
        return b"\x00" + addr.astype("<i8", copy=False).tobytes()
    pairs = np.empty(len(vals), dtype=[("delta", "<i8"), ("run", "<u4")])
    pairs["delta"] = vals
    pairs["run"] = runs
    return struct.pack("<BqI", 1, int(addr[0]), len(vals)) + pairs.tobytes()


def _encode_rle_column(values: np.ndarray, dtype: str) -> bytes:
    vals, runs = _rle(values)
    pairs = np.empty(len(vals), dtype=[("value", dtype), ("run", "<u4")])
    pairs["value"] = vals
    pairs["run"] = runs
    return struct.pack("<I", len(vals)) + pairs.tobytes()


# -- binary writer -----------------------------------------------------


class StreamWriter:
    """A binary stream file written one chunk at a time.

    ``with StreamWriter(path) as w: w.write(chunk)``: each non-empty
    :meth:`write` appends one chunk; closing fills in the chunk count.
    The file's metadata and whether it carries a ref-id column (which
    every chunk must then have) are ``meta`` / ``refs``, by default the
    first chunk's (an empty file's: none).
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[StreamMeta] = None,
        refs: Optional[bool] = None,
    ) -> None:
        self.path = Path(path)
        self.meta, self.refs = meta, refs
        self.chunks = 0
        self._fh = open(self.path, "wb")
        self._count_at = 0  # where the chunk count goes, once the header is out

    def _header(self, chunk: Optional[AddressStream]) -> None:
        if self.meta is None:
            self.meta = StreamMeta() if chunk is None else chunk.meta
        if self.refs is None:
            self.refs = chunk is not None and chunk.ref_ids is not None
        blob = json.dumps(self.meta.to_json(), sort_keys=True).encode()
        flags = _FLAG_REFS if self.refs else 0
        self._fh.write(MAGIC + struct.pack("<HHI", FORMAT_VERSION, flags, len(blob)))
        self._fh.write(blob)
        self._count_at = self._fh.tell()
        self._fh.write(struct.pack("<I", 0))

    def write(self, chunk: AddressStream, parts: Sequence[Sized] = ()) -> None:
        """Append ``chunk``.  ``parts`` are the consecutive loop-nest
        segments it joins (default: the chunk itself), each encoded at
        its own :func:`body_period`; a segment object that recurs — a
        time step the tracer replays — is stored only once."""
        n = len(chunk)
        if n == 0:
            return
        if not self._count_at:
            self._header(chunk)
        refs, writes = chunk.ref_ids, chunk.writes.view(np.uint8)
        if (refs is not None) != self.refs:
            raise ValueError("every chunk of a stream file has a ref-id column, or none")
        segments = [s for s in parts or (chunk,) if len(s)]
        if sum(map(len, segments)) != n:
            raise ValueError(f"the parts do not cover the chunk's {n} accesses")
        table: list[tuple[int, int, int]] = []  # (length, period, first)
        stored: list[tuple[int, int, int]] = []  # (start, length, period)
        seen: dict[int, int] = {}
        start = 0
        for segment in segments:
            length, stop = len(segment), start + len(segment)
            first = seen.setdefault(id(segment), len(table))
            if first == len(table):
                piece = None if refs is None else refs[start:stop]
                stored.append((start, length, body_period(piece, writes[start:stop])))
                period = stored[-1][2]
            else:
                period = table[first][1]
            table.append((length, period, first))
            start = stop
        addresses = chunk.addresses
        if stored not in ([(0, n, 1)], [(0, n, n)]):
            addresses = np.empty(sum(length for _, length, _ in stored), np.int64)
            offset = 0
            for start, length, period in stored:
                src = chunk.addresses[start : start + length]
                _transpose(src, addresses[offset : offset + length], period, False)
                offset += length

        def first_periods(column: np.ndarray) -> np.ndarray:
            return np.concatenate([column[s : s + p] for s, _, p in stored])

        blocks = [
            struct.pack("<II", n, len(table)),
            np.array(table, _PART).tobytes(),
            _encode_addresses(addresses),
            _encode_rle_column(first_periods(writes), "u1"),
        ]
        if refs is not None:
            blocks.append(_encode_rle_column(first_periods(refs), "<i4"))
        self._fh.write(b"".join(blocks))
        self.chunks += 1

    def close(self) -> None:
        if not self._fh.closed:
            if not self._count_at:
                self._header(None)
            self._fh.seek(self._count_at)
            self._fh.write(struct.pack("<I", self.chunks))
            self._fh.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_stream(path: Union[str, Path], stream: AddressStream) -> Path:
    """Serialize a stream to the binary ``.ast`` format, in chunks of
    :data:`CHUNK_SIZE` accesses; returns the path."""
    with StreamWriter(path, stream.meta, stream.ref_ids is not None) as writer:
        for start in range(0, len(stream), CHUNK_SIZE):
            writer.write(stream.slice(start, start + CHUNK_SIZE))
    return Path(path)


# -- binary reader -----------------------------------------------------


class StreamReader:
    """A binary stream file opened for reading: the header is parsed on
    opening (a malformed one raises :class:`StreamFormatError` there),
    and iterating decodes the chunks one at a time, each an
    :class:`AddressStream` under the file's metadata — without ref ids
    when ``refs`` is false (a simulation reads none)."""

    def __init__(self, path: Union[str, Path], refs: bool = True) -> None:
        self.path = Path(path)
        self.refs = refs
        self._fh = open(self.path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        try:
            if self._fh.read(4) != MAGIC:
                raise StreamFormatError(f"{self.path}: not a binary address stream")
            self.version, self.flags, mlen = struct.unpack("<HHI", self._take(8))
            if self.version not in (1, FORMAT_VERSION):
                raise StreamFormatError(
                    f"unsupported stream format version {self.version} "
                    f"(expected {FORMAT_VERSION})"
                )
            self.meta = StreamMeta.from_json(json.loads(self._take(mlen).decode()))
            self.nchunks = self._u32()
        except (StreamFormatError, ValueError):
            self._fh.close()
            raise

    def _take(self, n: int) -> bytes:
        data = self._fh.read(n)
        if len(data) != n:
            raise StreamFormatError("truncated stream file")
        return data

    def _u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def _array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self._take(dt.itemsize * count), dtype=dt)

    def _parts(self, n: int) -> tuple[list[tuple[int, ...]], int, int]:
        """The chunk's parts as ``(start, length, period, offset, unit)``
        — ``offset`` / ``unit`` locate the stored addresses / first period
        it reads — and the lengths of the stored address and unit columns."""
        if self.version == 1:
            return [(0, n, n, 0, 0)], n, n
        table = self._array(_PART, self._u32()).tolist()
        parts = []
        start = offset = unit = 0
        for index, (length, period, first) in enumerate(table):
            if first == index:
                if period < 1 or length % period:
                    raise StreamFormatError(f"part of {length} is not whole periods of {period}")
                parts.append((start, length, period, offset, unit))
                offset, unit = offset + length, unit + period
            elif first > index or table[first][2] != first or table[first][0] != length:
                raise StreamFormatError(f"part {index} repeats no earlier stored part")
            else:
                parts.append((start, *parts[first][1:]))
            start += length
        if start != n:
            raise StreamFormatError("chunk parts do not cover the chunk")
        return parts, offset, unit

    def _addresses(self, m: int) -> np.ndarray:
        tag = self._take(1)[0]
        if tag == 0:
            return self._array("<i8", m).astype(np.int64)
        if tag != 1:
            raise StreamFormatError(f"unknown address encoding tag {tag}")
        first, npairs = struct.unpack("<qI", self._take(12))
        pairs = self._array([("delta", "<i8"), ("run", "<u4")], npairs)
        if int(pairs["run"].sum()) != m - 1:
            raise StreamFormatError("address RLE does not cover the chunk")
        deltas = np.concatenate(([first], pairs["delta"]))
        return np.cumsum(np.repeat(deltas, np.concatenate(([1], pairs["run"]))))

    def _units(self, units: int, stored: str) -> np.ndarray:
        pairs = self._array([("value", stored), ("run", "<u4")], self._u32())
        out = np.repeat(pairs["value"], pairs["run"])
        if len(out) != units:
            raise StreamFormatError("column RLE does not cover the chunk's periods")
        return out

    def __iter__(self) -> Iterator[AddressStream]:
        try:
            for _ in range(self.nchunks):
                n = self._u32()
                parts, m, units = self._parts(n)
                columns = [(self._addresses(m), np.int64), (self._units(units, "u1"), bool)]
                if self.flags & _FLAG_REFS and self.refs:
                    columns.append((self._units(units, "<i4"), np.int32))
                elif self.flags & _FLAG_REFS:  # skip the (value, run) pairs
                    if self._fh.seek(8 * self._u32(), 1) > self._size:
                        raise StreamFormatError("truncated stream file")
                yield AddressStream(*_unfold(columns, parts, n), meta=self.meta)
        finally:
            self.close()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StreamReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _unfold(columns, parts, n: int) -> list[np.ndarray]:
    """The stored columns back in stream order: each part's addresses
    out of period order, its write flags and ref ids a period repeated;
    a repeated part is a copy of its first occurrence."""
    (addresses, _), *periodic = columns
    if len(parts) == 1 and parts[0][2] == n:
        return [addresses] + [stored.astype(dtype) for stored, dtype in periodic]
    out = [np.empty(n, np.int64)] + [np.empty(n, dtype) for _, dtype in periodic]
    unfolded: dict[int, int] = {}  # stored offset -> start of its first occurrence
    for start, length, period, offset, unit in parts:
        stop = start + length
        first = unfolded.setdefault(offset, start)
        if first != start:
            for column in out:
                column[start:stop] = column[first : first + length]
            continue
        _transpose(addresses[offset : offset + length], out[0][start:stop], period, True)
        for (stored, _), column in zip(periodic, out[1:]):
            column[start:stop].reshape(-1, period)[...] = stored[unit : unit + period]
    return out


def read_stream(path: Union[str, Path]) -> AddressStream:
    """Load a stream from disk, auto-detecting binary vs. CSV."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head != MAGIC:
        return read_stream_csv(path)
    return read_stream_binary(path)


def read_stream_binary(path: Union[str, Path]) -> AddressStream:
    """Load the binary format only; malformed files raise (no CSV fallback)."""
    reader = StreamReader(path)
    chunks = list(reader)
    if len(chunks) == 1:
        return chunks[0]
    has_refs = reader.flags & _FLAG_REFS

    def cat(column: str, dtype) -> np.ndarray:
        parts = [getattr(c, column) for c in chunks]
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return AddressStream(
        cat("addresses", np.int64),
        cat("writes", bool),
        cat("ref_ids", np.int32) if has_refs else None,
        meta=reader.meta,
    )


# -- CSV ---------------------------------------------------------------


def write_stream_csv(
    path: Union[str, Path], stream: AddressStream
) -> Path:
    """Serialize to CSV (metadata comment + header + one row per access)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{CSV_MARKER} v1 "
            + json.dumps(stream.meta.to_json(), sort_keys=True)
            + "\n"
        )
        has_refs = stream.ref_ids is not None
        fh.write("address,write,ref_id\n" if has_refs else "address,write\n")
        columns = [stream.addresses, stream.writes.astype(np.int8)]
        if has_refs:
            columns.append(stream.ref_ids)
        np.savetxt(fh, np.column_stack(columns), fmt="%d", delimiter=",")
    return path


def _parse_address(token: str) -> int:
    token = token.strip()
    return int(token, 16) if token.lower().startswith("0x") else int(token)


def _integer(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise StreamFormatError(f"line {lineno}: bad {what} {token!r}") from None


def read_stream_csv(source: Union[str, Path, TextIO]) -> AddressStream:
    """Parse a CSV address stream (ours, or any external address list).

    Accepts 1-3 columns — ``address[,write[,ref_id]]`` — with or without
    the metadata comment and header row; addresses may be decimal or
    0x-hex.  External files without our metadata comment come back with
    ``source="import"`` and no geometry hints.  An address outside
    ``[0, 2**63)``, a write flag or a ref id that is not an integer, or
    a ref id outside int32 raises :class:`StreamFormatError` naming the
    line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_stream_csv(fh)
    meta: Optional[StreamMeta] = None
    addresses: list[int] = []
    writes: list[bool] = []
    refs: list[int] = []
    ncols = 0
    header = False
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(CSV_MARKER):
                _, _, blob = line.partition("{")
                if blob:
                    meta = StreamMeta.from_json(json.loads("{" + blob))
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            addr = _parse_address(cells[0])
        except ValueError:
            if not addresses and not header:  # tolerate one header row
                header = True
                continue
            raise StreamFormatError(
                f"line {lineno}: bad address {cells[0]!r}"
            ) from None
        if not 0 <= addr < 1 << 63:
            raise StreamFormatError(
                f"line {lineno}: address {cells[0]!r} is outside [0, 2**63)"
            )
        if not addresses:
            ncols = min(len(cells), 3)
        addresses.append(addr)
        if ncols >= 2 and len(cells) >= 2:
            writes.append(_integer(cells[1], lineno, "write flag") != 0)
        else:
            writes.append(False)
        if ncols >= 3 and len(cells) >= 3:
            ref = _integer(cells[2], lineno, "ref_id")
            if not -(1 << 31) <= ref < 1 << 31:
                raise StreamFormatError(
                    f"line {lineno}: ref_id {cells[2]!r} is outside int32"
                )
            refs.append(ref)
    if meta is None:
        meta = StreamMeta(name="imported", source="import", unit="bytes")
    addr_arr = np.asarray(addresses, dtype=np.int64)
    write_arr = np.asarray(writes, dtype=bool) if writes else None
    ref_arr = (
        np.asarray(refs, dtype=np.int32) if refs and len(refs) == len(addresses)
        else None
    )
    return AddressStream(addr_arr, write_arr, ref_arr, meta=meta)
