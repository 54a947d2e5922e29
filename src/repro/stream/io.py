"""On-disk address-stream formats: RLE-compressed binary, and CSV.

Binary layout (everything little-endian, ``.ast`` by convention)::

    magic   b"RAST"
    version u16      (currently 1)
    flags   u16      bit0: ref_ids column present
    mlen    u32      metadata length
    meta    mlen bytes of UTF-8 JSON (:meth:`StreamMeta.to_json`)
    nchunks u32
    per chunk:
      n       u32    accesses in this chunk
      addr    u8 encoding tag, then the address column:
                0 = raw:       n * i64
                1 = rle-delta: first i64, npairs u32,
                               npairs * (delta i64, run u32)
      writes  rle:   npairs u32, npairs * (value u8, run u32)
      ref_ids rle (only when flagged): npairs u32,
                               npairs * (value i32, run u32)

Affine loop nests emit long arithmetic address sequences, so the
delta-RLE typically collapses a chunk to a handful of (stride, run)
pairs; the raw tag keeps pathological (e.g. random) streams from
expanding — whichever encoding is smaller wins, per chunk.

CSV is the interchange format for external traces: an optional
``# repro-address-stream v1 {json-meta}`` comment, an optional header
row, then ``address[,write[,ref_id]]`` rows (decimal or 0x-hex
addresses).  Import is deliberately tolerant — a bare single-column
address list from any tracing tool loads; missing geometry metadata is
what the S501 lint flags downstream.
"""

from __future__ import annotations

import io as _io
import json
import struct
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from .stream import AddressStream, StreamMeta

MAGIC = b"RAST"
FORMAT_VERSION = 1
_FLAG_REFS = 1
#: default accesses per chunk when serializing
CHUNK_SIZE = 1 << 16

CSV_MARKER = "# repro-address-stream"


class StreamFormatError(ValueError):
    """Raised when a stream file is malformed."""


# -- RLE helpers -------------------------------------------------------


def _rle(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run values, run lengths) of a 1-D array."""
    n = len(values)
    if n == 0:
        return values[:0], np.empty(0, dtype=np.int64)
    change = np.nonzero(values[1:] != values[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    runs = np.diff(np.concatenate((starts, [n])))
    return values[starts], runs


def _unrle(values: np.ndarray, runs: np.ndarray) -> np.ndarray:
    return np.repeat(values, runs)


# -- binary writer -----------------------------------------------------


def _encode_addresses(addr: np.ndarray) -> bytes:
    n = len(addr)
    raw = addr.astype("<i8").tobytes()
    if n < 2:
        return b"\x00" + raw
    deltas = np.diff(addr)
    vals, runs = _rle(deltas)
    # tag + first + npairs + pairs vs tag + raw column
    rle_size = 1 + 8 + 4 + len(vals) * 12
    if rle_size >= 1 + len(raw):
        return b"\x00" + raw
    out = [b"\x01", struct.pack("<q", int(addr[0])), struct.pack("<I", len(vals))]
    pairs = np.empty(len(vals), dtype=[("delta", "<i8"), ("run", "<u4")])
    pairs["delta"] = vals
    pairs["run"] = runs
    out.append(pairs.tobytes())
    return b"".join(out)


def _encode_rle_column(values: np.ndarray, dtype: str) -> bytes:
    vals, runs = _rle(values)
    pairs = np.empty(len(vals), dtype=[("value", dtype), ("run", "<u4")])
    pairs["value"] = vals
    pairs["run"] = runs
    return struct.pack("<I", len(vals)) + pairs.tobytes()


def write_stream(
    path: Union[str, Path],
    stream: AddressStream,
    chunk_size: int = CHUNK_SIZE,
) -> Path:
    """Serialize a stream to the binary ``.ast`` format; returns the path."""
    path = Path(path)
    meta_blob = json.dumps(stream.meta.to_json(), sort_keys=True).encode()
    flags = _FLAG_REFS if stream.ref_ids is not None else 0
    chunks = list(stream.chunks(chunk_size)) if len(stream) else []
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HH", FORMAT_VERSION, flags))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(chunks)))
        for addr, writes, refs in chunks:
            fh.write(struct.pack("<I", len(addr)))
            fh.write(_encode_addresses(addr))
            fh.write(_encode_rle_column(writes.astype(np.uint8), "u1"))
            if flags & _FLAG_REFS:
                fh.write(_encode_rle_column(refs, "<i4"))
    return path


# -- binary reader -----------------------------------------------------


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise StreamFormatError("truncated stream file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt)


def _decode_addresses(r: _Reader, n: int) -> np.ndarray:
    tag = r.u8()
    if tag == 0:
        return r.array("<i8", n).astype(np.int64)
    if tag != 1:
        raise StreamFormatError(f"unknown address encoding tag {tag}")
    first = r.i64()
    npairs = r.u32()
    pairs = r.array([("delta", "<i8"), ("run", "<u4")], npairs)
    deltas = _unrle(pairs["delta"], pairs["run"].astype(np.int64))
    if len(deltas) != n - 1:
        raise StreamFormatError("address RLE does not cover the chunk")
    out = np.empty(n, dtype=np.int64)
    out[0] = first
    np.cumsum(deltas, out=out[1:])
    out[1:] += first
    return out


def _decode_rle_column(r: _Reader, n: int, dtype: str) -> np.ndarray:
    npairs = r.u32()
    pairs = r.array([("value", dtype), ("run", "<u4")], npairs)
    out = _unrle(pairs["value"], pairs["run"].astype(np.int64))
    if len(out) != n:
        raise StreamFormatError("column RLE does not cover the chunk")
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
    path = Path(path)
    r = _Reader(path.read_bytes())
    if r.take(4) != MAGIC:
        raise StreamFormatError(f"{path}: not a binary address stream")
    version = r.u16()
    if version != FORMAT_VERSION:
        raise StreamFormatError(
            f"unsupported stream format version {version} (expected {FORMAT_VERSION})"
        )
    flags = r.u16()
    meta = StreamMeta.from_json(json.loads(r.take(r.u32()).decode()))
    nchunks = r.u32()
    addr_chunks: list[np.ndarray] = []
    write_chunks: list[np.ndarray] = []
    ref_chunks: list[np.ndarray] = []
    for _ in range(nchunks):
        n = r.u32()
        addr_chunks.append(_decode_addresses(r, n))
        write_chunks.append(_decode_rle_column(r, n, "u1").astype(bool))
        if flags & _FLAG_REFS:
            ref_chunks.append(_decode_rle_column(r, n, "<i4").astype(np.int32))

    def cat(chunks: list[np.ndarray], dtype) -> np.ndarray:
        if not chunks:
            return np.empty(0, dtype=dtype)
        return np.concatenate(chunks)

    return AddressStream(
        cat(addr_chunks, np.int64),
        cat(write_chunks, bool),
        cat(ref_chunks, np.int32) if flags & _FLAG_REFS else None,
        meta=meta,
    )


# -- CSV ---------------------------------------------------------------


def write_stream_csv(
    path: Union[str, Path], stream: AddressStream
) -> Path:
    """Serialize to CSV (metadata comment + header + one row per access)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{CSV_MARKER} v{FORMAT_VERSION} "
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


def read_stream_csv(source: Union[str, Path, TextIO]) -> AddressStream:
    """Parse a CSV address stream (ours, or any external address list).

    Accepts 1-3 columns — ``address[,write[,ref_id]]`` — with or without
    the metadata comment and header row; addresses may be decimal or
    0x-hex.  External files without our metadata comment come back with
    ``source="import"`` and no geometry hints.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_stream_csv(fh)
    meta: Optional[StreamMeta] = None
    addresses: list[int] = []
    writes: list[int] = []
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
        if not addresses:
            ncols = min(len(cells), 3)
        addresses.append(addr)
        if ncols >= 2 and len(cells) >= 2:
            try:
                writes.append(int(cells[1]))
            except ValueError:
                raise StreamFormatError(
                    f"line {lineno}: bad write flag {cells[1]!r}"
                ) from None
        else:
            writes.append(0)
        if ncols >= 3 and len(cells) >= 3:
            refs.append(int(cells[2]))
    if meta is None:
        meta = StreamMeta(name="imported", source="import", unit="bytes")
    addr_arr = np.asarray(addresses, dtype=np.int64)
    write_arr = np.asarray(writes, dtype=bool) if writes else None
    ref_arr = (
        np.asarray(refs, dtype=np.int32) if refs and len(refs) == len(addresses)
        else None
    )
    return AddressStream(addr_arr, write_arr, ref_arr, meta=meta)


def read_stream_text(text: str) -> AddressStream:
    """CSV parse from an in-memory string (tests, pipes)."""
    return read_stream_csv(_io.StringIO(text))
