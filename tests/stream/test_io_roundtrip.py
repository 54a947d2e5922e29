"""Round-trip properties for the stream serialization formats.

The binary writer picks between raw and delta-RLE per chunk and the CSV
path is the tolerant import funnel, so both are exercised under
hypothesis-generated streams — including streams long enough to span
several chunks, so chunk-boundary reassembly is covered, and strided
affine-looking sequences that trigger the RLE encoding.  Chunks joining
loop-nest segments exercise the period order: every part at its own
period, or at none when its write flags break the repeat.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import (
    AddressStream,
    StreamFormatError,
    StreamMeta,
    read_stream,
    read_stream_binary,
    read_stream_csv,
    write_stream,
    write_stream_csv,
)
from repro.stream.io import StreamReader, StreamWriter, body_period


def read_csv_text(text):
    return read_stream_csv(io.StringIO(text))


def write_chunked(path, stream, chunk_size):
    """``stream`` as a file of ``chunk_size``-access chunks."""
    with StreamWriter(path, stream.meta, stream.ref_ids is not None) as writer:
        for start in range(0, len(stream), chunk_size):
            writer.write(stream.slice(start, start + chunk_size))
    return path


@st.composite
def streams(draw):
    """Random streams biased toward the shapes real tracers emit."""
    n = draw(st.integers(min_value=0, max_value=600))
    kind = draw(st.sampled_from(["random", "strided", "blocks"]))
    if kind == "random":
        addresses = np.asarray(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=2**40),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
    elif kind == "strided":
        base = draw(st.integers(min_value=0, max_value=2**30))
        stride = draw(st.integers(min_value=-512, max_value=512))
        addresses = base + stride * np.arange(n, dtype=np.int64)
    else:  # a few constant-stride blocks stitched together, RLE's sweet spot
        parts = []
        remaining = n
        while remaining > 0:
            m = min(remaining, draw(st.integers(min_value=1, max_value=200)))
            base = draw(st.integers(min_value=0, max_value=2**30))
            stride = draw(st.integers(min_value=-64, max_value=64))
            parts.append(base + stride * np.arange(m, dtype=np.int64))
            remaining -= m
        addresses = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
    writes = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    if draw(st.booleans()):
        refs = np.asarray(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=40), min_size=n, max_size=n
                )
            ),
            dtype=np.int32,
        )
    else:
        refs = None
    meta = StreamMeta(
        name=draw(st.sampled_from(["t", "adi/new", "x y"])),
        source=draw(st.sampled_from(["interp", "codegen", "import"])),
        unit=draw(st.sampled_from(["bytes", "elements"])),
        line_bytes=draw(st.sampled_from([None, 32, 128])),
        elem_bytes=draw(st.sampled_from([None, 4, 8])),
    )
    return AddressStream(addresses, writes, refs, meta=meta)


def _assert_equal(a: AddressStream, b: AddressStream, check_meta=True) -> None:
    assert np.array_equal(a.addresses, b.addresses)
    assert np.array_equal(a.writes, b.writes)
    if a.ref_ids is None:
        assert b.ref_ids is None
    else:
        assert np.array_equal(a.ref_ids, b.ref_ids)
    assert a.fingerprint() == b.fingerprint()
    if check_meta:
        assert a.meta == b.meta


class TestBinaryRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams(), chunk_size=st.sampled_from([7, 64, None]))
    def test_roundtrip(self, tmp_path_factory, stream, chunk_size):
        path = tmp_path_factory.mktemp("ast") / "s.ast"
        if chunk_size is None:
            write_stream(path, stream)
        else:
            write_chunked(path, stream, chunk_size)
        _assert_equal(stream, read_stream_binary(path))
        # the auto-detecting reader lands on the same decoder
        _assert_equal(stream, read_stream(path))

    def test_chunk_boundaries_do_not_merge_runs(self, tmp_path):
        # one long constant-stride run crossing many tiny chunks
        stream = AddressStream(np.arange(1000, dtype=np.int64) * 8)
        path = write_chunked(tmp_path / "s.ast", stream, 3)
        _assert_equal(stream, read_stream_binary(path))

    def test_not_binary_raises(self, tmp_path):
        path = tmp_path / "s.ast"
        path.write_bytes(b"this is not a stream at all")
        with pytest.raises(StreamFormatError):
            read_stream_binary(path)

    def test_truncated_file_raises(self, tmp_path):
        stream = AddressStream(np.arange(500, dtype=np.int64))
        path = write_stream(tmp_path / "s.ast", stream)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StreamFormatError):
            read_stream_binary(path)

    def test_delta_rle_beats_raw_on_affine_streams(self, tmp_path):
        affine = AddressStream(np.arange(50_000, dtype=np.int64) * 8)
        path = write_stream(tmp_path / "a.ast", affine)
        assert path.stat().st_size < 50_000 * 8 // 100  # >100x smaller

    def test_a_nest_body_is_stored_one_reference_at_a_time(self, tmp_path):
        # for i { A[i] = B[2i] + C[i + 7] }: three interleaved strides, which
        # stream order breaks into runs of one and period order keeps whole
        i = np.arange(20_000, dtype=np.int64)
        body = np.stack([8 * i, 80_000 + 16 * i, 400_056 + 8 * i], axis=1)
        stream = AddressStream(
            body.ravel(),
            np.tile([True, False, False], len(i)),
            np.tile(np.asarray([2, 0, 1], np.int32), len(i)),
        )
        path = tmp_path / "nest.ast"
        with StreamWriter(path) as writer:
            writer.write(stream)
        assert path.stat().st_size < len(stream) // 100  # the header, mostly
        _assert_equal(stream, read_stream_binary(path), check_meta=False)

    def test_version_1_files_still_read(self, tmp_path):
        import json
        import struct

        meta = StreamMeta(name="old", source="codegen", line_bytes=128, elem_bytes=8)
        blob = json.dumps(meta.to_json(), sort_keys=True).encode()
        chunk = (
            struct.pack("<I", 3)
            + b"\x00" + np.asarray([64, 8, 72], "<i8").tobytes()  # raw addresses
            + struct.pack("<IBIBI", 2, 1, 1, 0, 2)  # writes: 1 x True, 2 x False
            + struct.pack("<IiI", 1, 5, 3)  # ref ids: 3 x 5
        )
        path = tmp_path / "v1.ast"
        path.write_bytes(
            b"RAST" + struct.pack("<HHI", 1, 1, len(blob)) + blob
            + struct.pack("<I", 1) + chunk
        )
        _assert_equal(
            AddressStream(
                np.asarray([64, 8, 72]), np.asarray([True, False, False]),
                np.full(3, 5, np.int32), meta=meta,
            ),
            read_stream_binary(path),
        )

    def test_parts_must_cover_the_chunk(self, tmp_path):
        stream = AddressStream(np.arange(10, dtype=np.int64))
        with StreamWriter(tmp_path / "s.ast") as writer, pytest.raises(ValueError):
            writer.write(stream, [stream.slice(0, 4), stream.slice(4, 8)])

    def test_a_replayed_segment_is_stored_once(self, tmp_path):
        i = np.arange(5_000, dtype=np.int64)
        step = AddressStream(np.stack([8 * i, 9_000 + 8 * i], axis=1).ravel(),
                             np.tile([False, True], len(i)),
                             np.tile(np.asarray([0, 1], np.int32), len(i)))
        other = AddressStream(np.arange(7, dtype=np.int64) ** 3, None,
                              np.zeros(7, np.int32))
        sizes = []
        for parts in ([step, other], [step, other, step, step]):
            chunk = AddressStream.concat(parts)
            path = tmp_path / f"{len(parts)}.ast"
            with StreamWriter(path) as writer:
                writer.write(chunk, parts)
            _assert_equal(chunk, read_stream_binary(path), check_meta=False)
            sizes.append(path.stat().st_size)
        # two more parts cost their table entries, not their accesses
        assert sizes[1] - sizes[0] == 2 * 12


@st.composite
def nest_chunks(draw):
    """A chunk joining loop-nest segments the way the tracers emit them:
    each a body of references repeated over its iterations, at constant
    strides with an occasional break (an outer loop stepping), or — now
    and then — a segment with no period at all; some segments recur, as
    a replayed time step does."""
    segments = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        body = draw(st.integers(min_value=1, max_value=5))
        trips = draw(st.integers(min_value=1, max_value=40))
        n = body * trips
        refs = np.tile(np.asarray(
            draw(st.lists(st.integers(0, 9), min_size=body, max_size=body)), np.int32
        ), trips)
        writes = np.tile(np.asarray(
            draw(st.lists(st.booleans(), min_size=body, max_size=body))
        ), trips)
        if draw(st.booleans()):
            writes = writes.copy()
            writes[draw(st.integers(0, n - 1))] ^= True  # breaks the period
        strides = np.asarray(draw(st.lists(st.integers(-64, 64), min_size=body,
                                           max_size=body)), np.int64)
        addresses = (np.arange(trips)[:, None] * strides + 1000 * np.arange(body)).ravel()
        addresses[draw(st.integers(0, n - 1)):] += draw(st.integers(-4096, 4096))
        segments.append(AddressStream(addresses, writes, refs))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):  # replayed steps
        segments.append(draw(st.sampled_from(segments)))
    return AddressStream.concat(segments), segments


class TestPeriodOrder:
    @settings(max_examples=60, deadline=None)
    @given(chunks=st.lists(nest_chunks(), min_size=0, max_size=3))
    def test_parts_roundtrip_chunk_by_chunk(self, tmp_path_factory, chunks):
        path = tmp_path_factory.mktemp("ast") / "s.ast"
        with StreamWriter(path, refs=True) as writer:
            for chunk, parts in chunks:
                writer.write(chunk, parts)
        with StreamReader(path) as reader:
            assert reader.nchunks == len(chunks)
            for (chunk, _), back in zip(chunks, reader):
                _assert_equal(chunk, back, check_meta=False)
        # what a simulation replays: the same chunks, ref ids skipped
        with StreamReader(path, refs=False) as reader:
            for (chunk, _), back in zip(chunks, reader):
                assert back.ref_ids is None
                assert np.array_equal(chunk.addresses, back.addresses)
                assert np.array_equal(chunk.writes, back.writes)

    def test_body_period(self):
        pattern = np.asarray([3, 1, 4, 1, 5], np.int32)
        writes = np.tile([True, False, False, False, False], 6)
        assert body_period(np.tile(pattern, 6), writes) == 5
        # a repeat of the ref ids alone is not enough
        broken = writes.copy()
        broken[-1] = True
        assert body_period(np.tile(pattern, 6), broken) == 30
        assert body_period(np.arange(30, dtype=np.int32), writes) == 30
        assert body_period(None, writes) == 30
        assert body_period(np.zeros(30, np.int32), np.zeros(30, bool)) == 1


class TestCsvRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams())
    def test_roundtrip(self, tmp_path_factory, stream):
        low = min(stream.addresses.min(initial=0), 0)  # CSV takes [0, 2**63)
        stream = AddressStream(
            stream.addresses - low, stream.writes, stream.ref_ids, meta=stream.meta
        )
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        write_stream_csv(path, stream)
        for loaded in (read_stream_csv(path), read_stream(path)):
            assert np.array_equal(stream.addresses, loaded.addresses)
            assert np.array_equal(stream.writes, loaded.writes)
            if stream.ref_ids is not None and len(stream):
                assert np.array_equal(stream.ref_ids, loaded.ref_ids)
                assert stream.fingerprint() == loaded.fingerprint()
            assert stream.meta == loaded.meta

    def test_bare_address_list(self):
        loaded = read_csv_text("100\n200\n300\n")
        assert np.array_equal(loaded.addresses, [100, 200, 300])
        assert not loaded.writes.any()
        assert loaded.ref_ids is None
        assert loaded.meta.source == "import"
        assert not loaded.meta.has_geometry

    def test_hex_addresses_and_header(self):
        loaded = read_csv_text("address,write\n0x40,1\n0X80,0\n")
        assert np.array_equal(loaded.addresses, [0x40, 0x80])
        assert loaded.writes[0] and not loaded.writes[1]

    def test_bad_address_mid_file_raises(self):
        with pytest.raises(StreamFormatError):
            read_csv_text("10\nbogus\n")

    def test_only_one_header_row_is_tolerated(self):
        with pytest.raises(StreamFormatError, match="line 2: bad address 'world'"):
            read_csv_text("hello\nworld\nfoo,bar\n1\n2\n")

    def test_bad_write_flag_raises(self):
        with pytest.raises(StreamFormatError):
            read_csv_text("10,yes\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0xffff888000001000", "address '0xffff888000001000' is outside"),
            ("-32", "address '-32' is outside"),
            ("16,0,x", "bad ref_id 'x'"),
            ("16,0,4294967296", "ref_id '4294967296' is outside int32"),
        ],
    )
    def test_bad_row_names_its_line(self, row, message):
        # the third data row is line 4, after the header
        with pytest.raises(StreamFormatError, match=f"line 4: {message}"):
            read_csv_text(f"address,write,ref_id\n0,0,1\n8,1,2\n{row}\n")

    def test_metadata_comment_restores_geometry(self):
        meta = StreamMeta(
            name="ext", source="import", unit="bytes", line_bytes=64, elem_bytes=4
        )
        stream = AddressStream(np.asarray([0, 64, 128], dtype=np.int64), meta=meta)
        text = "\n".join(
            [
                "# repro-address-stream v1 "
                + __import__("json").dumps(meta.to_json()),
                "0",
                "64",
                "128",
            ]
        )
        loaded = read_csv_text(text)
        assert loaded.meta == meta
        assert loaded.meta.has_geometry
        assert np.array_equal(loaded.addresses, stream.addresses)
