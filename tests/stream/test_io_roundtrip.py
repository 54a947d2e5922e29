"""Round-trip properties for the stream serialization formats.

The binary writer picks between raw and delta-RLE per chunk and the CSV
path is the tolerant import funnel, so both are exercised under
hypothesis-generated streams — including streams long enough to span
several chunks, so chunk-boundary reassembly is covered, and strided
affine-looking sequences that trigger the RLE encoding.
"""

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
    read_stream_text,
    write_stream,
    write_stream_csv,
)


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
    @given(stream=streams(), chunk_size=st.sampled_from([7, 64, 1 << 16]))
    def test_roundtrip(self, tmp_path_factory, stream, chunk_size):
        path = tmp_path_factory.mktemp("ast") / "s.ast"
        write_stream(path, stream, chunk_size=chunk_size)
        _assert_equal(stream, read_stream_binary(path))
        # the auto-detecting reader lands on the same decoder
        _assert_equal(stream, read_stream(path))

    def test_chunk_boundaries_do_not_merge_runs(self, tmp_path):
        # one long constant-stride run crossing many tiny chunks
        stream = AddressStream(np.arange(1000, dtype=np.int64) * 8)
        path = write_stream(tmp_path / "s.ast", stream, chunk_size=3)
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


class TestCsvRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams())
    def test_roundtrip(self, tmp_path_factory, stream):
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
        loaded = read_stream_text("100\n200\n300\n")
        assert np.array_equal(loaded.addresses, [100, 200, 300])
        assert not loaded.writes.any()
        assert loaded.ref_ids is None
        assert loaded.meta.source == "import"
        assert not loaded.meta.has_geometry

    def test_hex_addresses_and_header(self):
        loaded = read_stream_text("address,write\n0x40,1\n0X80,0\n")
        assert np.array_equal(loaded.addresses, [0x40, 0x80])
        assert loaded.writes[0] and not loaded.writes[1]

    def test_bad_address_mid_file_raises(self):
        with pytest.raises(StreamFormatError):
            read_stream_text("10\nbogus\n")

    def test_only_one_header_row_is_tolerated(self):
        with pytest.raises(StreamFormatError, match="line 2: bad address 'world'"):
            read_stream_text("hello\nworld\nfoo,bar\n1\n2\n")

    def test_bad_write_flag_raises(self):
        with pytest.raises(StreamFormatError):
            read_stream_text("10,yes\n")

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
        loaded = read_stream_text(text)
        assert loaded.meta == meta
        assert loaded.meta.has_geometry
        assert np.array_equal(loaded.addresses, stream.addresses)
