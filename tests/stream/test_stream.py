"""Unit coverage for the AddressStream type and its builder."""

import numpy as np
import pytest

from repro.core import compile_variant
from repro.lang import parse, validate
from repro.interp import trace_program
from repro.stream import AddressStream, StreamMeta

SOURCE = """
program s
param N
real A[N], B[N]
for i = 1, N { A[i] = f(B[i]) }
for i = 2, N { B[i] = g(A[i - 1]) }
"""


def _stream(n=100):
    addresses = np.arange(n, dtype=np.int64) * 8
    writes = np.arange(n) % 3 == 0
    refs = (np.arange(n) % 5).astype(np.int32)
    return AddressStream(addresses, writes, refs)


class TestAddressStream:
    def test_columns_and_len(self):
        s = _stream()
        assert len(s) == 100
        assert s.addresses.dtype == np.int64
        assert s.writes.dtype == bool
        assert s.ref_ids.dtype == np.int32

    def test_default_write_column_is_all_loads(self):
        s = AddressStream(np.arange(5, dtype=np.int64))
        assert not s.writes.any()
        assert s.ref_ids is None

    def test_column_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            AddressStream(np.arange(5, dtype=np.int64), np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            AddressStream(
                np.arange(5, dtype=np.int64), ref_ids=np.zeros(4, dtype=np.int32)
            )

    def test_array_protocol_yields_addresses(self):
        s = _stream()
        assert np.array_equal(np.asarray(s), s.addresses)
        assert np.asarray(s, dtype=np.float64).dtype == np.float64

    def test_array_protocol_honours_copy(self):
        s = _stream()
        first = int(s.addresses[0])
        a = np.array(s)  # copy=True: writing it must not reach the stream
        a[0] = first + 99
        assert s.addresses[0] == first
        assert np.asarray(s) is s.addresses  # copy=None: the column itself
        assert np.asarray(s, copy=False) is s.addresses
        with pytest.raises(ValueError, match="copy=False"):
            np.asarray(s, dtype=np.float64, copy=False)

    def test_fingerprint_is_content_addressed(self):
        a, b = _stream(), _stream()
        assert a.fingerprint() == b.fingerprint()
        c = AddressStream(a.addresses + 8, a.writes, a.ref_ids)
        assert c.fingerprint() != a.fingerprint()
        # the write column participates
        d = AddressStream(a.addresses, ~a.writes, a.ref_ids)
        assert d.fingerprint() != a.fingerprint()

    def test_concat(self):
        a, b = _stream(10), _stream(7)
        cat = AddressStream.concat([a, b])
        assert len(cat) == 17
        assert np.array_equal(cat.addresses[:10], a.addresses)
        assert cat.ref_ids is not None
        # refs drop out when any part lacks them
        bare = AddressStream(np.arange(3, dtype=np.int64))
        assert AddressStream.concat([a, bare]).ref_ids is None
        # step marks keep their offsets in the whole
        marked = AddressStream.concat([b.starting_step(), a, bare.starting_step()])
        assert marked.step_starts == (0, 17)
        assert cat.step_starts == ()

    def test_meta_unit_validated(self):
        with pytest.raises(ValueError):
            StreamMeta(unit="cachelines")

    def test_meta_json_roundtrip(self):
        meta = StreamMeta(
            name="t", source="interp", unit="bytes", line_bytes=128, elem_bytes=8
        )
        assert StreamMeta.from_json(meta.to_json()) == meta
        assert meta.has_geometry
        assert not StreamMeta().has_geometry


class TestFromTrace:
    def test_with_layout_yields_byte_addresses(self):
        program = validate(parse(SOURCE))
        variant = compile_variant(program, "noopt")
        params = {"N": 16}
        trace = trace_program(variant.program, params)
        layout = variant.layout(params)
        stream = AddressStream.from_trace(trace, layout, name="s", source="interp")
        assert np.array_equal(
            stream.addresses, layout.addresses(trace, in_bytes=True)
        )
        assert np.array_equal(stream.writes, trace.writes)
        assert stream.meta.unit == "bytes" and stream.meta.has_geometry

    def test_without_layout_yields_element_keys(self):
        program = validate(parse(SOURCE))
        trace = trace_program(program, {"N": 16})
        stream = AddressStream.from_trace(trace)
        assert stream.meta.unit == "elements"
        assert np.array_equal(stream.addresses, trace.global_keys())
