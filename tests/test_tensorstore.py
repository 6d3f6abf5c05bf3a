"""Checkpoint container: byte-exact round-trips and corruption errors."""
from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dualstream import tensorstore as ts
from dualstream.errors import ContractViolationError


def container_bytes(tensors, dtype):
    buf = io.BytesIO()
    ts.save_tensors(buf, tensors, dtype=dtype)
    return buf.getvalue()


def _sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "w_share": rng.normal(size=(4, 4)),
        "b_f": rng.normal(size=(1, 8)),
        "ln_gain": np.ones((1, 4)),
    }


def test_round_trip_values_f64():
    tensors = _sample_tensors()
    buf = io.BytesIO()
    ts.save_tensors(buf, tensors, dtype="f64")
    loaded = ts.load_tensors(io.BytesIO(buf.getvalue()))
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_round_trip_bytes_exact():
    tensors = _sample_tensors(1)
    first = container_bytes(tensors, dtype="f32")
    loaded = ts.load_tensors(io.BytesIO(first))
    second = container_bytes(loaded, dtype="f32")
    assert first == second


def test_f32_storage_quantizes_but_is_stable():
    tensors = _sample_tensors(2)
    loaded = ts.load_tensors(io.BytesIO(container_bytes(tensors, dtype="f32")))
    for name in tensors:
        assert_allclose(loaded[name], tensors[name], atol=1e-6, rtol=1e-6)
        assert np.array_equal(loaded[name], tensors[name].astype(np.float32).astype(np.float64))


def test_file_round_trip(tmp_path):
    path = tmp_path / "ckpt.bin"
    tensors = _sample_tensors(3)
    ts.save_tensors(path, tensors, dtype="f64")
    loaded = ts.load_tensors(path)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_insertion_order_preserved_in_header():
    tensors = {"zz": np.zeros((1, 1)), "aa": np.ones((1, 1))}
    raw = container_bytes(tensors, dtype="f64")
    assert raw.index(b'"zz"') < raw.index(b'"aa"')


def test_truncated_header_rejected():
    raw = container_bytes(_sample_tensors(), dtype="f32")
    with pytest.raises(ContractViolationError):
        ts.load_tensors(io.BytesIO(raw[:4]))


def test_truncated_payload_rejected():
    raw = container_bytes(_sample_tensors(), dtype="f32")
    with pytest.raises(ContractViolationError):
        ts.load_tensors(io.BytesIO(raw[:-8]))


def test_garbage_header_rejected():
    import struct
    bad = struct.pack("<Q", 4) + b"\xff\xfe\x00\x01"
    with pytest.raises(ContractViolationError):
        ts.load_tensors(io.BytesIO(bad))


def test_bad_dtype_rejected():
    with pytest.raises(ContractViolationError):
        ts.save_tensors(io.BytesIO(), {"a": np.zeros((1, 1))}, dtype="f16")


def _container(header, payload: bytes) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw + payload


_scalars = st.none() | st.booleans() | st.integers(-40, 40) | st.floats(allow_nan=False) \
    | st.sampled_from(["w", "b", "f32", "f64", "f16"])
_json = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
_entry = st.dictionaries(st.sampled_from(["name", "rows", "cols", "dtype", "byte_offset"]),
                         _scalars | _json, max_size=5)
_header = _json | st.fixed_dictionaries({"tensors": st.lists(_entry | _json, max_size=3)})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(header=_header, payload=st.binary(max_size=48))
def test_fuzzed_header_loads_or_raises_contract_violation(header, payload):
    try:
        out = ts.load_tensors(io.BytesIO(_container(header, payload)))
    except ContractViolationError:
        return
    for name, arr in out.items():
        assert isinstance(name, str) and arr.ndim == 2
