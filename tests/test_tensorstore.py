"""Checkpoint container: byte-exact round-trips and corruption errors."""
from __future__ import annotations

import contextlib
import io
import json
import struct
import tracemalloc

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


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_loaded_tensors_own_their_data(tmp_path, dtype):
    """No tensor is a view into the file buffer, so none keeps the whole file alive."""
    path = tmp_path / "ckpt.bin"
    ts.save_tensors(path, _sample_tensors(3), dtype=dtype)
    for loaded in (ts.load_tensors(path), ts.load_tensors(io.BytesIO(path.read_bytes()))):
        for arr in loaded.values():
            assert arr.base is None or arr.flags.owndata
            assert arr.flags.writeable


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
    with pytest.raises(ContractViolationError, match="container truncated: missing header length"):
        ts.load_tensors(io.BytesIO(raw[:4]))


def test_truncated_payload_rejected():
    raw = container_bytes(_sample_tensors(), dtype="f32")
    with pytest.raises(ContractViolationError,
                       match="tensor 'ln_gain' blob extends past end of file"):
        ts.load_tensors(io.BytesIO(raw[:-8]))


def test_garbage_header_rejected():
    import struct
    bad = struct.pack("<Q", 4) + b"\xff\xfe\x00\x01"
    with pytest.raises(ContractViolationError, match="container header is not valid JSON"):
        ts.load_tensors(io.BytesIO(bad))


def test_bad_dtype_rejected():
    with pytest.raises(ContractViolationError, match="unknown container dtype 'f16'"):
        ts.save_tensors(io.BytesIO(), {"a": np.zeros((1, 1))}, dtype="f16")
    entry = {"name": "w", "rows": 1, "cols": 1, "dtype": "f16", "byte_offset": 0}
    with pytest.raises(ContractViolationError, match="tensor 'w' has unknown dtype 'f16'"):
        ts.load_tensors(io.BytesIO(_container({"tensors": [entry]}, bytes(8))))


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


@pytest.mark.parametrize("header, where", [
    ({"tensors": [], "version": 1}, "container header: field 'version'"),
    ({"tensors": [{"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "byte_offset": 0,
                   "stride": 8}]}, "container header entry 0: field 'stride'"),
])
def test_header_key_that_names_no_field_rejected(header, where):
    with pytest.raises(ContractViolationError, match=f"{where}: .* has no such field"):
        ts.load_tensors(io.BytesIO(_container(header, bytes(8))))



# ---------------------------------------------------------------------------
# streaming: no whole-file buffer, no second copy, nothing allocated for a lie
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _traced():
    """Trace allocations in the block; yields a function that returns the peak so far."""
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_loading_peaks_at_the_tensors_plus_one_tensor(tmp_path, dtype):
    """The peak of ``load_tensors(path)`` is what it returns plus at most its largest
    tensor and a small slack: a loader that holds the file beside the tensors
    peaks near twice what it returns."""
    rng = np.random.default_rng(4)
    path = tmp_path / "ckpt.bin"
    ts.save_tensors(path, {f"w{i}": rng.normal(size=(64 * (i + 1), 160)) for i in range(6)},
                    dtype=dtype)
    with _traced() as peak:
        loaded = ts.load_tensors(path)
        retained = sum(a.nbytes for a in loaded.values())
        assert peak() <= retained + max(a.nbytes for a in loaded.values()) + 64 * 1024


@pytest.mark.parametrize("header_length, entry, message", [
    (2**63, None, "header shorter than declared"),
    (None, {"name": "w", "rows": 10**9, "cols": 10**9, "dtype": "f64", "byte_offset": 0},
     "tensor 'w' blob extends past end of file"),
    (None, {"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "byte_offset": 2**70},
     "tensor 'w' blob extends past end of file"),
])
def test_a_size_past_the_end_of_the_file_is_refused_before_allocating(header_length, entry,
                                                                      message):
    raw = _container({"tensors": [entry] if entry else []}, bytes(16))
    if header_length is not None:
        raw = struct.pack("<Q", header_length) + raw[8:]
    with _traced() as peak:
        with pytest.raises(ContractViolationError, match=message):
            ts.load_tensors(io.BytesIO(raw))
        assert peak() < 64 * 1024


def test_a_blob_cut_mid_tensor_is_refused():
    raw = container_bytes({"a": np.ones((2, 2)), "b": np.ones((3, 4))}, dtype="f64")
    with pytest.raises(ContractViolationError, match="tensor 'b' blob extends past end of file"):
        ts.load_tensors(io.BytesIO(raw[:-12]))


class _ShrinkingFile(io.BytesIO):
    """A file that loses its last byte after its size was read."""

    def readinto(self, buffer):
        return max(0, super().readinto(buffer) - 1)


def test_a_short_read_is_refused_as_a_blob_past_the_end():
    raw = container_bytes({"a": np.ones((2, 2))}, dtype="f32")
    with pytest.raises(ContractViolationError, match="tensor 'a' blob extends past end of file"):
        ts.load_tensors(_ShrinkingFile(raw))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_zero_size_tensors_load(dtype):
    tensors = {"empty": np.zeros((0, 0)), "no_rows": np.zeros((0, 3)), "w": np.ones((2, 1))}
    loaded = ts.load_tensors(io.BytesIO(container_bytes(tensors, dtype=dtype)))
    assert {k: v.shape for k, v in loaded.items()} == {k: v.shape for k, v in tensors.items()}
    assert np.array_equal(loaded["w"], tensors["w"])


def test_a_path_and_an_open_buffer_load_equal_arrays(tmp_path):
    """A buffer is read from its position; the path and the buffer give equal arrays."""
    path = tmp_path / "ckpt.bin"
    ts.save_tensors(path, _sample_tensors(5), dtype="f64")
    buf = io.BytesIO(b"prefix" + path.read_bytes())
    buf.seek(len(b"prefix"))
    from_path, from_buf = ts.load_tensors(path), ts.load_tensors(buf)
    assert list(from_path) == list(from_buf)
    for name in from_path:
        assert from_path[name].dtype == from_buf[name].dtype
        assert np.array_equal(from_path[name], from_buf[name])


def test_the_saved_layout_is_length_header_then_each_blob_in_order():
    tensors = {"b": np.arange(6.0).reshape(2, 3), "a": np.zeros((0, 2)), "c": np.eye(2)}
    header = json.dumps({"tensors": [
        {"byte_offset": 0, "cols": 3, "dtype": "f32", "name": "b", "rows": 2},
        {"byte_offset": 24, "cols": 2, "dtype": "f32", "name": "a", "rows": 0},
        {"byte_offset": 24, "cols": 2, "dtype": "f32", "name": "c", "rows": 2},
    ]}, separators=(",", ":")).encode("utf-8")
    want = struct.pack("<Q", len(header)) + header + b"".join(
        a.astype("<f4").tobytes() for a in tensors.values())
    assert container_bytes(tensors, dtype="f32") == want


def test_a_bad_tensor_is_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "ckpt.bin"
    with pytest.raises(ContractViolationError, match="tensor 'v' must be 2-d"):
        ts.save_tensors(path, {"w": np.ones((1, 1)), "v": np.ones(3)})
    with pytest.raises(ContractViolationError, match="unknown container dtype"):
        ts.save_tensors(path, {"w": np.ones((1, 1))}, dtype="f16")
    assert not path.exists()
