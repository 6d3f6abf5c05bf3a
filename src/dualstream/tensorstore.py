"""Flat tensor container used for model and fusion checkpoints.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header listing
``{name, rows, cols, dtype, byte_offset}`` per tensor, then the raw
little-endian IEEE-754 blobs.  Offsets are relative to the start of the blob
region.  Writing is canonical (sorted JSON keys, entries in insertion order),
so save -> load -> save round-trips byte-exactly.
"""
from __future__ import annotations

import json
import struct
from typing import Mapping

import numpy as np

from .errors import ContractViolationError

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def save_tensors(path_or_buf, tensors: Mapping[str, np.ndarray], dtype: str = "f32") -> None:
    """Write named 2-d arrays.  ``dtype`` applies to every tensor ('f32'|'f64')."""
    if dtype not in _DTYPES:
        raise ContractViolationError(f"unknown container dtype {dtype!r}")
    np_dtype = _DTYPES[dtype]
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ContractViolationError(f"tensor {name!r} must be 2-d, got shape {a.shape}")
        blob = np.ascontiguousarray(a, dtype=np_dtype).tobytes()
        entries.append({
            "name": name,
            "rows": int(a.shape[0]),
            "cols": int(a.shape[1]),
            "dtype": dtype,
            "byte_offset": offset,
        })
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"tensors": entries}, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def _write(fh):
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)

    if hasattr(path_or_buf, "write"):
        _write(path_or_buf)
    else:
        with open(path_or_buf, "wb") as fh:
            _write(fh)


def load_tensors(path_or_buf) -> dict[str, np.ndarray]:
    """Read a container back into {name: float array} preserving stored dtype."""
    if hasattr(path_or_buf, "read"):
        raw = path_or_buf.read()
    else:
        with open(path_or_buf, "rb") as fh:
            raw = fh.read()
    if len(raw) < 8:
        raise ContractViolationError("container truncated: missing header length")
    (hlen,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + hlen:
        raise ContractViolationError("container truncated: header shorter than declared")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to parse
        raise ContractViolationError(f"container header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors", []), list):
        raise ContractViolationError("container header must be an object with a 'tensors' list")
    payload = memoryview(raw)[8 + hlen:]  # a slice of ``raw`` would copy the blobs
    out: dict[str, np.ndarray] = {}
    spans: list[tuple[int, int, str]] = []
    for entry in header.get("tensors", []):
        name, rows, cols, dtype, start = _entry_fields(entry)
        if name in out:
            raise ContractViolationError(f"duplicate tensor name {name!r}")
        np_dtype = _DTYPES.get(dtype)
        if np_dtype is None:
            raise ContractViolationError(f"tensor {name!r} has unknown dtype {dtype!r}")
        nbytes = rows * cols * np_dtype.itemsize
        if start + nbytes > len(payload):
            raise ContractViolationError(f"tensor {name!r} blob extends past end of file")
        arr = np.frombuffer(payload[start:start + nbytes], dtype=np_dtype).reshape(rows, cols)
        out[name] = arr.copy()
        if nbytes:
            spans.append((start, start + nbytes, name))
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise ContractViolationError(f"tensors {first!r} and {second!r} share bytes")
    return out


def _entry_fields(entry) -> tuple[str, int, int, str, int]:
    """A header entry's (name, rows, cols, dtype, byte_offset), type-checked."""
    keys = ("name", "rows", "cols", "dtype", "byte_offset")
    if not isinstance(entry, dict):
        raise ContractViolationError("container header entry is not an object")
    missing = [k for k in keys if k not in entry]
    if missing:
        raise ContractViolationError(f"container header entry lacks {missing}")
    name, rows, cols, dtype, start = (entry[k] for k in keys)
    if not isinstance(name, str) or not isinstance(dtype, str):
        raise ContractViolationError("tensor entry name and dtype must be strings")
    for k in ("rows", "cols", "byte_offset"):
        if type(entry[k]) is not int or entry[k] < 0:
            raise ContractViolationError(f"tensor {name!r} field {k} must be an integer >= 0")
    return name, rows, cols, dtype, start
