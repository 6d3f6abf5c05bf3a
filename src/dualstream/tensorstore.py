"""Flat tensor container used for model and fusion checkpoints.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header listing
``{name, rows, cols, dtype, byte_offset}`` per tensor, then the raw
little-endian IEEE-754 blobs.  Offsets are relative to the start of the blob
region.  Writing is canonical (sorted JSON keys, entries in insertion order),
so save -> load -> save round-trips byte-exactly.  The header is read with
the JSON codec (``errors.JsonRecord``), so a key naming no field is refused.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ContractViolationError, JsonRecord, read_record

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass(frozen=True)
class _TensorEntry(JsonRecord):
    """One tensor of the header: where its blob starts, its shape and its dtype."""
    name: str
    rows: int
    cols: int
    dtype: str
    byte_offset: int

    def __post_init__(self):
        for k in ("rows", "cols", "byte_offset"):
            if getattr(self, k) < 0:
                raise ContractViolationError(f"tensor {self.name!r} field {k} must be >= 0")


@dataclass(frozen=True)
class _Header(JsonRecord):
    """The header; each entry is read on its own, so that a refusal names it."""
    tensors: list = dataclasses.field(default_factory=list)


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
        entries.append(_TensorEntry(name, a.shape[0], a.shape[1], dtype, offset).to_json())
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
        doc = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to parse
        raise ContractViolationError(f"container header is not valid JSON: {exc}") from exc
    header = read_record(_Header, doc, "container header")
    payload = memoryview(raw)[8 + hlen:]  # a slice of ``raw`` would copy the blobs
    out: dict[str, np.ndarray] = {}
    spans: list[tuple[int, int, str]] = []
    for i, doc in enumerate(header.tensors):
        entry = read_record(_TensorEntry, doc, f"container header entry {i}")
        name, rows, cols, dtype, start = (entry.name, entry.rows, entry.cols, entry.dtype,
                                          entry.byte_offset)
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


def expect_tensors(tensors: Mapping[str, np.ndarray], shapes: Mapping[str, tuple[int, int]],
                   what: str) -> None:
    """Check that ``tensors`` holds exactly the names of ``shapes``, each a finite
    matrix of its shape; the error names ``what`` and the tensor."""
    if set(tensors) != set(shapes):
        missing, unexpected = sorted(set(shapes) - set(tensors)), sorted(set(tensors) - set(shapes))
        raise ContractViolationError(f"{what} tensors missing {missing}, unexpected {unexpected}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape or not np.isfinite(tensors[name]).all():
            raise ContractViolationError(f"{what} tensor {name!r} is not a finite {shape} matrix")

