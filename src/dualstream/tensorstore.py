"""Flat tensor container used for model and fusion checkpoints.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header listing
``{name, rows, cols, dtype, byte_offset}`` per tensor, then the raw
little-endian IEEE-754 blobs.  Offsets are relative to the start of the blob
region.  Writing is canonical (sorted JSON keys, entries in insertion order),
so save -> load -> save round-trips byte-exactly.  The header is read with
the JSON codec (``errors.JsonRecord``), so a key naming no field is refused.

Both directions stream: saving writes each tensor's bytes as it converts
them, and loading reads each blob straight into its own array, so neither
holds the file as one buffer beside the tensors.
"""
from __future__ import annotations

import dataclasses
import json
import os
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
    """Write named 2-d arrays to a path or a binary file.  ``dtype`` applies to
    every tensor ('f32'|'f64').  Each offset follows from the shapes before it,
    so the header goes first and each tensor's bytes follow as it is converted:
    no list of blobs is built.  A bad tensor is refused before a path is opened."""
    if dtype not in _DTYPES:
        raise ContractViolationError(f"unknown container dtype {dtype!r}")
    np_dtype = _DTYPES[dtype]
    arrays = {}
    entries = []
    offset = 0
    for name, arr in tensors.items():
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ContractViolationError(f"tensor {name!r} must be 2-d, got shape {a.shape}")
        arrays[name] = a
        entries.append(_TensorEntry(name, a.shape[0], a.shape[1], dtype, offset).to_json())
        offset += a.size * np_dtype.itemsize
    header = json.dumps({"tensors": entries}, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def _write(fh):
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype=np_dtype))

    if hasattr(path_or_buf, "write"):
        _write(path_or_buf)
    else:
        with open(path_or_buf, "wb") as fh:
            _write(fh)


def load_tensors(path_or_buf) -> dict[str, np.ndarray]:
    """Read a container back into {name: float array} preserving stored dtype.

    ``path_or_buf`` is a path or a seekable binary file (such as ``io.BytesIO``)
    positioned at the container's first byte.  Every size the header declares
    is checked against the file's size before anything is allocated, then each
    blob is read straight into its own array: the peak is the tensors plus the
    header, never a second copy of the file.
    """
    if hasattr(path_or_buf, "read"):
        return _read_tensors(path_or_buf)
    with open(path_or_buf, "rb") as fh:
        return _read_tensors(fh)


def _read_tensors(fh) -> dict[str, np.ndarray]:
    """``load_tensors`` of an open file."""
    base = fh.tell()
    size = fh.seek(0, os.SEEK_END) - base
    fh.seek(base)
    if size < 8:
        raise ContractViolationError("container truncated: missing header length")
    (hlen,) = struct.unpack("<Q", fh.read(8))
    if size < 8 + hlen:
        raise ContractViolationError("container truncated: header shorter than declared")
    try:
        doc = json.loads(fh.read(hlen).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to parse
        raise ContractViolationError(f"container header is not valid JSON: {exc}") from exc
    header = read_record(_Header, doc, "container header")
    payload, payload_size = base + 8 + hlen, size - 8 - hlen
    entries: dict[str, _TensorEntry] = {}
    spans: list[tuple[int, int, str]] = []
    for i, doc in enumerate(header.tensors):
        entry = read_record(_TensorEntry, doc, f"container header entry {i}")
        name, rows, cols, dtype, start = (entry.name, entry.rows, entry.cols, entry.dtype,
                                          entry.byte_offset)
        if name in entries:
            raise ContractViolationError(f"duplicate tensor name {name!r}")
        np_dtype = _DTYPES.get(dtype)
        if np_dtype is None:
            raise ContractViolationError(f"tensor {name!r} has unknown dtype {dtype!r}")
        nbytes = rows * cols * np_dtype.itemsize
        if start + nbytes > payload_size:
            raise ContractViolationError(f"tensor {name!r} blob extends past end of file")
        entries[name] = entry
        if nbytes:
            spans.append((start, start + nbytes, name))
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise ContractViolationError(f"tensors {first!r} and {second!r} share bytes")
    out: dict[str, np.ndarray] = {}
    for name, entry in entries.items():
        arr = out[name] = np.empty((entry.rows, entry.cols), _DTYPES[entry.dtype])
        fh.seek(payload + entry.byte_offset)
        if fh.readinto(arr) != arr.nbytes:  # the file shrank since its size was read
            raise ContractViolationError(f"tensor {name!r} blob extends past end of file")
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

