"""Shared exception types and the JSON codec.

Every public operation raises ContractViolationError (or a subclass) when its
input contract is broken, so callers -- including the CLI -- can map failures
to a single machine-parseable error line.  ``read_field`` applies the same
rule to fields of parsed JSON documents, and ``JsonRecord`` reads and writes
a dataclass through its field annotations; every JSON object the package
reads is one.  ``write_json``, ``write_jsonl``, ``read_json`` and
``read_jsonl`` hold the file convention: sorted keys, a trailing newline.
``read_text`` reads every input file, and refuses one that is not UTF-8; the
two readers refuse malformed JSON with an error naming the file (and, in a
JSON-lines file, the line), and ``read_record`` names them in a refusal of a
record.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

import numpy as np


class ContractViolationError(ValueError):
    """An input or state violates a documented operation contract."""


class VariantRuleError(ContractViolationError):
    """No rewrite rule applies -- the dataset must supply the variant."""


class LayerStructureError(ContractViolationError):
    """Layer analysis found no separable key/offset structure."""


class TrainingDivergedError(RuntimeError):
    """Training aborted on a non-finite loss or parameter update.

    Carries the 0-based global step index at which ``what`` became NaN/Inf.
    """

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


# the Python types ``json.load`` gives a value of each kind; a float may be written as an integer
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,), dict: (dict,),
               list: (list,)}
_ALIASES = {np.ndarray: list[float]}   # a float vector is a JSON list


def json_value(kind, value):
    """``value`` read as the annotation ``kind``; a value of another type raises TypeError.

    A scalar, or a bare ``list`` or ``dict``, is checked, never coerced: a bool
    is no number, and an int may stand for a float.  ``T | None``, ``list[T]`` and
    ``tuple[T, ...]`` (from a JSON array only) read their items in turn, and a
    ``JsonRecord`` reads itself.
    """
    kind = _ALIASES.get(kind, kind)
    if kind in _JSON_TYPES:
        if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return kind(value)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return None if value is None else json_value(args[0], value)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise TypeError(f"expected a JSON array, got {type(value).__name__}")
        return origin(json_value(args[0], v) for v in value)
    return kind.from_json(value)


def json_of(kind, value):
    """The JSON form of ``value`` under the annotation ``kind``, which ``json_value`` reads back."""
    kind = _ALIASES.get(kind, kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return None if value is None else json_of(args[0], value)
    if origin in (list, tuple):
        return [json_of(args[0], v) for v in value]
    return value.to_json() if isinstance(value, JsonRecord) else kind(value)


def _field_error(field: tuple) -> ContractViolationError:
    """The refusal of ``field``, a ``(path, reason)`` pair (reason None: missing), which
    the error keeps so that an enclosing record can extend the path."""
    path, reason = field
    name = ".".join(map(str, path))
    exc = ContractViolationError(
        f"missing field {name!r}" if reason is None else f"field {name!r}: {reason}")
    exc.field = field
    return exc


def read_field(doc: dict, name: str, kind, default=dataclasses.MISSING):
    """``doc[name]`` read as the annotation ``kind``; a missing or malformed field raises
    ContractViolationError.

    ``default`` is returned when the field is absent; without one the field
    is required.  The error names the field by its dotted path through
    nested records (``field 'verdict.per_layer': ...``).
    """
    if name not in doc:
        if default is dataclasses.MISSING:
            raise _field_error(((name,), None))
        return default
    try:
        return json_value(kind, doc[name])
    except (TypeError, ValueError, OverflowError) as exc:
        path, reason = getattr(exc, "field", ((), str(exc)))
        raise _field_error(((name, *path), reason)) from exc


@functools.cache
def field_types(cls) -> dict:
    """Field name -> resolved annotation of the dataclass ``cls``."""
    return typing.get_type_hints(cls)


@functools.cache
def _json_fields(cls) -> dict:
    """JSON key -> field of the dataclass ``cls``; a field keyed None has no key."""
    keyed = ((f.metadata.get("json", f.name), f) for f in dataclasses.fields(cls))
    return {key: f for key, f in keyed if key is not None}


class JsonRecord:
    """A dataclass whose field annotations state its JSON form: one key per field.

    ``from_json`` refuses a key that names no field, then reads the keys in
    field order with ``read_field``; a field with a default may be absent.
    A field's ``metadata["json"]`` renames its key (None: no key, so the field
    is never written and its name is refused), and its ``metadata["none"]``
    is the JSON value that stands for None, in which case JSON null is refused.
    """

    def to_json(self) -> dict:
        doc = {}
        for key, f in _json_fields(type(self)).items():
            value = getattr(self, f.name)
            doc[key] = (f.metadata["none"] if value is None and "none" in f.metadata
                        else json_of(field_types(type(self))[f.name], value))
        return doc

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict):
            raise ContractViolationError(f"expected a JSON object, got {type(doc).__name__}")
        fields = _json_fields(cls)
        for key in doc:
            if key not in fields:
                raise _field_error(((key,), f"{cls.__name__} has no such field"))
        kwargs = {}
        for key, f in fields.items():
            kind = field_types(cls)[f.name]
            if "none" in f.metadata:  # ``T | None``, with None written as the sentinel
                if doc.get(key) == f.metadata["none"]:
                    kwargs[f.name] = None
                    continue
                kind = typing.get_args(kind)[0]
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            kwargs[f.name] = read_field(doc, key, kind, default)
        return cls(**kwargs)


def write_json(path, doc) -> None:
    """One JSON document: sorted keys, indent 1, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_jsonl(path, rows) -> None:
    """One JSON document per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_text(path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 raises ContractViolationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ContractViolationError(f"{path} is not UTF-8 text: {exc}") from exc


def _not_a_number(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def _finite_float(number: str) -> float:
    value = float(number)
    if math.isinf(value):
        raise ValueError(f"{number} is past the float range")
    return value


def _parse_json(text: str, where: str):
    """``text`` parsed as standard JSON whose numbers are finite floats: ``NaN``,
    ``Infinity`` and a literal past the float range (``1e400``) are refused."""
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_not_a_number)
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or a huge integer
        raise ContractViolationError(f"{where} is not valid JSON: {exc}") from exc


def read_json(path):
    """The JSON document in a UTF-8 file; malformed JSON raises ContractViolationError."""
    return _parse_json(read_text(path), str(path))


def read_record(kind, doc, where: str):
    """``doc`` read as the annotation ``kind`` (a ``JsonRecord`` type, say); a refusal
    names ``where``, the file (and line) ``doc`` is from."""
    try:
        return json_value(kind, doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolationError(f"{where}: {exc}") from exc


def read_jsonl(path, record: type[JsonRecord]) -> list:
    """``record.from_json`` of each non-blank line of a JSON-lines file; malformed
    JSON, or a line that is no valid record, raises ContractViolationError naming
    the file and the 1-based line."""
    rows = []
    for n, line in enumerate(map(str.strip, read_text(path).split("\n")), 1):
        if line:
            where = f"{path} line {n}"
            rows.append(read_record(record, _parse_json(line, where), where))
    return rows
