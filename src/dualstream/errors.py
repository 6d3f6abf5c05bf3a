"""Shared exception types.

Every public operation raises ContractViolationError (or a subclass) when its
input contract is broken, so callers -- including the CLI -- can map failures
to a single machine-parseable error line.  ``read_field`` applies the same
rule to fields of parsed JSON documents.
"""
from __future__ import annotations

_REQUIRED = object()


class ContractViolationError(ValueError):
    """An input or state violates a documented operation contract."""


class VariantRuleError(ContractViolationError):
    """No rewrite rule applies -- the dataset must supply the variant."""


class LayerStructureError(ContractViolationError):
    """Layer analysis found no separable key/offset structure."""


class TrainingDivergedError(RuntimeError):
    """Training aborted on a non-finite loss.

    Carries the 0-based global step index at which the loss became NaN/Inf.
    """

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


# the Python types ``json.load`` gives a value of each kind; a float may be written as an integer
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,), dict: (dict,)}


def json_value(kind: type, value):
    """``kind(value)`` if JSON gave ``value`` that type, else TypeError; a bool is no number."""
    if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return kind(value)


def read_field(doc, name: str, convert, default=_REQUIRED):
    """``convert(doc[name])``; a missing or malformed field raises ContractViolationError.

    ``convert`` is a function, or one of ``str``, ``int``, ``float``,
    ``bool`` and ``dict``, which ``json_value`` checks instead of coercing.
    ``default`` is returned when the field is absent; without one the field
    is required.  The error names the field, nested readers included.
    """
    if not isinstance(doc, dict):
        raise ContractViolationError(f"expected a JSON object, got {type(doc).__name__}")
    if name not in doc:
        if default is _REQUIRED:
            raise ContractViolationError(f"missing field {name!r}")
        return default
    try:
        if convert in _JSON_TYPES:
            return json_value(convert, doc[name])
        return convert(doc[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolationError(f"field {name!r}: {exc}") from exc
