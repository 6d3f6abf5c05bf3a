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


def read_field(doc, name: str, convert, default=_REQUIRED):
    """``convert(doc[name])``; a missing or malformed field raises ContractViolationError.

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
        return convert(doc[name])
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"field {name!r}: {exc}") from exc
