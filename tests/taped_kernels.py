"""The taped kernels only the oracles need: matmul, transpose, relu and concat_cols.

The program computes these products in plain numpy and tapes whole blocks
through ``autodiff.emit``; the host and the fused block taped op by op
(``taped_host``, ``taped_fusion``) record one of these per primitive op, on
the same ``emit`` and ``backward`` the program uses.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from dualstream.autodiff import Tensor, emit
from dualstream.errors import ContractViolationError

Array = np.ndarray


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ContractViolationError(
            f"matmul inner dimensions differ: {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value
    need_a, need_b = a.tape is not None, b.tape is not None

    def vjp(g: Array):
        # a constant operand (no tape) never passes a gradient on to a leaf
        return g @ bv.T if need_a else None, av.T @ g if need_b else None

    return emit(av @ bv, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    def vjp(g: Array):
        return (g.T,)

    return emit(a.value.T.copy(), (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0

    def vjp(g: Array):
        return (g * mask,)

    return emit(a.value * mask, (a,), vjp)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractViolationError("concat_cols needs at least one part")
    rows = parts[0].value.shape[0]
    if any(p.value.shape[0] != rows for p in parts):
        raise ContractViolationError("concat_cols parts must share row count")
    widths = [p.value.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def vjp(g: Array):
        return tuple(np.hsplit(g, splits))

    return emit(np.hstack([p.value for p in parts]), tuple(parts), vjp)
