"""Deterministic matrix kernels with a reverse-mode gradient tape.

Everything is a 2-d float64 numpy array wrapped in a Tensor node.  Operations
record themselves on a GradTape (when one is attached to any operand) together
with the values needed to replay adjoints; ``backward`` walks the tape once in
reverse and accumulates gradients additively.  Tensors without a tape behave as
constants, so a forward pass that never touches a taped leaf records nothing.

Kernels are backed by numpy float64; given identical inputs a run is
bit-deterministic within a process.  Tapes are not thread-safe -- confine a
tape to one thread.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError

Array = np.ndarray

LOG_CLAMP = 1e-12
LN_EPS = 1e-5


def as_matrix(value) -> Array:
    """Coerce to a 2-d float64 array: scalars -> (1,1), vectors -> (1,n)."""
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ContractViolationError(f"expected at most 2 dimensions, got {a.ndim}")
    return a


class GradTape:
    """Ordered record of primitive ops, replayed backward exactly once each."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def record(self, out: "Tensor", inputs: tuple["Tensor", ...], vjp: Callable) -> None:
        self._records.append((out, inputs, vjp))

    def __len__(self) -> int:
        return len(self._records)


class Tensor:
    """A node in the computation graph holding a 2-d float64 value."""

    __slots__ = ("value", "tape")

    def __init__(self, value, tape: GradTape | None = None):
        self.value = as_matrix(value)
        self.tape = tape

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ContractViolationError(f"item() needs a (1,1) tensor, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, taped={self.tape is not None})"


def _result_tape(*tensors: Tensor) -> GradTape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractViolationError("operands belong to different tapes")
    return tape


def _emit(value: Array, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    tape = _result_tape(*inputs)
    out = Tensor(value, tape)
    if tape is not None:
        tape.record(out, inputs, vjp)
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ContractViolationError(
            f"matmul inner dimensions differ: {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value
    need_a, need_b = a.tape is not None, b.tape is not None

    def vjp(g: Array):
        # a constant operand (no tape) never passes a gradient on to a leaf
        return g @ bv.T if need_a else None, av.T @ g if need_b else None

    return _emit(av @ bv, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    def vjp(g: Array):
        return (g.T,)

    return _emit(a.value.T.copy(), (a,), vjp)


def _unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    # Only row-broadcast (1,n) against (m,n) is supported.
    if g.shape == shape:
        return g
    return g.sum(axis=0, keepdims=True)


def _ew_shapes(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return
    if sa[1] == sb[1] and (sa[0] == 1 or sb[0] == 1):
        return
    raise ContractViolationError(f"{op} shapes incompatible: {sa} vs {sb}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _ew_shapes(a, b, "add")
    sa, sb = a.value.shape, b.value.shape

    def vjp(g: Array):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _emit(a.value + b.value, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _ew_shapes(a, b, "sub")
    sa, sb = a.value.shape, b.value.shape

    def vjp(g: Array):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _emit(a.value - b.value, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (same shape, or a (1,n) row broadcast)."""
    _ew_shapes(a, b, "mul")
    av, bv = a.value, b.value

    def vjp(g: Array):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _emit(av * bv, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    def vjp(g: Array):
        return (g * c,)

    return _emit(a.value * c, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0

    def vjp(g: Array):
        return (g * mask,)

    return _emit(a.value * mask, (a,), vjp)


def softmax_rows(a: Tensor, scale_factor: float = 1.0) -> Tensor:
    """Row-wise softmax of ``scale_factor * a`` with max-subtraction.

    scale_factor 0 gives uniform rows.  -inf entries act as masks (zero
    probability); a row that is entirely -inf is a degenerate mask -> error.
    """
    z = a.value * scale_factor if scale_factor != 0.0 else np.zeros_like(a.value)
    rowmax = z.max(axis=1, keepdims=True)
    if np.isneginf(rowmax).any():
        raise ContractViolationError("softmax row with no finite entry (degenerate mask)")
    # +inf/NaN rows are numeric overflow, not masking; they propagate NaN so
    # the training loop's divergence guard can catch them
    e = np.exp(z - rowmax)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (scale_factor * y * (g - inner),)

    return _emit(y, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise layer normalization: (x - mean) / sqrt(var + LN_EPS) * gain + bias."""
    xv = x.value
    d = xv.shape[1]
    if gain.value.shape != (1, d) or bias.value.shape != (1, d):
        raise ContractViolationError("layer_norm gain/bias must be (1, d) rows")
    mu = np.add.reduce(xv, axis=-1, keepdims=True) / d
    xc = xv - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    gv = gain.value

    def vjp(g: Array):
        gx = g * gv  # gradient wrt xhat
        # d xhat / d x for one row: inv * (I - 1/d - xhat xhat^T / d)
        term1 = gx
        term2 = gx.mean(axis=1, keepdims=True)
        term3 = xhat * (gx * xhat).mean(axis=1, keepdims=True)
        dx = inv * (term1 - term2 - term3)
        dgain = (g * xhat).sum(axis=0, keepdims=True)
        dbias = g.sum(axis=0, keepdims=True)
        return dx, dgain, dbias

    return _emit(xhat * gv + bias.value, (x, gain, bias), vjp)


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

    return _emit(np.hstack([p.value for p in parts]), tuple(parts), vjp)


def take_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ContractViolationError("take_rows needs a non-empty 1-d index list")
    if idx.min() < 0 or idx.max() >= a.value.shape[0]:
        raise ContractViolationError("take_rows index out of range")
    shape = a.value.shape

    def vjp(g: Array):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return _emit(a.value[idx], (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape

    def vjp(g: Array):
        return (np.full(shape, g[0, 0]),)

    return _emit(np.array([[a.value.sum()]]), (a,), vjp)


def pick(a: Tensor, row: int, col: int) -> Tensor:
    r, c = a.value.shape
    if not (0 <= row < r and 0 <= col < c):
        raise ContractViolationError(f"pick index ({row},{col}) outside {a.value.shape}")
    shape = a.value.shape

    def vjp(g: Array):
        out = np.zeros(shape)
        out[row, col] = g[0, 0]
        return (out,)

    return _emit(np.array([[a.value[row, col]]]), (a,), vjp)


def log_clamped(a: Tensor) -> Tensor:
    """Elementwise natural log of max(a, LOG_CLAMP); gradient is zero where clamped."""
    clamped = np.maximum(a.value, LOG_CLAMP)
    mask = a.value > LOG_CLAMP

    def vjp(g: Array):
        return (g * mask / clamped,)

    return _emit(np.log(clamped), (a,), vjp)


# ---------------------------------------------------------------------------
# reverse pass and the independent derivative oracle
# ---------------------------------------------------------------------------

def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, Array]:
    """Gradients of a scalar loss wrt every taped leaf it depends on.

    Records are replayed in reverse creation order, which is a valid reverse
    topological order, so each node is visited exactly once and fan-out
    gradients accumulate additively.  Constants (inputs without a tape) get
    no adjoint: nothing flows from them into a leaf.  Returns a mapping whose
    keys are the taped leaf Tensors (nodes not produced by any taped op).
    """
    if loss.value.shape != (1, 1):
        raise ContractViolationError(f"backward seed must be scalar, got {loss.value.shape}")
    grads: dict[Tensor, Array] = {loss: np.ones((1, 1))}
    for out, inputs, vjp in reversed(tape._records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for inp, ginp in zip(inputs, vjp(g)):
            if ginp is None or inp.tape is None:
                continue
            acc = grads.get(inp)
            grads[inp] = ginp if acc is None else acc + ginp
    return grads


def finite_diff_grad(f: Callable[[Array], float], theta: Array, h: float = 1e-5) -> Array:
    """Central-difference gradient (f(t+h e_i) - f(t-h e_i)) / 2h, float64."""
    if not h > 0.0:
        raise ContractViolationError("finite_diff_grad needs h > 0")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        up = f((flat + bump).reshape(theta.shape))
        down = f((flat - bump).reshape(theta.shape))
        grad.ravel()[i] = (up - down) / (2.0 * h)
    return grad
