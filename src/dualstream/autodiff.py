"""Deterministic matrix kernels with a reverse-mode gradient tape.

Everything is a 2-d float64 numpy array wrapped in a Tensor node.  Operations
record themselves on a GradTape (when one is attached to any operand) together
with the values needed to replay adjoints; ``backward`` walks the tape once in
reverse, popping each record, and accumulates gradients additively.  So a tape
is single-use, and reference counting frees its graph as the pass goes.
Tensors without a tape behave as constants, so a forward pass that never
touches a taped leaf records nothing.

The host and the fused block run in plain numpy, each one tape record
(``emit``) whose hand-written adjoint uses the arithmetic they share here:
``row_softmax`` (the one softmax), ``normalize``, and ``attend`` (every
attention) beside its adjoint ``attention_vjp``.  The other per-op kernels
of their oracles, taped op by op, live in the tests.

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
    """Ordered record of primitive ops, consumed by one ``backward``.

    A record holds its output, whose ``tape`` points back here, so until
    ``backward`` pops it the tape and its graph form a reference cycle.
    """

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


def emit(value: Array, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """``value`` as the output of an op on ``inputs``, recorded on their tape if they
    have one.  ``vjp`` maps the output's adjoint to a tuple holding an adjoint (or
    None) per input.  Every kernel here records through it, and so may an op
    computed outside them."""
    tape = _result_tape(*inputs)
    out = Tensor(value, tape)
    if tape is not None:
        tape.record(out, inputs, vjp)
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    """The adjoint of an elementwise operand of ``shape`` from ``g``, the result's: ``g``
    itself, or its column sums for a (1, n) row broadcast against (m, n)."""
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
        return unbroadcast(g, sa), unbroadcast(g, sb)

    return emit(a.value + b.value, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _ew_shapes(a, b, "sub")
    sa, sb = a.value.shape, b.value.shape

    def vjp(g: Array):
        return unbroadcast(g, sa), -unbroadcast(g, sb)

    return emit(a.value - b.value, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (same shape, or a (1,n) row broadcast)."""
    _ew_shapes(a, b, "mul")
    av, bv = a.value, b.value

    def vjp(g: Array):
        return unbroadcast(g * bv, av.shape), unbroadcast(g * av, bv.shape)

    return emit(av * bv, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    def vjp(g: Array):
        return (g * c,)

    return emit(a.value * c, (a,), vjp)


def softmax_rows(a: Tensor, scale_factor: float = 1.0) -> Tensor:
    """Row-wise softmax of ``scale_factor * a`` with max-subtraction.

    scale_factor 0 gives uniform rows.  -inf entries act as masks (zero
    probability); a row that is entirely -inf is a degenerate mask -> error.
    """
    y = row_softmax(a.value, scale_factor)

    def vjp(g: Array):
        return (row_softmax_vjp(g, y, scale_factor),)

    return emit(y, (a,), vjp)


def row_softmax(a: Array, scale_factor: float) -> Array:
    """``softmax_rows`` in plain numpy, over the last axis of ``a``, of any rank; on a
    matrix, its value bit for bit."""
    z = a * scale_factor if scale_factor != 0.0 else np.zeros_like(a)
    rowmax = z.max(axis=-1, keepdims=True)
    if (rowmax == -np.inf).any():
        raise ContractViolationError("softmax row with no finite entry (degenerate mask)")
    # +inf/NaN rows are numeric overflow, not masking; they propagate NaN so
    # the training loop's divergence guard can catch them.  ``z`` is this
    # call's own array, so the rest works in place on it.
    z -= rowmax
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def row_softmax_vjp(g: Array, y: Array, scale_factor: float) -> Array:
    """``softmax_rows``'s input adjoint over the last axis, given ``g``, its output ``y``'s."""
    return scale_factor * y * (g - (g * y).sum(axis=-1, keepdims=True))


def attend(x: Array, y: Array, wq: Array, wk: Array, wv: Array | None, d_k: int,
           mask: Array | None = None, q: Array | None = None) -> tuple[Array | None, tuple]:
    """``a @ v`` for ``a = row_softmax(q @ kt [+ mask], 1 / sqrt(d_k))``, and what
    ``attention_vjp`` reads, ``(q, kt, a, v, scale)``, over any leading axes, one BLAS
    call per 2-d slice.  ``q = x @ wq`` unless the caller has it, ``kt`` is a contiguous
    copy of ``(y @ wk)^T``, as a taped transpose is, and ``v = y @ wv``; with no ``wv``,
    only ``a`` is computed, and ``a @ v`` and ``v`` are None."""
    if isinstance(d_k, bool) or not isinstance(d_k, (int, np.integer)) or d_k < 1:
        raise ContractViolationError(f"attention d_k must be an integer >= 1, got {d_k!r}")
    q = x @ wq if q is None else q
    kt = np.ascontiguousarray((y @ wk).swapaxes(-1, -2))
    scale = 1.0 / np.sqrt(d_k)
    a = row_softmax(q @ kt if mask is None else q @ kt + mask, scale)
    v = None if wv is None else y @ wv
    return None if v is None else a @ v, (q, kt, a, v, scale)


def attention_vjp(g: Array, q: Array, kt: Array, a: Array, v: Array,
                  scale_factor: float) -> tuple[Array, Array, Array]:
    """Q's, K's and V's adjoints in ``attend``'s ``a @ v``, given ``g``, its output's:
    the bits of the taped matmul, transpose and softmax, over any leading axes."""
    t = lambda m: m.swapaxes(-1, -2)
    gs = row_softmax_vjp(g @ t(v), a, scale_factor)
    return gs @ t(kt), t(t(q) @ gs), t(a) @ g


def normalize(x: Array) -> tuple[Array, Array]:
    """``layer_norm`` before gain and bias: ``x`` standardized over its last axis, and
    the ``1 / sqrt(var + LN_EPS)`` that scaled it."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xc = x - mu   # from here on, in place on this call's own arrays only
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    var += LN_EPS
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)
    xc *= var
    return xc, var


def normalize_vjp(gx: Array, xhat: Array, inv: Array) -> Array:
    """``normalize``'s input adjoint over 2-d rows, given ``gx``, the adjoint of ``xhat``:
    per row, ``inv * (I - 1/d - xhat xhat^T / d)`` applied to ``gx``."""
    return inv * (gx - np.add.reduce(gx, axis=1, keepdims=True) / gx.shape[1]
                  - xhat * (np.add.reduce(gx * xhat, axis=1, keepdims=True) / gx.shape[1]))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise layer normalization: (x - mean) / sqrt(var + LN_EPS) * gain + bias."""
    d = x.value.shape[1]
    if gain.value.shape != (1, d) or bias.value.shape != (1, d):
        raise ContractViolationError("layer_norm gain/bias must be (1, d) rows")
    xhat, inv = normalize(x.value)
    gv = gain.value

    def vjp(g: Array):
        dgain = (g * xhat).sum(axis=0, keepdims=True)
        dbias = g.sum(axis=0, keepdims=True)
        return normalize_vjp(g * gv, xhat, inv), dgain, dbias

    return emit(xhat * gv + bias.value, (x, gain, bias), vjp)


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

    return emit(a.value[idx], (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.value.shape

    def vjp(g: Array):
        return (np.full(shape, g[0, 0]),)

    return emit(np.array([[a.value.sum()]]), (a,), vjp)


def pick(a: Tensor, row: int, col: int) -> Tensor:
    r, c = a.value.shape
    if not (0 <= row < r and 0 <= col < c):
        raise ContractViolationError(f"pick index ({row},{col}) outside {a.value.shape}")
    shape = a.value.shape

    def vjp(g: Array):
        out = np.zeros(shape)
        out[row, col] = g[0, 0]
        return (out,)

    return emit(np.array([[a.value[row, col]]]), (a,), vjp)


def log_clamped(a: Tensor) -> Tensor:
    """Elementwise natural log of max(a, LOG_CLAMP); gradient is zero where clamped."""
    clamped = np.maximum(a.value, LOG_CLAMP)
    mask = a.value > LOG_CLAMP

    def vjp(g: Array):
        return (g * mask / clamped,)

    return emit(np.log(clamped), (a,), vjp)


# ---------------------------------------------------------------------------
# reverse pass and the independent derivative oracle
# ---------------------------------------------------------------------------

def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, Array]:
    """Gradients of a scalar loss wrt every taped leaf it depends on.

    Records are popped in reverse creation order, which is a valid reverse
    topological order, so each node is visited exactly once and fan-out
    gradients accumulate additively.  Popping consumes the tape: each record's
    saved values are freed once its adjoint is passed on, and the tape ends
    empty, so a tape with no records (fresh or already replayed) is refused,
    and so is a loss not recorded on ``tape`` (another tape's, or a constant),
    before any record is popped.
    Constants (inputs without a tape) get no adjoint: nothing flows from them
    into a leaf.  Returns a mapping whose keys are the taped leaf Tensors
    (nodes not produced by any taped op).
    """
    if loss.value.shape != (1, 1):
        raise ContractViolationError(f"backward seed must be scalar, got {loss.value.shape}")
    if loss.tape is not tape:
        raise ContractViolationError("backward needs a loss recorded on the given tape")
    records = tape._records
    if not records:
        raise ContractViolationError("backward needs a tape with records; a tape is single-use")
    grads: dict[Tensor, Array] = {loss: np.ones((1, 1))}
    while records:
        out, inputs, vjp = records.pop()
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
