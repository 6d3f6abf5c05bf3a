"""Shared/private mixed-attention fusion between two knowledge streams.

Internal hidden states I and a filtered external stream D-hat are compared
through a shared projection; the top-T most similar external tokens are
cross-attended into I, while differential attention (self minus cross)
isolates what each stream says that the other does not.  The three |I|-length
streams are concatenated feature-wise, mixed by a two-layer MLP, normalized,
and added back onto I.  Everything here is a plain-numpy function of
(streams, params).  When the params are supplied as taped leaves, the update
is one tape record whose hand-written adjoint gives every parameter but
``w_share`` its gradient; the oracle it is held to, bit for bit, is the block
taped op by op, in the tests.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, as_matrix
from .errors import ContractViolationError, read_field
from .tensorstore import expect_tensors, load_tensors, save_tensors

Array = np.ndarray

DEFAULT_TOP_T = 10

STREAM_ORIGINS = ("internal", "external")


def param_shapes(d_model: int, d_ff: int) -> dict[str, tuple[int, int]]:
    """Name and shape of every fusion tensor, in checkpoint order; each width must be at
    least 1."""
    for name, width in (("d_model", d_model), ("d_ff", d_ff)):
        if width < 1:
            raise ContractViolationError(f"fusion {name} {width} is below 1")
    d = d_model
    return {"w_share": (d, d),
            "wq_s": (d, d), "wk_s": (d, d), "wv_s": (d, d),
            "wq_c": (d, d), "wk_c": (d, d), "wv_c": (d, d),
            "w_f": (3 * d, d_ff), "b_f": (1, d_ff), "w_o": (d_ff, d), "b_o": (1, d),
            "ln_gain": (1, d), "ln_bias": (1, d)}


PARAM_NAMES = tuple(param_shapes(1, 1))  # checkpoint tensor names, in container order
# the parameters that get gradients: w_share is read only by the discrete top-T choice
TRAINED_NAMES = tuple(name for name in PARAM_NAMES if name != "w_share")


@dataclass
class KnowledgeStream:
    """A seq_len x d_model block of token states from one knowledge source."""
    tokens: Array
    origin: str

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
            raise ContractViolationError(
                f"stream must be a non-empty 2-d matrix, got shape {self.tokens.shape}")
        if not np.all(np.isfinite(self.tokens)):
            raise ContractViolationError("stream contains non-finite entries")
        if self.origin not in STREAM_ORIGINS:
            raise ContractViolationError(f"origin must be one of {STREAM_ORIGINS}")

    @property
    def seq_len(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def d_model(self) -> int:
        return int(self.tokens.shape[1])


def _array(x, what: str) -> Array:
    """A Tensor, KnowledgeStream or array-like as a 2-d float64 array.  Nothing here
    passes an adjoint to its inputs, so a taped Tensor is refused."""
    if isinstance(x, Tensor):
        if x.tape is not None:
            raise ContractViolationError(
                f"taped {what}: fusion gives adjoints to its parameters only")
        return x.value
    if isinstance(x, KnowledgeStream):
        return x.tokens
    return as_matrix(x)


@dataclass
class DsspParams:
    """Fusion-module weights; every matrix is row-convention (out = X @ W)."""
    w_share: Array
    wq_s: Array
    wk_s: Array
    wv_s: Array
    wq_c: Array
    wk_c: Array
    wv_c: Array
    w_f: Array
    b_f: Array
    w_o: Array
    b_o: Array
    ln_gain: Array
    ln_bias: Array
    top_t: int = DEFAULT_TOP_T

    def __post_init__(self):
        for name in PARAM_NAMES:
            setattr(self, name, as_matrix(np.asarray(getattr(self, name), dtype=np.float64)))
        for name, shape in param_shapes(self.w_share.shape[0], self.w_f.shape[1]).items():
            if getattr(self, name).shape != shape:
                raise ContractViolationError(
                    f"{name} must have shape {shape}, got {getattr(self, name).shape}")
        # a checkpoint stores top_t as a float64, which holds every integer up to 2**53
        if not 1 <= read_field(vars(self), "top_t", int) <= 2**53:
            raise ContractViolationError("top_t must lie in 1..2**53")

    @property
    def d_model(self) -> int:
        return int(self.w_share.shape[0])

    @property
    def d_ff(self) -> int:
        return int(self.w_f.shape[1])

    @property
    def d_k(self) -> int:
        return self.d_model

    @classmethod
    def init_random(cls, d_model: int, d_ff: int | None = None,
                    top_t: int = DEFAULT_TOP_T, seed: int = 0) -> "DsspParams":
        d_ff = 2 * d_model if d_ff is None else d_ff
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, shape in param_shapes(d_model, d_ff).items():
            if name == "ln_gain":
                arrays[name] = np.ones(shape)
            elif name.startswith("b_") or name.endswith("bias"):
                arrays[name] = np.zeros(shape)
            else:
                arrays[name] = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
        return cls(top_t=top_t, **arrays)

    def to_arrays(self) -> dict[str, Array]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def leaves(self, tape: GradTape) -> dict[str, Tensor]:
        """Taped parameter leaves for training; keyed by checkpoint name."""
        return {name: Tensor(getattr(self, name), tape) for name in PARAM_NAMES}

    def apply_updates(self, grads: dict[str, Array], lr: float) -> None:
        """In-place SGD step: p <- p - lr * grad for every named gradient."""
        for name, g in grads.items():
            if name not in PARAM_NAMES:
                raise ContractViolationError(f"unknown parameter {name!r}")
            cur = getattr(self, name)
            if g.shape != cur.shape:
                raise ContractViolationError(f"gradient shape mismatch for {name}")
            setattr(self, name, cur - lr * g)

    def copy(self) -> "DsspParams":
        arrays = {name: getattr(self, name).copy() for name in PARAM_NAMES}
        return DsspParams(top_t=self.top_t, **arrays)


def save_dssp_params(path, params: DsspParams) -> None:
    """Write the parameters and ``top_t`` as float64, the bits ``checkpoint_id`` hashes."""
    tensors = dict(params.to_arrays())
    tensors["top_t"] = np.array([[float(params.top_t)]])
    save_tensors(path, tensors, dtype="f64")


def load_dssp_params(path) -> DsspParams:
    """Load a fusion checkpoint: exactly the finite tensors of ``param_shapes`` for the
    stored ``w_share`` and ``w_f`` widths, plus a (1, 1) integer ``top_t``."""
    tensors = load_tensors(path)
    # a missing tensor is reported by name, not as a zero width
    width = lambda name, axis: tensors[name].shape[axis] if name in tensors else 1
    expect_tensors(tensors, {**param_shapes(width("w_share", 0), width("w_f", 1)),
                             "top_t": (1, 1)}, "fusion checkpoint")
    top_t = tensors.pop("top_t")[0, 0]
    if top_t != int(top_t):
        raise ContractViolationError(f"fusion checkpoint top_t {top_t} is not an integer")
    return DsspParams(top_t=int(top_t), **tensors)


# ---------------------------------------------------------------------------
# attention primitives (single-head, no causal mask, no positions)
# ---------------------------------------------------------------------------
#
# Plain numpy, on the host's attention kernel and its adjoint, ``autodiff.attend``
# and ``attention_vjp``: each repeats the arithmetic of its counterpart taped op
# by op (kept in the tests as the oracle), so the two agree bit for bit.

def shared_similarity(internal, external, w_share, d_k: int | None = None) -> Tensor:
    """Row-stochastic |I| x |D-hat| similarity, both streams projected by w_share."""
    x, y = _array(internal, "internal stream"), _array(external, "external stream")
    w = _array(w_share, "w_share")
    if x.shape[1] != w.shape[0] or y.shape[1] != w.shape[0]:
        raise ContractViolationError("stream width does not match w_share")
    return Tensor(ad.attend(x, y, w, w, None, w.shape[0] if d_k is None else d_k)[1][2])


def shared_rows(internal, external, w_share, top_t: int) -> Array:
    """The external rows the shared branch attends to: the top-T by the column mass of
    the streams' ``shared_similarity``, in score order.

    Ties go to the lowest index; T >= |D-hat| selects everything.  The
    choice is discrete, so no gradient reaches the similarity through it.
    """
    y = _array(external, "external stream")
    mass = shared_similarity(internal, y, w_share).value.sum(axis=0)
    return y[np.argsort(-mass, kind="stable")[:int(top_t)]]


def cross_attention(queries, keys_values, wq, wk, wv) -> Array:
    """softmax(QK^T / sqrt(d_k)) V with queries from one stream, keys/values from the
    other; d_k is the query projection's input width."""
    x, y = _array(queries, "queries"), _array(keys_values, "keys/values")
    wq, wk, wv = (_array(w, "attention weight") for w in (wq, wk, wv))
    if (x.shape[1] != wq.shape[0] or y.shape[1] != wk.shape[0] or y.shape[1] != wv.shape[0]
            or wq.shape[1] != wk.shape[1]):
        raise ContractViolationError("stream width does not match attention weights")
    return ad.attend(x, y, wq, wk, wv, wq.shape[0])[0]


def self_attention(stream, wq, wk, wv) -> Array:
    return cross_attention(stream, stream, wq, wk, wv)


def differential_attention(stream_x, stream_y, s_triple, c_triple) -> Array:
    """Self-attention of X minus cross-attention of X onto Y (private residue of X)."""
    return self_attention(stream_x, *s_triple) - cross_attention(stream_x, stream_y, *c_triple)


# ---------------------------------------------------------------------------
# full fusion pass: one tape record
# ---------------------------------------------------------------------------

def _param_values(params: DsspParams, leaves: dict[str, Tensor] | None) -> dict[str, Array]:
    if leaves is None:
        return params.to_arrays()
    missing = [n for n in PARAM_NAMES if n not in leaves]
    if missing:
        raise ContractViolationError(f"leaves missing parameters: {missing}")
    return {name: leaves[name].value for name in PARAM_NAMES}


def dssp_update(internal, external, params: DsspParams,
                leaves: dict[str, Tensor] | None = None, *,
                shared: Array | None = None) -> Tensor:
    """The fusion increment U-hat (everything but the final residual add).

    ``shared`` holds the external rows the shared branch attends to, when the
    caller has them from ``shared_rows``; otherwise they are chosen here.
    Plain numpy: with taped ``leaves``, U-hat is one record on their tape, on
    every leaf but ``w_share``, which only the discrete top-T choice reads,
    and its adjoint is ``_update_vjp``.  The streams are constants, so a taped
    one is refused.
    """
    x, y = _array(internal, "internal stream"), _array(external, "external stream")
    p = _param_values(params, leaves)
    if x.shape[1] != params.d_model or y.shape[1] != params.d_model:
        raise ContractViolationError("stream width does not match the fusion parameters")
    if shared is None:
        shared = shared_rows(x, y, p["w_share"], params.top_t)
    s = (p["wq_s"], p["wk_s"], p["wv_s"])
    c = (p["wq_c"], p["wk_c"], p["wv_c"])
    xq = x @ p["wq_c"]      # the internal stream's queries, in each of its three cross attentions
    enh, enh_saved = ad.attend(x, shared, *c, params.d_k, q=xq)
    sx, sx_saved = ad.attend(x, x, *s, params.d_k)
    cxy, cxy_saved = ad.attend(x, y, *c, params.d_k, q=xq)
    sy, sy_saved = ad.attend(y, y, *s, params.d_k)
    cyx, cyx_saved = ad.attend(y, x, *c, params.d_k)
    # the external private residue has length |D-hat|; re-query it with the
    # internal stream so all three branches align to |I| before fusion
    residue = sy - cyx
    ext, ext_saved = ad.attend(x, residue, *c, params.d_k, q=xq)

    u = np.hstack([enh, sx - cxy, ext])
    pre_relu = u @ p["w_f"] + p["b_f"]
    relu = pre_relu > 0.0
    h = pre_relu * relu
    xhat, inv = ad.normalize(h @ p["w_o"] + p["b_o"])
    out = xhat * p["ln_gain"] + p["ln_bias"]

    inputs = () if leaves is None else tuple(leaves[name] for name in TRAINED_NAMES)
    acts = (x, y, shared, residue, enh_saved, sx_saved, cxy_saved, sy_saved, cyx_saved,
            ext_saved, u, relu, h, xhat, inv)
    return ad.emit(out, inputs, functools.partial(_update_vjp, p, acts))


def _update_vjp(p: dict[str, Array], acts: tuple, g: Array) -> tuple[Array, ...]:
    """The adjoints of the ``TRAINED_NAMES`` leaves, in that order, given ``g``, U-hat's.

    ``backward`` over the block taped op by op, streams constant, gives the
    same bits: this replays its adjoints in its pop order, last op first.  A
    leaf used more than once sums its contributions in that order; for the
    cross-attention weights: the internal stream attending to the external
    residue, the residue's self-attention stream attending to the internal
    one, the internal stream attending to the external one, and the
    shared-token enhance.  The residue, read as values and as keys, sums its
    V adjoint, then its K.  ``x @ wq_c`` is one product in the forward, but
    its weight adjoint stays three products, one per use: a single product of
    the summed query adjoints would round differently.
    """
    x, y, shared, residue, enh, sx, cxy, sy, cyx, ext, u, relu, h, xhat, inv = acts
    d_ln_gain = (g * xhat).sum(axis=0, keepdims=True)
    d_ln_bias = g.sum(axis=0, keepdims=True)
    g = ad.normalize_vjp(g * p["ln_gain"], xhat, inv)
    d_b_o, d_w_o = ad.unbroadcast(g, p["b_o"].shape), h.T @ g
    g = (g @ p["w_o"].T) * relu
    d_b_f, d_w_f = ad.unbroadcast(g, p["b_f"].shape), u.T @ g
    g_enh, g_int, g_ext = np.hsplit(g @ p["w_f"].T, 3)

    q_xr, k_xr, v_xr = ad.attention_vjp(g_ext, *ext)
    g_res = v_xr @ p["wv_c"].T + k_xr @ p["wk_c"].T
    q_yx, k_yx, v_yx = ad.attention_vjp(-g_res, *cyx)
    q_yy, k_yy, v_yy = ad.attention_vjp(g_res, *sy)
    q_xy, k_xy, v_xy = ad.attention_vjp(-g_int, *cxy)
    q_xx, k_xx, v_xx = ad.attention_vjp(g_int, *sx)
    q_sh, k_sh, v_sh = ad.attention_vjp(g_enh, *enh)
    return (y.T @ q_yy + x.T @ q_xx,
            y.T @ k_yy + x.T @ k_xx,
            y.T @ v_yy + x.T @ v_xx,
            x.T @ q_xr + y.T @ q_yx + x.T @ q_xy + x.T @ q_sh,
            residue.T @ k_xr + x.T @ k_yx + y.T @ k_xy + shared.T @ k_sh,
            residue.T @ v_xr + x.T @ v_yx + y.T @ v_xy + shared.T @ v_sh,
            d_w_f, d_b_f, d_w_o, d_b_o, d_ln_gain, d_ln_bias)


def dssp_forward(internal, external, params: DsspParams,
                 leaves: dict[str, Tensor] | None = None) -> Tensor:
    """Residual fusion: internal stream plus the mixed-attention update."""
    x = Tensor(_array(internal, "internal stream"))
    return ad.add(x, dssp_update(x, external, params, leaves))


def make_dssp_hook(external, params: DsspParams):
    """Adapter for the host model's fusion hook.

    The host block adds the hook's return value to the residual stream, so
    the hook returns just the update's array; the residual add in
    dssp_forward is supplied by the block itself.
    """
    ext = _array(external, "external stream")

    def hook(xn: Array) -> Array:
        return dssp_update(xn, ext, params).value

    return hook
