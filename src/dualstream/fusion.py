"""Shared/private mixed-attention fusion between two knowledge streams.

Internal hidden states I and a filtered external stream D-hat are compared
through a shared projection; the top-T most similar external tokens are
cross-attended into I, while differential attention (self minus cross)
isolates what each stream says that the other does not.  The three |I|-length
streams are concatenated feature-wise, mixed by a two-layer MLP, normalized,
and added back onto I.  Everything here is a pure function of (streams,
params) and differentiable end to end when the params are supplied as taped
leaves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, as_matrix
from .errors import ContractViolationError
from .tensorstore import expect_tensors, load_tensors, save_tensors

Array = np.ndarray

DEFAULT_TOP_T = 10

STREAM_ORIGINS = ("internal", "external")


def param_shapes(d_model: int, d_ff: int) -> dict[str, tuple[int, int]]:
    """Name and shape of every fusion tensor, in checkpoint order."""
    d = d_model
    return {"w_share": (d, d),
            "wq_s": (d, d), "wk_s": (d, d), "wv_s": (d, d),
            "wq_c": (d, d), "wk_c": (d, d), "wv_c": (d, d),
            "w_f": (3 * d, d_ff), "b_f": (1, d_ff), "w_o": (d_ff, d), "b_o": (1, d),
            "ln_gain": (1, d), "ln_bias": (1, d)}


PARAM_NAMES = tuple(param_shapes(1, 1))  # checkpoint tensor names, in container order


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


def _t(x) -> Tensor:
    """Accept Tensor / KnowledgeStream / array-like; return a Tensor."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, KnowledgeStream):
        return Tensor(x.tokens)
    return Tensor(as_matrix(np.asarray(x, dtype=np.float64)))


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
        if self.top_t < 1:
            raise ContractViolationError("top_t must be >= 1")

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


def save_dssp_params(path, params: DsspParams, dtype: str = "f64") -> None:
    tensors = dict(params.to_arrays())
    tensors["top_t"] = np.array([[float(params.top_t)]])
    save_tensors(path, tensors, dtype=dtype)


def load_dssp_params(path) -> DsspParams:
    """Load a fusion checkpoint: exactly the finite tensors of ``param_shapes`` for the
    stored ``w_share`` and ``w_f`` widths, plus a (1, 1) integer ``top_t``."""
    tensors = load_tensors(path)
    width = lambda name, axis: tensors[name].shape[axis] if name in tensors else 0
    expect_tensors(tensors, {**param_shapes(width("w_share", 0), width("w_f", 1)),
                             "top_t": (1, 1)}, "fusion checkpoint")
    top_t = tensors.pop("top_t")[0, 0]
    if top_t != int(top_t):
        raise ContractViolationError(f"fusion checkpoint top_t {top_t} is not an integer")
    return DsspParams(top_t=int(top_t), **tensors)


# ---------------------------------------------------------------------------
# attention primitives (single-head, no causal mask, no positions)
# ---------------------------------------------------------------------------

def shared_similarity(internal, external, w_share, d_k: int | None = None) -> Tensor:
    """Row-stochastic |I| x |D-hat| similarity, both streams projected by w_share."""
    x, y, w = _t(internal), _t(external), _t(w_share)
    if x.value.shape[1] != w.value.shape[0] or y.value.shape[1] != w.value.shape[0]:
        raise ContractViolationError("stream width does not match w_share")
    dk = w.value.shape[0] if d_k is None else int(d_k)
    logits = ad.matmul(ad.matmul(x, w), ad.transpose(ad.matmul(y, w)))
    return ad.softmax_rows(logits, 1.0 / math.sqrt(dk))


def shared_token_scores(sim) -> Array:
    """Column mass: how much total similarity each external token receives."""
    return np.asarray(_t(sim).value.sum(axis=0), dtype=np.float64)


def select_shared_tokens(sim, external, top_t: int = DEFAULT_TOP_T) -> Tensor:
    """Rows of the external stream with the top-T column mass, in score order.

    Ties go to the lowest index; T >= |D-hat| selects everything.  Selection
    indices are computed from similarity values (the ordering itself is not
    differentiated); gradients flow through the selected rows.
    """
    if top_t < 1:
        raise ContractViolationError("top_t must be >= 1")
    y = _t(external)
    scores = shared_token_scores(sim)
    if scores.size != y.value.shape[0]:
        raise ContractViolationError("similarity columns do not match external tokens")
    k = min(int(top_t), scores.size)
    order = np.argsort(-scores, kind="stable")[:k]
    return ad.take_rows(y, [int(i) for i in order])


def cross_attention(queries, keys_values, wq, wk, wv) -> Tensor:
    """softmax(QK^T / sqrt(d_k)) V with queries from one stream, keys/values from the
    other; d_k is the query projection's input width."""
    x, y = _t(queries), _t(keys_values)
    wq_t, wk_t, wv_t = _t(wq), _t(wk), _t(wv)
    if x.value.shape[1] != wq_t.value.shape[0] or y.value.shape[1] != wk_t.value.shape[0]:
        raise ContractViolationError("stream width does not match attention weights")
    attn = ad.softmax_rows(
        ad.matmul(ad.matmul(x, wq_t), ad.transpose(ad.matmul(y, wk_t))),
        1.0 / math.sqrt(wq_t.value.shape[0]))
    return ad.matmul(attn, ad.matmul(y, wv_t))


def self_attention(stream, wq, wk, wv) -> Tensor:
    return cross_attention(stream, stream, wq, wk, wv)


def differential_attention(stream_x, stream_y, s_triple, c_triple) -> Tensor:
    """Self-attention of X minus cross-attention of X onto Y (private residue of X)."""
    return ad.sub(self_attention(stream_x, *s_triple),
                  cross_attention(stream_x, stream_y, *c_triple))


# ---------------------------------------------------------------------------
# full fusion pass
# ---------------------------------------------------------------------------

def _param_tensors(params: DsspParams, leaves: dict[str, Tensor] | None) -> dict[str, Tensor]:
    if leaves is None:
        return {name: Tensor(getattr(params, name)) for name in PARAM_NAMES}
    missing = [n for n in PARAM_NAMES if n not in leaves]
    if missing:
        raise ContractViolationError(f"leaves missing parameters: {missing}")
    return leaves


def dssp_update(internal, external, params: DsspParams,
                leaves: dict[str, Tensor] | None = None) -> Tensor:
    """The fusion increment U-hat (everything but the final residual add)."""
    p = _param_tensors(params, leaves)
    x, y = _t(internal), _t(external)
    s_triple = (p["wq_s"], p["wk_s"], p["wv_s"])
    c_triple = (p["wq_c"], p["wk_c"], p["wv_c"])

    # only the discrete top-T choice reads the similarity, so no gradient can
    # reach it: it runs on the values, off the tape
    sim = shared_similarity(x.value, y.value, p["w_share"].value)
    u_share = select_shared_tokens(sim, y, params.top_t)
    u_enhance = cross_attention(x, u_share, *c_triple)
    u_priv_int = differential_attention(x, y, s_triple, c_triple)
    # the external private residue has length |D-hat|; re-query it with the
    # internal stream so all three branches align to |I| before fusion
    u_priv_ext = cross_attention(x, differential_attention(y, x, s_triple, c_triple), *c_triple)

    u = ad.concat_cols([u_enhance, u_priv_int, u_priv_ext])
    h = ad.relu(ad.add(ad.matmul(u, p["w_f"]), p["b_f"]))
    pre_norm = ad.add(ad.matmul(h, p["w_o"]), p["b_o"])
    return ad.layer_norm(pre_norm, p["ln_gain"], p["ln_bias"])


def dssp_forward(internal, external, params: DsspParams,
                 leaves: dict[str, Tensor] | None = None) -> Tensor:
    """Residual fusion: internal stream plus the mixed-attention update."""
    x = _t(internal)
    return ad.add(x, dssp_update(x, external, params, leaves))


def make_dssp_hook(external, params: DsspParams,
                   leaves: dict[str, Tensor] | None = None):
    """Adapter for the host model's fusion hook.

    The host block adds the hook's return value to the residual stream, so
    the hook returns just the update; the residual add in dssp_forward is
    supplied by the block itself.
    """
    ext = _t(external)

    def hook(xn: Tensor) -> Tensor:
        return dssp_update(xn, ext, params, leaves)

    return hook
