"""The fusion block taped op by op: the oracle of ``fusion.dssp_update``.

``dssp_update`` here is the fusion increment as it was before it became one
tape record: every primitive op of the shared cross-attention, the two
differential-attention branches, the MLP and the final norm is a record of
its own.  ``fusion.dssp_update`` must give its output and, under any
upstream adjoint, every leaf gradient bit for bit.  Its streams may be
taped, so it also serves as the fusion hook of the host taped with its
weights (``taped_host.taped_forward``).
"""
from __future__ import annotations

import math

import numpy as np

from dualstream import autodiff as ad
from dualstream.autodiff import Tensor, as_matrix
from dualstream.fusion import PARAM_NAMES, KnowledgeStream
from taped_kernels import concat_cols, matmul, relu, transpose


def _t(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, KnowledgeStream):
        return Tensor(x.tokens)
    return Tensor(as_matrix(x))


def cross_attention(queries, keys_values, wq, wk, wv) -> Tensor:
    x, y = _t(queries), _t(keys_values)
    attn = ad.softmax_rows(
        matmul(matmul(x, wq), transpose(matmul(y, wk))),
        1.0 / math.sqrt(wq.value.shape[0]))
    return matmul(attn, matmul(y, wv))


def differential_attention(stream_x, stream_y, s_triple, c_triple) -> Tensor:
    return ad.sub(cross_attention(stream_x, stream_x, *s_triple),
                  cross_attention(stream_x, stream_y, *c_triple))


def select_shared_tokens(x: Tensor, y: Tensor, w_share: np.ndarray, top_t: int) -> Tensor:
    """The rows of ``y`` with the top-T column mass of the shared similarity, in score
    order; the similarity runs on the values, off the tape."""
    w = Tensor(w_share)
    logits = matmul(matmul(Tensor(x.value), w), transpose(matmul(Tensor(y.value), w)))
    sim = ad.softmax_rows(logits, 1.0 / math.sqrt(w_share.shape[0])).value
    order = np.argsort(-sim.sum(axis=0), kind="stable")[:min(int(top_t), sim.shape[1])]
    return ad.take_rows(y, [int(i) for i in order])


def dssp_update(internal, external, params, leaves=None) -> Tensor:
    """The fusion increment U-hat, one tape record per primitive op."""
    p = leaves if leaves is not None else {n: Tensor(getattr(params, n)) for n in PARAM_NAMES}
    x, y = _t(internal), _t(external)
    s_triple = (p["wq_s"], p["wk_s"], p["wv_s"])
    c_triple = (p["wq_c"], p["wk_c"], p["wv_c"])

    u_share = select_shared_tokens(x, y, p["w_share"].value, params.top_t)
    u_enhance = cross_attention(x, u_share, *c_triple)
    u_priv_int = differential_attention(x, y, s_triple, c_triple)
    u_priv_ext = cross_attention(x, differential_attention(y, x, s_triple, c_triple), *c_triple)

    u = concat_cols([u_enhance, u_priv_int, u_priv_ext])
    h = relu(ad.add(matmul(u, p["w_f"]), p["b_f"]))
    pre_norm = ad.add(matmul(h, p["w_o"]), p["b_o"])
    return ad.layer_norm(pre_norm, p["ln_gain"], p["ln_bias"])


def make_dssp_hook(external, params, leaves=None):
    """The host's fusion hook on this oracle: it returns the update for its stream."""
    ext = _t(external)
    return lambda xn: dssp_update(xn, ext, params, leaves)
