"""The host taped op by op: the oracle of the numpy host pass.

``taped_logits`` is the differentiable pass as it was before the frozen tail
became one tape record: every block from the resume layer up runs on the
kernels, so a taped fusion block's gradient reaches its leaves through one
record per primitive op.  ``model.infer`` and ``model.forward`` must give the
hidden states, attention patterns and logits of ``taped_forward``, its pass
with an array hook, and ``model.fused_logits`` its logits and fusion-leaf
gradients, bit for bit.
"""
from __future__ import annotations

import numpy as np

from dualstream import autodiff as ad
from dualstream.autodiff import Tensor
from dualstream.model import ForwardOptions, ForwardTrace, validate_tokens
from taped_kernels import concat_cols, matmul, relu, transpose


def taped_forward(model, tokens, options=None, weight_tensors=None, resume=None) -> ForwardTrace:
    """The trace of ``taped_logits`` with ``options``' hook, which, as ``model.infer``'s,
    maps the normed stream's array to an array: the hooked layer's output is a constant."""
    opts = options or ForwardOptions()
    hook = None if opts.dssp_hook is None else lambda xn: Tensor(opts.dssp_hook(xn.value))
    return taped_logits(model, tokens, opts.dssp_layer, hook, weight_tensors, resume)[0]


def taped_logits(model, tokens, layer=None, block=None, weight_tensors=None,
                 resume=None) -> tuple[ForwardTrace, Tensor]:
    """Run the decoder over ``tokens`` on the tape: the full trace, and the logits node.

    Layer ``layer``'s attention output is ``block(xn)``, ``xn`` that layer's
    normed stream as a Tensor.  Host weights enter as constants, so nothing
    is recorded unless ``block`` introduces a tape.  ``weight_tensors``
    replaces host weights by the given tensors, so a caller can tape them
    too.  ``resume=(k, h)`` starts at layer ``k`` from the constant residual
    stream ``h`` entering it, with a trace that starts at layer ``k`` too.
    """
    cfg = model.config
    opts = ForwardOptions(layer, block)
    opts.validate(cfg.n_layers)
    toks = validate_tokens(cfg, tokens)
    n = len(toks)

    def W(name: str) -> Tensor:
        if weight_tensors is not None and name in weight_tensors:
            return weight_tensors[name]
        return Tensor(model.weights[name])

    emb = W("tok_emb")
    start = 0
    if resume is None:
        x = ad.add(ad.take_rows(emb, toks), ad.take_rows(W("pos_emb"), list(range(n))))
    else:
        start, x = resume[0], Tensor(resume[1])
    mask = Tensor(np.triu(np.full((n, n), -np.inf), k=1))

    hidden, attention = [], []
    for l in range(start, cfg.n_layers):
        xn = ad.layer_norm(x, W(f"l{l}.ln1.gain"), W(f"l{l}.ln1.bias"))
        if opts.dssp_layer == l:
            attn_out = opts.dssp_hook(xn)
            attention.append(np.broadcast_to(np.eye(n), (cfg.n_heads, n, n)).copy())
        else:
            head_outs = []
            pattern = np.empty((cfg.n_heads, n, n))
            for h in range(cfg.n_heads):
                q = matmul(xn, W(f"l{l}.attn.wq.h{h}"))
                k = matmul(xn, W(f"l{l}.attn.wk.h{h}"))
                v = matmul(xn, W(f"l{l}.attn.wv.h{h}"))
                scores = ad.add(matmul(q, transpose(k)), mask)
                attn = ad.softmax_rows(scores, 1.0 / np.sqrt(cfg.d_head))
                pattern[h] = attn.value
                head_outs.append(matmul(attn, v))
            merged = head_outs[0] if cfg.n_heads == 1 else concat_cols(head_outs)
            attn_out = ad.add(matmul(merged, W(f"l{l}.attn.wo")), W(f"l{l}.attn.bo"))
            attention.append(pattern)
        x = ad.add(x, attn_out)
        yn = ad.layer_norm(x, W(f"l{l}.ln2.gain"), W(f"l{l}.ln2.bias"))
        h1 = relu(ad.add(matmul(yn, W(f"l{l}.ffn.w1")), W(f"l{l}.ffn.b1")))
        ffn_out = ad.add(matmul(h1, W(f"l{l}.ffn.w2")), W(f"l{l}.ffn.b2"))
        x = ad.add(x, ffn_out)
        hidden.append(x.value.copy())

    final = ad.layer_norm(x, W("lnf.gain"), W("lnf.bias"))
    logits = matmul(final, transpose(emb))
    return ForwardTrace(hidden=hidden, attention=attention, logits=logits.value.copy()), logits
