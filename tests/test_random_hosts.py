"""Fast paths against the host taped op by op (``taped_forward``), on random hosts.

Each test draws host shapes the planted fixture does not have, at a fixed
seed and with a bounded number of examples, and compares with
``np.array_equal``: a fast path must round exactly as the oracle does.
"""
import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dualstream import autodiff as ad
from dualstream.autodiff import GradTape, Tensor
from dualstream.fusion import PARAM_NAMES, DsspParams, make_dssp_hook
from dualstream.model import ForwardOptions, ModelConfig, TinyTransformer, embed, forward, infer
from taped_host import taped_forward


@st.composite
def hooked_hosts(draw):
    """A random host, tokens, a hook layer, a resume layer at or below it, and a seed."""
    n_layers, n_heads = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    d_model = n_heads * draw(st.integers(1, 16))
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, d_model=d_model,
                         d_ff=draw(st.integers(1, 12)), vocab_size=11, max_seq=16,
                         seed=draw(st.integers(0, 2**16)))
    tokens = draw(st.lists(st.integers(0, 10), min_size=1, max_size=16))
    hook = draw(st.integers(0, n_layers - 1))
    return TinyTransformer.random(config), tokens, hook, draw(st.integers(0, hook)), config.seed


def hooked_pass(model, tokens, hook, resume, params, dhat, probe, oracle=None):
    """A fused pass and the fusion-leaf gradients of its logits weighted by ``probe``:
    ``forward``, or with ``oracle`` "constant" or "taped" the oracle ``taped_forward``
    with the host weights constant or taped."""
    tape = GradTape()
    leaves = params.leaves(tape)
    opts = ForwardOptions(dssp_layer=hook, dssp_hook=make_dssp_hook(dhat, params, leaves))
    if oracle is None:
        trace = forward(model, tokens, opts, resume=resume)
    else:
        host = {n: Tensor(a, tape) for n, a in model.weights.items()} if oracle == "taped" else None
        trace = taped_forward(model, tokens, opts, weight_tensors=host, resume=resume)
    grads = ad.backward(tape, ad.sum_all(ad.mul(trace.logits_node, Tensor(probe))))
    return trace, [grads.get(leaves[n]) for n in PARAM_NAMES]


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(hooked_hosts())
def test_forward_equals_the_taped_host_on_random_hosts(case):
    """The frozen tail's one record gives the logits, hidden states, attention patterns
    and fusion-leaf gradients of the host taped op by op, weights constant or taped."""
    model, tokens, hook, start, rng_seed = case
    cfg = model.config
    rng = np.random.default_rng(rng_seed)
    params = DsspParams.init_random(cfg.d_model, d_ff=5, top_t=2, seed=rng_seed)
    dhat = rng.normal(size=(int(rng.integers(1, 5)), cfg.d_model))
    probe = rng.normal(size=(len(tokens), cfg.vocab_size))   # an adjoint at every position
    resume = (start, ([embed(model, tokens)] + infer(model, tokens).hidden)[start])
    args = (model, tokens, hook, resume, params, dhat, probe)
    trace, grads = hooked_pass(*args)
    for oracle in ("constant", "taped"):
        ref, ref_grads = hooked_pass(*args, oracle=oracle)
        assert np.array_equal(trace.logits, ref.logits)
        for got, want in zip(trace.hidden + trace.attention, ref.hidden + ref.attention,
                             strict=True):
            assert np.array_equal(got, want)
        for name, got, want in zip(PARAM_NAMES, grads, ref_grads):
            assert (got is None) == (want is None), name
            assert got is None or np.array_equal(got, want), name
