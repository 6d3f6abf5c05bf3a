"""Fast paths against the host and the fusion block taped op by op (``taped_forward``,
``taped_fusion``), on random hosts and fusion shapes.

Each test draws shapes the planted fixture does not have, at a fixed seed and
with a bounded number of examples, and compares with ``np.array_equal``: a
fast path must round exactly as the oracle does.
"""
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dualstream import autodiff as ad
from dualstream.autodiff import GradTape, Tensor
from dualstream.errors import ContractViolationError
from dualstream.fusion import (
    PARAM_NAMES,
    TRAINED_NAMES,
    DsspParams,
    dssp_update,
    make_dssp_hook,
    param_shapes,
)
from dualstream.model import ForwardOptions, ModelConfig, TinyTransformer, embed, forward, infer
import taped_fusion
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
    with the host weights constant or taped, and the fusion block taped op by op."""
    tape = GradTape()
    leaves = params.leaves(tape)
    make_hook = make_dssp_hook if oracle is None else taped_fusion.make_dssp_hook
    opts = ForwardOptions(dssp_layer=hook, dssp_hook=make_hook(dhat, params, leaves))
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
    """The fusion block's and the frozen tail's one record each give the logits, hidden
    states, attention patterns and fusion-leaf gradients of the block and the host taped
    op by op, host weights constant or taped."""
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


@st.composite
def batched_hosts(draw):
    """A random host, 1-5 token rows of one length, a resume layer, a stop layer at
    or above it or none, and a hook layer between them or none, and a seed."""
    n_layers, n_heads = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads,
                         d_model=n_heads * draw(st.integers(1, 8)),
                         d_ff=draw(st.integers(1, 12)), vocab_size=11, max_seq=12,
                         seed=draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, 10), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    start = draw(st.integers(0, n_layers))
    stop = draw(st.none() | st.integers(start, n_layers - 1)) if start < n_layers else None
    top = n_layers if stop is None else stop
    hook = draw(st.none() | st.integers(start, top - 1)) if start < top else None
    return TinyTransformer.random(config), rows, start, stop, hook, config.seed


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None)
@given(batched_hosts())
def test_a_batch_equals_its_rows_run_alone_on_random_hosts(case):
    """A (B, n) ``infer`` gives each row the hidden states, attention patterns and
    logits of that row's own ``infer``, bit for bit: with each row resumed from its
    own state (from the embeddings when the resume layer is 0), stopped early or
    not, and each row's fusion hook fed its own evidence rows."""
    model, rows, start, stop, hook, rng_seed = case
    d = model.config.d_model
    rng = np.random.default_rng(rng_seed)
    states = [([embed(model, row)] + infer(model, row).hidden)[start] for row in rows]
    hooks = [None] * len(rows)
    if hook is not None:
        params = DsspParams.init_random(d, d_ff=5, top_t=2, seed=rng_seed)
        hooks = [make_dssp_hook(rng.normal(size=(int(rng.integers(1, 5)), d)), params)
                 for _ in rows]
    options = lambda h: None if hook is None else ForwardOptions(hook, h)
    resume = lambda s: None if start == 0 else (start, s)
    batch = infer(model, rows, options(hooks), resume(np.stack(states)), stop)
    for i, row in enumerate(rows):
        alone = infer(model, row, options(hooks[i]), resume(states[i]), stop)
        got = batch.row(i)
        assert (got.logits is None) == (alone.logits is None) == (stop is not None)
        assert stop is not None or np.array_equal(got.logits, alone.logits)
        for a, b in zip(got.hidden + got.attention, alone.hidden + alone.attention, strict=True):
            assert np.array_equal(a, b)
    if hook is not None and len(rows) > 1:
        with pytest.raises(ContractViolationError, match="hooks for a batch"):
            infer(model, rows, options(hooks[1:]), resume(np.stack(states)), stop)


@st.composite
def fusion_blocks(draw):
    """Fusion parameters of a random width, MLP width and top-T, all entries drawn, and
    internal and external streams of random lengths, as a seed for the values."""
    d_model, d_ff = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    top_t = draw(st.integers(1, 6))
    n_int, n_ext = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return d_model, d_ff, top_t, n_int, n_ext, draw(st.integers(0, 2**16))


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(fusion_blocks())
def test_the_fusion_record_equals_the_block_taped_op_by_op(case):
    """``dssp_update``'s one record gives the output and, under a random upstream adjoint,
    every leaf gradient of the block taped op by op; ``w_share`` gets none."""
    d_model, d_ff, top_t, n_int, n_ext, rng_seed = case
    rng = np.random.default_rng(rng_seed)
    params = DsspParams(top_t=top_t, **{name: rng.normal(size=shape)
                                        for name, shape in param_shapes(d_model, d_ff).items()})
    internal, external = rng.normal(size=(n_int, d_model)), rng.normal(size=(n_ext, d_model))
    probe = rng.normal(size=(n_int, d_model))
    results = []
    for update in (dssp_update, taped_fusion.dssp_update):
        tape = GradTape()
        leaves = params.leaves(tape)
        out = update(internal, external, params, leaves)
        grads = ad.backward(tape, ad.sum_all(ad.mul(out, Tensor(probe))))
        results.append((out.value, {n: grads.get(leaves[n]) for n in PARAM_NAMES}))
    (out, grads), (want, want_grads) = results
    assert np.array_equal(out, want)
    assert grads.pop("w_share") is None and want_grads.pop("w_share") is None
    for name in TRAINED_NAMES:
        assert np.array_equal(grads[name], want_grads[name]), name
