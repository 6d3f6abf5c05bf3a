"""Fast paths against the host and the fusion block taped op by op (``taped_host``,
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
from dualstream import model as host_model
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
from dualstream.model import (
    ForwardOptions,
    ModelConfig,
    embed,
    forward,
    fused_input,
    fused_logits,
    infer,
    layer_norm,
    logit_lens,
)
from random_host import random_host
import taped_fusion
from taped_host import taped_forward, taped_logits
from test_infer import assert_sweep_matches_hosts_without_each_layer, without_layer


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
    return random_host(config), tokens, hook, draw(st.integers(0, hook)), config.seed


def hooked_pass(model, tokens, hook, resume, params, dhat, probe, oracle=None):
    """The logits of a fused pass and the fusion-leaf gradients of their sum weighted by
    ``probe``: ``fused_logits``, whose ``resume`` is at the hook layer, or with ``oracle``
    "constant" or "taped" the oracle ``taped_logits`` with the host weights constant or
    taped, and the fusion block taped op by op."""
    tape = GradTape()
    leaves = params.leaves(tape)
    if oracle is None:
        logits = fused_logits(model, tokens, resume,
                              lambda xn: dssp_update(xn, dhat, params, leaves))
    else:
        host = {n: Tensor(a, tape) for n, a in model.weights.items()} if oracle == "taped" else None
        _, logits = taped_logits(model, tokens, hook,
                                 taped_fusion.make_dssp_hook(dhat, params, leaves), host, resume)
    grads = ad.backward(tape, ad.sum_all(ad.mul(logits, Tensor(probe))))
    return logits.value, [grads.get(leaves[n]) for n in PARAM_NAMES]


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(hooked_hosts())
def test_forward_equals_the_taped_host_on_random_hosts(case):
    """At every hook layer, 0 included: the fusion block's and the frozen tail's one record
    each (``fused_logits``) give the logits and fusion-leaf gradients of the block and
    the host taped op by op, host weights constant or taped, resumed at or below the
    hook; and ``forward`` with the array hook gives the oracle's logits, hidden states and
    attention patterns."""
    model, tokens, hook, start, rng_seed = case
    cfg = model.config
    rng = np.random.default_rng(rng_seed)
    params = DsspParams.init_random(cfg.d_model, d_ff=5, top_t=2, seed=rng_seed)
    dhat = rng.normal(size=(int(rng.integers(1, 5)), cfg.d_model))
    probe = rng.normal(size=(len(tokens), cfg.vocab_size))   # an adjoint at every position
    states = [embed(model, tokens)] + infer(model, tokens).hidden
    resume = (start, states[start])
    args = (model, tokens, hook)
    logits, grads = hooked_pass(*args, (hook, states[hook]), params, dhat, probe)
    for oracle in ("constant", "taped"):
        ref_logits, ref_grads = hooked_pass(*args, resume, params, dhat, probe, oracle)
        assert np.array_equal(logits, ref_logits)
        for name, got, want in zip(PARAM_NAMES, grads, ref_grads):
            assert (got is None) == (want is None), name
            assert got is None or np.array_equal(got, want), name
    opts = ForwardOptions(hook, make_dssp_hook(dhat, params))
    trace = forward(model, tokens, opts, resume=resume)
    ref = taped_forward(model, tokens, opts, resume=resume)
    assert np.array_equal(trace.logits, logits) and np.array_equal(ref.logits, logits)
    for got, want in zip(trace.hidden + trace.attention, ref.hidden + ref.attention, strict=True):
        assert np.array_equal(got, want)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(hooked_hosts(), st.data())
def test_a_hook_receives_the_fused_input_of_the_stream_entering_its_layer(case, data):
    """At every layer the fused block may enter, a hook is handed exactly ``fused_input``
    of the stream entering its layer, and an evidence span's rows of it are
    ``fused_input`` of that span's rows; layers 0 and ``n_layers`` are refused."""
    model, tokens, _, _, host_seed = case
    n_layers = model.config.n_layers
    rng = np.random.default_rng(host_seed)
    for name in model.weights:    # a random host's norms are the identity; these are not
        if ".ln1." in name:
            mean = 1.0 if name.endswith("gain") else 0.0
            model.weights[name] = rng.normal(mean, 0.5, (1, model.config.d_model))
    lo = data.draw(st.integers(0, len(tokens) - 1))
    hi = data.draw(st.integers(lo + 1, len(tokens)))
    for k in range(1, n_layers):
        seen = []
        trace = infer(model, tokens, ForwardOptions(k, lambda xn: seen.append(xn.copy()) or xn))
        assert np.array_equal(seen[0], fused_input(model, k, trace.hidden[k - 1]))
        assert np.array_equal(seen[0][lo:hi], fused_input(model, k, trace.hidden[k - 1][lo:hi]))
    for k in (0, n_layers):
        with pytest.raises(ContractViolationError,
                           match=rf"insertion layer {k} outside 1\.\.{n_layers - 1}$"):
            fused_input(model, k, infer(model, tokens).hidden[0])


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
    return random_host(config), rows, start, stop, hook, config.seed


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


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None)
@given(batched_hosts())
def test_a_stacked_logit_lens_equals_one_row_readouts_on_random_hosts(case):
    """``logit_lens`` of a batch's hidden states gives every layer and row the
    distribution of that row's last state read out alone, a ``(1, d)`` matmul,
    bit for bit."""
    model, rows = case[:2]
    w = model.weights
    hidden = infer(model, rows).hidden
    lens = logit_lens(model, hidden)
    assert lens.shape == (len(hidden), len(rows), model.config.vocab_size)
    for got, h in zip(lens, hidden, strict=True):
        for r, row in enumerate(h):
            last = layer_norm(row[-1:], w["lnf.gain"], w["lnf.bias"])
            assert np.array_equal(got[r], ad.row_softmax(last @ w["tok_emb"].T, 1.0)[0])


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


@st.composite
def split_batches(draw):
    """A random host, 2-20 token rows of one length, a resume layer, a stop layer at
    or above it or none, a hook layer between them or none, and a seed."""
    n_layers, n_heads = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads,
                         d_model=n_heads * draw(st.integers(1, 6)),
                         d_ff=draw(st.integers(1, 8)), vocab_size=11, max_seq=10,
                         seed=draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, 10), min_size=n, max_size=n),
                         min_size=2, max_size=20))
    start = draw(st.integers(0, n_layers))
    stop = draw(st.none() | st.integers(start, n_layers - 1)) if start < n_layers else None
    top = n_layers if stop is None else stop
    hook = draw(st.none() | st.integers(start, top - 1)) if start < top else None
    return random_host(config), rows, start, stop, hook, config.seed


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(split_batches())
def test_a_split_batch_equals_the_unsplit_pass_on_random_hosts(case):
    """A batch cut into one-row parts, run at once on worker threads and put back
    together, gives the hidden states, attention patterns and logits of the unsplit
    pass bit for bit: resumed or not, stopped early or not, each row with its own hook."""
    model, rows, start, stop, hook, rng_seed = case
    d = model.config.d_model
    rng = np.random.default_rng(rng_seed)
    states = np.stack([([embed(model, row)] + infer(model, row).hidden)[start] for row in rows])
    options = None
    if hook is not None:
        params = DsspParams.init_random(d, d_ff=5, top_t=2, seed=rng_seed)
        options = ForwardOptions(hook, [make_dssp_hook(rng.normal(size=(int(rng.integers(1, 5)), d)),
                                                       params) for _ in rows])
    resume = None if start == 0 else (start, states)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(host_model, "_workers", lambda: 0)
        whole = infer(model, rows, options, resume, stop)
        calls = []
        run_parts = host_model._run_parts
        mp.setattr(host_model, "_run_parts",
                   lambda run, parts, workers: calls.append(len(parts)) or run_parts(run, parts, workers))
        mp.setattr(host_model, "PART_ROWS", 1)
        mp.setattr(host_model, "_workers", lambda: 19)
        split = infer(model, rows, options, resume, stop)
    assert calls == [len(rows)]
    assert (split.logits is None) == (whole.logits is None) == (stop is not None)
    assert stop is not None or np.array_equal(split.logits, whole.logits)
    for a, b in zip(split.hidden + split.attention, whole.hidden + whole.attention, strict=True):
        assert np.array_equal(a, b)


@st.composite
def swept_hosts(draw):
    """A random host and 1-4 queries of each of one to three lengths, interleaved."""
    n_layers, n_heads = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads,
                         d_model=n_heads * draw(st.integers(1, 8)),
                         d_ff=draw(st.integers(1, 12)), vocab_size=11, max_seq=8,
                         seed=draw(st.integers(0, 2**16)))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    queries = [q for n in lengths
               for q in draw(st.lists(st.lists(st.integers(0, 10), min_size=n, max_size=n),
                                      min_size=1, max_size=4))]
    return random_host(config), draw(st.permutations(queries))


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(swept_hosts())
def test_the_pruning_sweep_equals_the_taped_per_query_sweep_on_random_hosts(case):
    """Every layer-removal run of the batched sweep, each a resume from the baseline's
    stream, gives the entropies of greedy taped decoding on hosts without that layer."""
    model, queries = case
    assert_sweep_matches_hosts_without_each_layer(
        model, queries, [without_layer(model, l) for l in range(model.config.n_layers)])
