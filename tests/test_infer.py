"""The numpy host pass against the host taped op by op (``taped_forward``), bit for bit.

Every comparison uses ``np.array_equal``: the detector, the calibration sweep,
decoding and training all run on that pass, and their outputs are only
reproducible if it rounds exactly as the taped host does.  No BLAS or SIMD
settings are pinned.
"""
import os
import signal
import time
import warnings

import numpy as np
import pytest

from dualstream import autodiff as ad
from dualstream import model as host_model
from dualstream.autodiff import Tensor
from dualstream.divergence import semantic_entropy
from dualstream.errors import ContractViolationError
from dualstream.filtering import pruning_sweep
from dualstream.fixtures import (
    OFFSET_LAYER,
    build_copier_params,
    build_fixture_model,
    fixture_dataset,
)
from dualstream.fusion import make_dssp_hook
from dualstream.model import (
    ForwardOptions,
    ModelConfig,
    TinyTransformer,
    embed,
    forward,
    fused_input,
    generate,
    infer,
    layer_distributions,
    layer_norm,
    load_model,
    logit_lens,
    save_model,
)
from dualstream.pipeline import context_tokens, probe_questions, question_pairs
from random_host import random_host
from taped_host import taped_forward


@pytest.fixture(scope="module")
def host():
    return build_fixture_model()


@pytest.fixture(scope="module")
def cases(host):
    """(question, variant, context, evidence span) for all 64 fixture records."""
    model, layout = host
    records = fixture_dataset(noise_rate=1.0, seed=0)
    out = []
    for record, (question, variant) in zip(records,
                                           question_pairs(model, records, layout.vocab)):
        ctx = context_tokens(record, layout.vocab)
        out.append((question, variant, ctx, (len(record.question) + 1, len(ctx))))
    assert len(out) == 64
    return out


def without_layer(model, l):
    """A copy of ``model`` whose layer ``l`` adds nothing to the stream: the attention
    output projection and the second FFN matrix of that layer, and their biases, are zero."""
    weights = dict(model.weights)
    for name in ("attn.wo", "attn.bo", "ffn.w2", "ffn.b2"):
        weights[f"l{l}.{name}"] = np.zeros_like(weights[f"l{l}.{name}"])
    return TinyTransformer(model.config, weights)


@pytest.fixture(scope="module")
def hosts_without_layer(host):
    """``without_layer`` of the fixture host, for each of its layers."""
    model, _ = host
    return [without_layer(model, l) for l in range(model.config.n_layers)]


def assert_same(trace, ref, first_layer=0):
    """``trace`` equals ``ref`` from ``first_layer`` on, in every array."""
    assert np.array_equal(trace.logits, ref.logits)
    assert len(trace.hidden) == len(ref.hidden) - first_layer
    for got, want in zip(trace.hidden, ref.hidden[first_layer:]):
        assert np.array_equal(got, want)
    assert len(trace.attention) == len(ref.attention) - first_layer
    for got, want in zip(trace.attention, ref.attention[first_layer:]):
        assert np.array_equal(got, want)


def row(trace, i):
    return type(trace)([h[i] for h in trace.hidden], [a[i] for a in trace.attention],
                       trace.logits[i])


def test_plain(host, cases):
    model, _ = host
    for question, _, ctx, _ in cases:
        for tokens in (question, ctx):
            assert_same(infer(model, tokens), taped_forward(model, tokens))


def test_plain_on_a_host_loaded_from_f32(host, cases, tmp_path):
    save_model(host[0], tmp_path / "host.bin", dtype="f32")
    model, _ = load_model(tmp_path / "host.bin")
    for question, variant, ctx, _ in cases[:16]:
        assert_same(infer(model, ctx), taped_forward(model, ctx))
        pair = infer(model, [question, variant])
        assert_same(row(pair, 0), taped_forward(model, question))


def test_each_single_skipped_layer(host, hosts_without_layer, cases):
    """Removing layer l is a resume at l + 1 from the stream entering l; it equals
    the taped forward of the host whose layer l adds nothing, from layer l + 1 on."""
    model, _ = host
    for _, _, ctx, _ in cases:
        entering = [embed(model, ctx)] + taped_forward(model, ctx).hidden[:-1]
        for l, without in enumerate(hosts_without_layer):
            assert_same(infer(model, ctx, resume=(l + 1, entering[l])),
                        taped_forward(without, ctx), first_layer=l + 1)


def test_fusion_hook_at_the_offset_layer(host, cases):
    model, layout = host
    params = build_copier_params(layout)
    for _, _, ctx, span in cases:
        entering = taped_forward(model, ctx).hidden[OFFSET_LAYER - 1]
        dhat = fused_input(model, OFFSET_LAYER, entering[span[0]:span[1]])
        opts = ForwardOptions(dssp_layer=OFFSET_LAYER, dssp_hook=make_dssp_hook(dhat, params))
        ref = taped_forward(model, ctx, opts)
        assert_same(infer(model, ctx, opts), ref)
        assert_same(forward(model, ctx, opts), ref)


def test_question_and_variant_batch(host, cases):
    model, _ = host
    for question, variant, _, _ in cases:
        pair = infer(model, np.array([question, variant]))
        assert pair.logits.shape == (2, len(question), model.config.vocab_size)
        assert_same(row(pair, 0), taped_forward(model, question))
        assert_same(row(pair, 1), taped_forward(model, variant))


def test_resume_from_every_layer(host, cases):
    model, _ = host
    n_layers = model.config.n_layers
    for _, _, ctx, _ in cases:
        ref = taped_forward(model, ctx)
        for l in range(1, n_layers + 1):
            assert_same(infer(model, ctx, resume=(l, ref.hidden[l - 1])), ref, first_layer=l)


def test_resumed_batch(host, cases):
    """Each row of a batch resumed as the pruning sweep resumes it equals the
    single-row taped forward resumed from the same stream."""
    model, _ = host
    questions = [c[0] for c in cases[:16]]
    base = infer(model, questions)
    entering = [embed(model, questions)] + base.hidden[:-1]
    for l in range(model.config.n_layers):
        trace = infer(model, questions, resume=(l + 1, entering[l]))
        for i, question in enumerate(questions):
            assert_same(row(trace, i), taped_forward(model, question, resume=(l + 1, entering[l][i])))


def assert_prefix(stopped, full, first_layer, stop):
    """``stopped`` holds ``full``'s arrays for layers ``first_layer..stop - 1`` and
    ``full``'s attention of layer ``stop``, and no logits."""
    assert stopped.logits is None
    assert len(stopped.hidden) == stop - first_layer
    assert len(stopped.attention) == stop - first_layer + 1
    for got, want in zip(stopped.hidden, full.hidden[first_layer:]):
        assert np.array_equal(got, want)
    for got, want in zip(stopped.attention, full.attention[first_layer:]):
        assert np.array_equal(got, want)


def test_stopped_trace_is_the_prefix_of_the_full_one(host, cases):
    model, _ = host
    n_layers = model.config.n_layers
    contexts = [c[2] for c in cases]
    full_batch = infer(model, contexts)
    for stop in range(n_layers):
        assert_prefix(infer(model, contexts, stop=stop), full_batch, 0, stop)
    for ctx in contexts:
        full = infer(model, ctx)
        for stop in range(n_layers):
            assert_prefix(infer(model, ctx, stop=stop), full, 0, stop)
        for start in range(1, n_layers):
            for stop in range(start, n_layers):
                assert_prefix(infer(model, ctx, resume=(start, full.hidden[start - 1]), stop=stop),
                              full, start, stop)


def test_stopped_batch_resumes_like_the_full_one(host, cases):
    model, _ = host
    n_layers = model.config.n_layers
    contexts = [c[2] for c in cases]
    full = infer(model, contexts)
    for start in range(1, n_layers):
        for stop in range(start, n_layers):
            assert_prefix(infer(model, contexts, resume=(start, full.hidden[start - 1]), stop=stop),
                          full, start, stop)


def test_logit_lens_of_a_batch_equals_the_one_row_readout(host, cases):
    model, _ = host
    w = model.weights

    def one_row(h):
        return ad.row_softmax(layer_norm(h[-1:], w["lnf.gain"], w["lnf.bias"]) @ w["tok_emb"].T,
                              1.0).ravel()

    for question, variant, _, _ in cases:
        pair = infer(model, [question, variant])
        lens = logit_lens(model, pair.hidden)
        assert lens.shape == (model.config.n_layers, 2, model.config.vocab_size)
        for r in (0, 1):
            want = [one_row(h[r]) for h in pair.hidden]
            assert all(np.array_equal(got, ref) for got, ref in zip(lens[:, r], want))
            single = logit_lens(model, [h[r] for h in pair.hidden])
            assert all(np.array_equal(got, ref) for got, ref in zip(single, want))


def taped_generate(model, prompt, max_new_tokens, options=None):
    """Greedy decoding exactly as it ran on the taped forward."""
    seq = list(prompt)
    for _ in range(max_new_tokens):
        seq.append(int(np.argmax(taped_forward(model, seq, options).logits[-1])))
    return seq[len(prompt):]


@pytest.mark.parametrize("temperature", [0.0])   # the one temperature decoding accepts
def test_multi_token_generate(host, cases, temperature):
    model, _ = host
    zero = ForwardOptions(dssp_layer=OFFSET_LAYER,
                          dssp_hook=lambda xn: np.zeros_like(xn))
    for i, (question, _, _, _) in enumerate(cases):
        for opts in (None, zero):
            got = generate(model, question, 1, temperature, i, max_new_tokens=3, options=opts)
            assert got == [taped_generate(model, question, 3, opts)]


def test_layer_distributions_match_the_taped_readout(host, cases):
    model, _ = host
    w = model.weights
    for question, _, _, _ in cases:
        want = []
        for h in taped_forward(model, question).hidden:
            normed = ad.layer_norm(Tensor(h[-1:]), Tensor(w["lnf.gain"]), Tensor(w["lnf.bias"]))
            logits = normed.value @ w["tok_emb"].T
            want.append(ad.softmax_rows(Tensor(logits), 1.0).value.ravel())
        got = layer_distributions(model, question)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def assert_sweep_matches_hosts_without_each_layer(model, queries, hosts_without):
    """The sweep's entropies equal those of greedy taped decoding on ``model`` and on
    each ``without_layer`` copy of it."""
    def entropy(host):
        return semantic_entropy([tuple(taped_generate(host, q, 1)) for q in queries])

    sweep = pruning_sweep(model, queries)
    assert sweep.baseline_entropy == entropy(model)
    assert list(sweep.layer_entropies) == [entropy(h) for h in hosts_without]


def test_pruning_sweep_matches_the_taped_reference(host, hosts_without_layer, cases):
    model, layout = host
    # the probe set has one length; two record questions add a second batch
    queries = probe_questions(layout.vocab) + [cases[0][2][:7], cases[1][2][:7]]
    assert_sweep_matches_hosts_without_each_layer(model, queries, hosts_without_layer)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruning_sweep_matches_the_taped_reference_on_random_hosts(seed):
    rng = np.random.default_rng(seed)
    n_layers, n_heads = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    model = random_host(ModelConfig(n_layers=n_layers, n_heads=n_heads,
                                    d_model=4 * n_heads, d_ff=16, vocab_size=20,
                                    max_seq=12, seed=seed))
    queries = ([list(q) for q in rng.integers(0, 20, size=(12, 5))]
               + [list(q) for q in rng.integers(0, 20, size=(6, 8))])
    assert_sweep_matches_hosts_without_each_layer(
        model, queries, [without_layer(model, l) for l in range(n_layers)])


def test_input_validation(host):
    model, _ = host
    ref = taped_forward(model, [7, 8, 9])
    with pytest.raises(ContractViolationError, match="batched token rows must share one length"):
        infer(model, [[7, 8, 9], [7, 8]])                 # ragged batch
    with pytest.raises(ContractViolationError, match="empty token sequence"):
        infer(model, [])
    with pytest.raises(ContractViolationError, match="empty token batch"):
        infer(model, np.empty((0, 4), np.int64))
    with pytest.raises(ContractViolationError,
                       match=r"tokens must be \(n,\) or \(B, n\), got 3 dimensions"):
        infer(model, np.full((1, 2, 3), 7))
    for layer in (-1, 7):
        with pytest.raises(ContractViolationError, match=f"resume layer {layer} outside 0..6"):
            infer(model, [7, 8, 9], resume=(layer, ref.hidden[0]))
    with pytest.raises(ContractViolationError,
                       match=r"resume state has shape \(2, 158\), expected \(3, 158\)"):
        infer(model, [7, 8, 9], resume=(2, ref.hidden[0][:2]))   # wrong state shape
    with pytest.raises(ContractViolationError, match="resume"):
        infer(model, [7, 8, 9], ForwardOptions(dssp_layer=1, dssp_hook=lambda t: t),
              resume=(2, ref.hidden[1]))                  # hooked layer below the resume layer


_BAD_STOPS = {
    "stop_below_zero": ({}, -1),
    "stop_past_the_last_layer": ({}, 6),
    "stop_below_the_resume_layer": ({"resume": 3}, 2),
    "hook_at_stop": ({"hook": 2}, 2),
    "hook_above_stop": ({"hook": 5}, 2),
}


@pytest.mark.parametrize("case", sorted(_BAD_STOPS))
def test_stop_validation(host, case):
    model, _ = host
    tokens = [7, 8, 9]
    ref = infer(model, tokens)
    given, stop = _BAD_STOPS[case]
    opts = ForwardOptions()
    if "hook" in given:
        opts = ForwardOptions(dssp_layer=given["hook"], dssp_hook=lambda t: t)
    resume = (given["resume"], ref.hidden[given["resume"] - 1]) if "resume" in given else None
    with pytest.raises(ContractViolationError, match="stop"):
        infer(model, tokens, opts, resume, stop=stop)


def test_a_repeated_infer_stacks_no_weights_and_builds_no_mask(host, cases, monkeypatch):
    model, _ = host
    question = cases[0][0]
    infer(model, question)            # caches the causal mask of this length
    calls = []
    for name in ("stack", "triu_indices"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    infer(model, question)
    infer(model, [question, question])
    assert calls == []


def test_per_head_weights_are_read_only_views_of_one_stack_per_layer(host):
    model, _ = host
    cfg = model.config
    assert len(model.qkv) == cfg.n_layers
    for l, stacks in enumerate(model.qkv):
        for part, stack in zip(("wq", "wk", "wv"), stacks):
            assert stack.shape == (cfg.n_heads, cfg.d_model, cfg.d_head)
            for h in range(cfg.n_heads):
                view = model.weights[f"l{l}.attn.{part}.h{h}"]
                assert view.flags.c_contiguous and np.shares_memory(view, stack)
                with pytest.raises(ValueError):
                    view[0, 0] = 1.0
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# batches run as row parts
# ---------------------------------------------------------------------------

@pytest.fixture
def two_parts(monkeypatch):
    """A 16-row batch splits into two parts of 8 rows, whatever the cores, and the
    calls of the part runner are counted."""
    calls = []
    run_parts = host_model._run_parts
    monkeypatch.setattr(host_model, "_workers", lambda: 1)
    monkeypatch.setattr(host_model, "_run_parts",
                        lambda run, parts, workers: calls.append(parts) or run_parts(run, parts, workers))
    return calls


def _contexts(cases, rows=16):
    """``rows`` fixture contexts of one length."""
    n = len(cases[0][2])
    ctx = [c[2] for c in cases if len(c[2]) == n]
    return (ctx * rows)[:rows]


def test_a_split_batch_checks_the_whole_batch_before_any_part_runs(host, cases, two_parts):
    """Each refusal names the batch's shapes, and no part or hook has run."""
    model, _ = host
    contexts = _contexts(cases)
    b, n, d = len(contexts), len(contexts[0]), model.config.d_model
    full = infer(model, contexts)
    assert two_parts == [[(0, 8), (8, 16)]]
    ran = []
    hook = lambda xn: ran.append(1) or xn
    hooked = lambda hooks: ForwardOptions(2, hooks)
    bad = {
        "token": ((contexts[:15] + [[model.config.vocab_size] * n],), "token id"),
        "options": ((contexts, ForwardOptions(dssp_layer=2)), "set together"),
        "hook count": ((contexts, hooked([hook] * 15)), "15 hooks for a batch of 16 rows"),
        "resume shape": ((contexts, None, (3, full.hidden[2][:, :-1])),
                         rf"\({b}, {n - 1}, {d}\), expected \({b}, {n}, {d}\)"),
        "stop": ((contexts, hooked([hook] * 16), None, 2), "hooked layer at or above"),
    }
    for name, (args, message) in bad.items():
        with pytest.raises(ContractViolationError, match=message):
            infer(model, *args)
        assert ran == [] and len(two_parts) == 1, name


def test_a_failed_part_raises_after_every_part_is_done(host, cases, two_parts, monkeypatch):
    """Of four parts, the first error in row order wins, whichever part fails first
    in time, and is raised once every part is done; each part runs in the caller's
    numpy error state."""
    model, _ = host
    contexts = _contexts(cases)
    monkeypatch.setattr(host_model, "PART_ROWS", 4)
    monkeypatch.setattr(host_model, "_workers", lambda: 3)
    done, errstates = [], []

    def hook(row):
        def run(xn):
            errstates.append(np.geterr()["over"])
            time.sleep({5: 0.05, 11: 0.1}.get(row, 0.0))
            if row in (5, 13):
                raise ContractViolationError(f"row {row}")
            done.append(row)
            return xn
        return run

    with np.errstate(over="ignore"):
        with pytest.raises(ContractViolationError, match="row 5"):
            infer(model, contexts, ForwardOptions(2, [hook(i) for i in range(16)]))
    assert sorted(done) == [0, 1, 2, 3, 4, 8, 9, 10, 11, 12]
    assert errstates == ["ignore"] * 12
    assert two_parts == [[(0, 4), (4, 8), (8, 12), (12, 16)]]

    wrong = [lambda xn: xn] * 12 + [lambda xn: xn[:-1]] + [lambda xn: xn] * 3
    for workers in (3, 0):
        monkeypatch.setattr(host_model, "_workers", lambda: workers)
        with pytest.raises(ContractViolationError, match="shaped like its input"):
            infer(model, contexts, ForwardOptions(2, wrong))
    assert len(two_parts) == 2


def test_a_softmax_failure_in_a_worker_part_is_the_unsplit_error(two_parts, monkeypatch):
    """Rows 8.. of a 16-row batch overflow to a query-key row with no finite entry;
    the worker's part raises the unsplit pass's error."""
    config = ModelConfig(n_layers=1, n_heads=1, d_model=3, d_ff=1, vocab_size=3, max_seq=4)
    weights = random_host(config).weights
    weights.update({"l0.attn.wq.h0": np.diag([1e200, 1.0, 1.0]),
                    "l0.attn.wk.h0": np.diag([-1e200, 1.0, 1.0])})
    model = TinyTransformer(config, weights)
    # the stream (1, 0, -1) norms to (c, 0, -c): q.k overflows to -inf; (0, -1, 1) keeps a
    # zero first entry, so its q.k is finite
    state = np.zeros((16, 4, 3))
    state[:8] = [0.0, -1.0, 1.0]
    state[8:] = [1.0, 0.0, -1.0]
    with np.errstate(over="ignore"):
        assert np.isfinite(infer(model, [[0] * 4] * 8, resume=(0, state[:8])).logits).all()
        for workers in (1, 0):
            monkeypatch.setattr(host_model, "_workers", lambda: workers)
            with pytest.raises(ContractViolationError, match="softmax row with no finite entry"):
                infer(model, [[0] * 4] * 16, resume=(0, state))
    assert two_parts == [[(0, 8), (8, 16)]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_forked_child_runs_a_split_pass(host, cases, two_parts):
    """A child forked after a split pass makes its own worker threads: the parent's
    do not exist in it, and a pass waiting on them would hang."""
    model, _ = host
    contexts = _contexts(cases)
    logits = infer(model, contexts).logits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(10)
            code = 0 if np.array_equal(infer(model, contexts).logits, logits) else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(two_parts) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_pass_a_hook_starts_inside_a_part_runs_serially(host, cases, two_parts, monkeypatch):
    """Each row's hook runs its own 16-row pass inside a split hooked pass, and gets
    the unsplit pass's arrays.  Split, the inner pass of the worker's part would wait
    for the one worker, which is running that part; so the child is alarmed, and a
    hang fails the test rather than the suite."""
    model, _ = host
    contexts = _contexts(cases)
    monkeypatch.setattr(host_model, "_workers", lambda: 0)
    want = infer(model, contexts)
    monkeypatch.setattr(host_model, "_workers", lambda: 1)
    inner = []

    def hook(xn):
        inner.append(infer(model, contexts))
        return xn

    def same(trace) -> bool:
        return np.array_equal(trace.logits, want.logits) and all(
            np.array_equal(a, b) for a, b in zip(trace.hidden + trace.attention,
                                                 want.hidden + want.attention, strict=True))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(10)
            infer(model, contexts, ForwardOptions(2, hook))
            code = 0 if (len(inner) == 16 and all(map(same, inner))
                         and two_parts == [[(0, 8), (8, 16)]]) else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
