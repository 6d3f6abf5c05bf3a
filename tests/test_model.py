"""Toy transformer: hand-evaluated oracle, layer removal, hooks, greedy decoding."""
from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualstream import autodiff as ad
from dualstream.autodiff import GradTape, Tensor
from dualstream.errors import ContractViolationError
from dualstream.fixtures import build_fixture_model
from dualstream.model import (
    ForwardOptions,
    ModelConfig,
    TinyTransformer,
    embed,
    blocks,
    forward,
    fused_input,
    fused_logits,
    generate,
    generate_from,
    infer,
    layer_distributions,
    load_model,
    save_model,
)
from random_host import random_host


def small_config(**kw) -> ModelConfig:
    base = dict(n_layers=2, n_heads=2, d_model=8, d_ff=16, vocab_size=12, max_seq=10, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ContractViolationError, match="d_model 8 not divisible by n_heads 3"):
        ModelConfig(n_layers=1, n_heads=3, d_model=8, d_ff=4, vocab_size=4, max_seq=4)
    with pytest.raises(ContractViolationError, match="n_layers must be >= 1, got 0"):
        ModelConfig(n_layers=0, n_heads=1, d_model=4, d_ff=4, vocab_size=4, max_seq=4)


def hand_model() -> TinyTransformer:
    """Single layer, single head, d_model=2, hand-set weights."""
    cfg = ModelConfig(n_layers=1, n_heads=1, d_model=2, d_ff=2, vocab_size=3, max_seq=4, seed=0)
    w = {
        "tok_emb": np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]),
        "pos_emb": np.array([[0.1, 0.0], [0.0, 0.1], [0.0, 0.0], [0.0, 0.0]]),
        "lnf.gain": np.array([[1.0, 1.0]]),
        "lnf.bias": np.array([[0.0, 0.0]]),
        "l0.ln1.gain": np.array([[1.0, 1.0]]),
        "l0.ln1.bias": np.array([[0.0, 0.0]]),
        "l0.ln2.gain": np.array([[1.0, 1.0]]),
        "l0.ln2.bias": np.array([[0.0, 0.0]]),
        "l0.attn.wq.h0": np.array([[0.7, -0.2], [0.3, 0.4]]),
        "l0.attn.wk.h0": np.array([[0.5, 0.1], [-0.3, 0.6]]),
        "l0.attn.wv.h0": np.array([[0.2, 0.8], [-0.4, 0.5]]),
        "l0.attn.wo": np.array([[1.0, 0.3], [-0.2, 0.9]]),
        "l0.attn.bo": np.array([[0.05, -0.05]]),
        "l0.ffn.w1": np.array([[0.6, -0.1], [0.2, 0.7]]),
        "l0.ffn.b1": np.array([[0.01, 0.02]]),
        "l0.ffn.w2": np.array([[0.9, 0.1], [-0.5, 0.4]]),
        "l0.ffn.b2": np.array([[0.0, 0.1]]),
    }
    return TinyTransformer(cfg, w)


def _ln(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def test_forward_matches_hand_evaluation():
    """Straight-line re-derivation of the 2-token forward, no shared code paths."""
    m = hand_model()
    w = m.weights
    tokens = [0, 1]
    x = w["tok_emb"][tokens] + w["pos_emb"][:2]

    xn = _ln(x, w["l0.ln1.gain"], w["l0.ln1.bias"])
    q = xn @ w["l0.attn.wq.h0"]
    k = xn @ w["l0.attn.wk.h0"]
    v = xn @ w["l0.attn.wv.h0"]
    scores = q @ k.T / np.sqrt(2.0)
    # causal: row 0 sees token 0 only
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    row1 = np.exp(scores[1] - scores[1].max())
    a[1] = row1 / row1.sum()
    attn_out = (a @ v) @ w["l0.attn.wo"] + w["l0.attn.bo"]
    x = x + attn_out
    yn = _ln(x, w["l0.ln2.gain"], w["l0.ln2.bias"])
    x = x + np.maximum(yn @ w["l0.ffn.w1"] + w["l0.ffn.b1"], 0.0) @ w["l0.ffn.w2"] + w["l0.ffn.b2"]
    want_logits = _ln(x, w["lnf.gain"], w["lnf.bias"]) @ w["tok_emb"].T

    trace = forward(m, tokens)
    assert_allclose(trace.logits, want_logits, rtol=1e-12, atol=1e-12)
    assert_allclose(trace.attention[0][0], a, rtol=1e-12, atol=1e-12)
    assert_allclose(trace.hidden[0], x, rtol=1e-12, atol=1e-12)


def test_trace_shapes_and_attention_rows():
    m = random_host(small_config())
    trace = forward(m, [1, 2, 3, 4, 5])
    assert len(trace.hidden) == 2 and len(trace.attention) == 2
    for h in trace.hidden:
        assert h.shape == (5, 8)
        assert np.all(np.isfinite(h))
    for a in trace.attention:
        assert a.shape == (2, 5, 5)
        assert_allclose(a.sum(axis=2), np.ones((2, 5)), atol=1e-6)
    assert trace.logits.shape == (5, 12)


def test_causal_mask_blocks_future():
    m = random_host(small_config())
    a = forward(m, [1, 2, 3, 4]).attention[0]
    for h in range(a.shape[0]):
        assert_allclose(a[h], np.tril(a[h]), atol=0)


def test_prefix_invariance_under_causality():
    m = random_host(small_config())
    long = forward(m, [3, 4, 5, 6])
    short = forward(m, [3, 4, 5])
    assert_allclose(long.logits[:3], short.logits, rtol=1e-12, atol=1e-12)


def test_skip_all_layers_reduces_to_embedding_readout():
    """Removing every layer is a resume past the last one from the embeddings."""
    m = random_host(small_config())
    tokens = [2, 7, 1]
    w = m.weights
    x = w["tok_emb"][tokens] + w["pos_emb"][:3]
    want = _ln(x, w["lnf.gain"], w["lnf.bias"]) @ w["tok_emb"].T
    for run in (forward, infer):
        trace = run(m, tokens, resume=(2, embed(m, tokens)))
        assert trace.hidden == [] and trace.attention == []
        assert_allclose(trace.logits, want, rtol=1e-12, atol=1e-12)


def test_embed_is_the_stream_entering_layer_0():
    m = random_host(small_config())
    rows = [[2, 7, 1], [5, 5, 0]]
    batch = embed(m, rows)
    assert batch.shape == (2, 3, 8)
    for r, tokens in enumerate(rows):
        assert np.array_equal(embed(m, tokens), batch[r])
        ref = forward(m, tokens)
        resumed = forward(m, tokens, resume=(0, embed(m, tokens)))
        assert np.array_equal(resumed.logits, ref.logits)
        assert all(np.array_equal(a, b) for a, b in zip(resumed.hidden, ref.hidden))
    with pytest.raises(ContractViolationError, match="token id 99 outside vocab of 12"):
        embed(m, [99])


def test_forward_deterministic():
    m = random_host(small_config())
    t1 = forward(m, [1, 2, 3])
    t2 = forward(m, [1, 2, 3])
    assert np.array_equal(t1.logits, t2.logits)
    assert all(np.array_equal(a, b) for a, b in zip(t1.hidden, t2.hidden))


def test_forward_input_validation():
    m = random_host(small_config())
    with pytest.raises(ContractViolationError, match="empty token sequence"):
        forward(m, [])
    with pytest.raises(ContractViolationError, match="token id 99 outside vocab of 12"):
        forward(m, [99])
    with pytest.raises(ContractViolationError, match="sequence length 11 exceeds max_seq 10"):
        forward(m, list(range(11)))
    with pytest.raises(ContractViolationError, match="hook layer 5 outside model"):
        forward(m, [1], ForwardOptions(dssp_layer=5, dssp_hook=lambda t: t))


_RUNS = {
    "infer": lambda m, toks: infer(m, toks),
    "infer_batch": lambda m, toks: infer(m, [[1, 2, 3], toks]),
    "forward": lambda m, toks: forward(m, toks),
    "generate_from": lambda m, toks: generate_from(m, toks, np.zeros(12)),
}


@pytest.mark.parametrize("run", list(_RUNS))
@pytest.mark.parametrize("bad", [2.7, 3.0, True, np.float64(3.9), np.float32(2), np.bool_(True),
                                 "3"])
def test_a_token_id_that_is_not_an_integer_is_refused_by_value(run, bad):
    """A float, bool or string token id is refused naming the value, never truncated."""
    m = random_host(small_config())
    with pytest.raises(ContractViolationError,
                       match=re.escape(f"token id {bad!r} is not an integer")):
        _RUNS[run](m, [1, bad, 4])


@pytest.mark.parametrize("run", list(_RUNS))
def test_python_and_numpy_integer_token_ids_are_accepted(run):
    m = random_host(small_config())
    want = _RUNS[run](m, [1, 2, 4])
    for toks in ([1, np.int64(2), np.uint8(4)], np.array([1, 2, 4], dtype=np.int32)):
        got = _RUNS[run](m, toks)
        if run == "generate_from":
            assert got == want
        else:
            assert np.array_equal(got.logits, want.logits)


def test_hook_replaces_attention_output():
    m = random_host(small_config())
    tokens = [1, 2, 3]

    def zero_hook(xn: np.ndarray) -> np.ndarray:
        return np.zeros_like(xn)

    hooked = forward(m, tokens, ForwardOptions(dssp_layer=1, dssp_hook=zero_hook))
    # manual: replay block 1 with attention output zero
    base = forward(m, tokens)
    w = m.weights
    x = base.hidden[0].copy()  # stream entering layer 1
    x = x + 0.0
    yn = _ln(x, w["l1.ln2.gain"], w["l1.ln2.bias"])
    x = x + np.maximum(yn @ w["l1.ffn.w1"] + w["l1.ffn.b1"], 0.0) @ w["l1.ffn.w2"] + w["l1.ffn.b2"]
    assert_allclose(hooked.hidden[1], x, rtol=1e-12, atol=1e-12)


def test_hook_output_must_be_an_array_shaped_like_its_input():
    """A hook trades arrays: a Tensor, or an array of another shape, is refused, for a
    single sequence and for every row of a batch."""
    m = random_host(small_config())
    misshapen = [lambda xn: xn[:-1], lambda xn: np.zeros((xn.shape[0], xn.shape[1] + 1))]
    for hook in [lambda xn: Tensor(xn), lambda xn: xn.tolist(), *misshapen]:
        with pytest.raises(ContractViolationError, match="array shaped like its input"):
            forward(m, [1, 2, 3], ForwardOptions(dssp_layer=1, dssp_hook=hook))
        with pytest.raises(ContractViolationError, match="array shaped like its input"):
            infer(m, [[1, 2, 3], [4, 5, 6]], ForwardOptions(1, [lambda xn: xn, hook]))
    for hook in misshapen:
        with pytest.raises(ContractViolationError, match="array shaped like its input"):
            fused_logits(m, [1, 2, 3], (0, embed(m, [1, 2, 3])),
                         lambda xn, hook=hook: Tensor(hook(xn)))
    infer(m, [[1, 2, 3], [4, 5, 6]], ForwardOptions(1, [lambda xn: xn, lambda xn: 2 * xn]))


@pytest.mark.parametrize("layer", [0, 1])
def test_fused_logits_gradient_matches_central_differences(layer):
    """``fused_logits`` of a block whose output is a taped row: its logits are those of
    the array hook of the same values, and the tail record's adjoint matches central
    differences of the logits' sum."""
    m = random_host(small_config())
    tokens = [1, 2, 4]
    resume = (layer, ([embed(m, tokens)] + forward(m, tokens).hidden)[layer])
    tape = GradTape()
    theta = Tensor(np.linspace(-0.3, 0.4, 8).reshape(1, 8), tape)

    def block(xn: np.ndarray) -> Tensor:
        # every attention row replaced by the trainable row theta, plus the normed row
        return ad.add(ad.mul(Tensor(np.ones_like(xn)), theta), Tensor(xn))

    logits = fused_logits(m, tokens, resume, block)
    assert logits.tape is tape and len(tape) == 3      # mul, add and the frozen tail
    hook = lambda xn: xn + theta.value
    assert np.array_equal(logits.value, forward(m, tokens, ForwardOptions(layer, hook),
                                                resume=resume).logits)
    grads = ad.backward(tape, ad.sum_all(logits))

    def f(flat):
        return float(forward(m, tokens, ForwardOptions(layer, lambda xn: xn + flat.reshape(1, 8)),
                             resume=resume).logits.sum())

    fd = ad.finite_diff_grad(f, theta.value.ravel()).reshape(1, 8)
    assert np.all(np.isfinite(grads[theta]))
    assert_allclose(grads[theta], fd, rtol=1e-4, atol=1e-7)


def test_layer_distributions_last_entry_matches_logits():
    m = random_host(small_config())
    tokens = [3, 1, 4]
    profile = layer_distributions(m, tokens)
    assert len(profile) == 2
    trace = forward(m, tokens)
    last = np.exp(trace.logits[-1] - trace.logits[-1].max())
    assert_allclose(profile[-1], last / last.sum(), rtol=1e-12)
    for p in profile:
        assert p.shape == (12,)
        assert abs(p.sum() - 1.0) < 1e-9


def test_layer_distributions_deterministic():
    m = random_host(small_config())
    p1 = layer_distributions(m, [1, 2])
    p2 = layer_distributions(m, [1, 2])
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


def test_generate_validation():
    m = random_host(small_config())
    (answer,) = generate(m, [1, 2], n_samples=1, temperature=0.0, seed=0, max_new_tokens=4)
    assert len(answer) == 4
    # decoding is greedy only: a request for sampling is refused, not ignored
    for n_samples, temperature in ((0, 0.0), (2, 0.0), (1, -1.0), (1, 0.5)):
        with pytest.raises(ContractViolationError, match="greedy"):
            generate(m, [1], n_samples=n_samples, temperature=temperature, seed=0)
    with pytest.raises(ContractViolationError,
                       match="prompt plus max_new_tokens exceeds max_seq"):
        generate(m, list(range(10)), n_samples=1, temperature=0.0, seed=0, max_new_tokens=1)
    with pytest.raises(ContractViolationError, match="max_new_tokens must be >= 1"):
        generate_from(m, [1, 2], np.zeros(12), 0)


def test_checkpoint_round_trip(tmp_path):
    m = random_host(small_config(seed=5))
    path = tmp_path / "model.bin"
    save_model(m, path, dtype="f64", meta={"note": "test"})
    loaded, meta = load_model(path)
    assert meta == {"note": "test"}
    assert loaded.config == m.config
    t1 = forward(m, [1, 2, 3])
    t2 = forward(loaded, [1, 2, 3])
    assert np.array_equal(t1.logits, t2.logits)


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("host", ["random", "fixture"])
def test_checkpoint_resave_is_byte_identical(tmp_path, dtype, host):
    """Stacking the Q/K/V heads on load changes no byte that ``save_model`` writes."""
    m = random_host(small_config(seed=5)) if host == "random" else build_fixture_model()[0]
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_model(m, first, dtype=dtype)
    save_model(load_model(first)[0], second, dtype=dtype)
    assert first.read_bytes() == second.read_bytes()


def test_blocks_group_rows_by_shape_in_order_of_first_appearance():
    keys = {0: "a", 1: "b", 2: "a", 5: "c", 3: "a", 4: "b", 9: "a"}
    assert blocks(keys, 16) == [[0, 2, 3, 9], [1, 4], [5]]
    assert blocks(keys, 2) == [[0, 2], [3, 9], [1, 4], [5]]
    assert blocks(keys, 3) == [[0, 2, 3], [9], [1, 4], [5]]
    assert blocks(keys, 1) == [[0], [2], [3], [9], [1], [4], [5]]
    assert blocks({}, 4) == []


@pytest.mark.parametrize("layer", [0, 6, 7])
def test_fused_input_refuses_a_layer_the_block_cannot_enter(layer):
    """Layer 0 has no stream entering it from a layer below, and the 6-layer fixture
    host has no layer 6 or 7 to fuse at."""
    model = build_fixture_model()[0]
    h = infer(model, [1, 2, 3]).hidden[0]
    with pytest.raises(ContractViolationError,
                       match=re.escape(f"insertion layer {layer} outside 1..5")):
        fused_input(model, layer, h)
