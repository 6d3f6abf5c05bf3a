"""Mixed-attention fusion tests: hand cases, naive oracles, gradients."""
import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from dualstream import autodiff as ad
from dualstream.autodiff import LN_EPS, GradTape, Tensor, backward, finite_diff_grad
from dualstream.errors import ContractViolationError
from dualstream.fixtures import build_copier_params, build_fixture_model, build_training_init
from dualstream.fusion import (
    PARAM_NAMES,
    DsspParams,
    KnowledgeStream,
    cross_attention,
    differential_attention,
    dssp_forward,
    dssp_update,
    load_dssp_params,
    make_dssp_hook,
    param_shapes,
    save_dssp_params,
    self_attention,
    shared_rows,
    shared_similarity,
)
from dualstream.tensorstore import save_tensors


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def softmax_rows_np(m, scale):
    z = np.asarray(m, float) * scale
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def naive_attention(x, y, wq, wk, wv, dk):
    """Triple-loop attention evaluation used as an independent oracle."""
    q, k, v = x @ wq, y @ wk, y @ wv
    out = np.zeros((x.shape[0], wv.shape[1]))
    for i in range(x.shape[0]):
        logits = np.array([q[i] @ k[j] for j in range(y.shape[0])]) / math.sqrt(dk)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        for j in range(y.shape[0]):
            out[i] += w[j] * v[j]
    return out


def straight_line_dssp(i_mat, d_mat, p, top_t, dk):
    """Full fusion pass rewritten independently in plain numpy."""
    sim = softmax_rows_np((i_mat @ p["w_share"]) @ (d_mat @ p["w_share"]).T, 1 / math.sqrt(dk))
    scores = sim.sum(axis=0)
    order = np.argsort(-scores, kind="stable")[: min(top_t, scores.size)]
    u_share = d_mat[order]
    s = (p["wq_s"], p["wk_s"], p["wv_s"])
    c = (p["wq_c"], p["wk_c"], p["wv_c"])
    att = lambda x, y, t: naive_attention(x, y, *t, dk)
    u_enh = att(i_mat, u_share, c)
    u_priv_i = att(i_mat, i_mat, s) - att(i_mat, d_mat, c)
    u_priv_d = att(i_mat, att(d_mat, d_mat, s) - att(d_mat, i_mat, c), c)
    u = np.concatenate([u_enh, u_priv_i, u_priv_d], axis=1)
    h = np.maximum(u @ p["w_f"] + p["b_f"], 0.0)
    pre = h @ p["w_o"] + p["b_o"]
    mu = pre.mean(axis=1, keepdims=True)
    var = pre.var(axis=1, keepdims=True)
    ln = (pre - mu) / np.sqrt(var + LN_EPS) * p["ln_gain"] + p["ln_bias"]
    return i_mat + ln


def rand_params(d_model, d_ff=None, top_t=10, seed=0):
    return DsspParams.init_random(d_model, d_ff=d_ff, top_t=top_t, seed=seed)


# ---------------------------------------------------------------------------
# streams and params containers
# ---------------------------------------------------------------------------

def test_knowledge_stream_validation():
    s = KnowledgeStream(np.ones((3, 4)), "external")
    assert s.seq_len == 3 and s.d_model == 4
    with pytest.raises(ContractViolationError, match=r"non-empty 2-d matrix, got shape \(0, 4\)"):
        KnowledgeStream(np.ones((0, 4)), "external")
    with pytest.raises(ContractViolationError, match=r"non-empty 2-d matrix, got shape \(4,\)"):
        KnowledgeStream(np.ones(4), "external")
    with pytest.raises(ContractViolationError, match="stream contains non-finite entries"):
        KnowledgeStream(np.array([[np.nan, 0.0]]), "internal")
    with pytest.raises(ContractViolationError, match="origin must be one of"):
        KnowledgeStream(np.ones((2, 2)), "retrieved")


def test_params_shape_validation():
    p = rand_params(4, d_ff=6)
    assert p.d_model == 4 and p.d_ff == 6 and p.d_k == 4
    bad = p.to_arrays()
    bad["w_f"] = np.zeros((4, 6))  # must be 3*d_model rows
    with pytest.raises(ContractViolationError,
                       match=r"w_f must have shape \(12, 6\), got \(4, 6\)"):
        DsspParams(top_t=2, **bad)
    with pytest.raises(ContractViolationError, match=r"top_t must lie in 1\.\.2\*\*53"):
        DsspParams(top_t=0, **p.to_arrays())


def test_params_checkpoint_round_trip(tmp_path):
    p = rand_params(5, d_ff=7, top_t=3, seed=9)
    path = tmp_path / "fusion.bin"
    save_dssp_params(path, p)
    q = load_dssp_params(path)
    assert q.top_t == 3
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(p, name), getattr(q, name))


def test_params_checkpoint_missing_tensor(tmp_path):
    p = rand_params(3)
    arrays = p.to_arrays()
    arrays.pop("wv_c")
    arrays["top_t"] = np.array([[10.0]])
    path = tmp_path / "broken.bin"
    save_tensors(path, arrays)
    with pytest.raises(ContractViolationError, match="wv_c"):
        load_dssp_params(path)


def _narrowed(**widths) -> dict:
    """The arrays of a d_model 3, d_ff 4 block cut to a zero ``d_model`` (every axis of
    3 or 9) or a zero ``d_ff`` (every axis of 4)."""
    cut = {3, 9} if "d_model" in widths else {4}
    return {n: a[tuple(slice(0 if k in cut else None) for k in a.shape)]
            for n, a in rand_params(3, d_ff=4).to_arrays().items()}


def _load_narrowed(**widths) -> DsspParams:
    buf = io.BytesIO()
    save_tensors(buf, {**_narrowed(**widths), "top_t": np.array([[2.0]])})
    buf.seek(0)
    return load_dssp_params(buf)


@pytest.mark.parametrize("build, width", [
    (lambda: DsspParams(top_t=2, **_narrowed(d_model=0)), "d_model 0"),
    (lambda: DsspParams(top_t=2, **_narrowed(d_ff=0)), "d_ff 0"),
    (lambda: DsspParams.init_random(0), "d_model 0"),
    (lambda: DsspParams.init_random(3, d_ff=0), "d_ff 0"),
    (lambda: DsspParams.init_random(-1), "d_model -1"),
    (lambda: _load_narrowed(d_model=0), "d_model 0"),
    (lambda: _load_narrowed(d_ff=0), "d_ff 0"),
], ids=["params-d_model-0", "params-d_ff-0", "init_random-0", "init_random-d_ff-0",
        "init_random-minus-1", "checkpoint-d_model-0", "checkpoint-d_ff-0"])
def test_a_fusion_width_below_one_is_refused_by_name(build, width):
    """The parameters, ``init_random`` and the checkpoint loader all refuse it."""
    with pytest.raises(ContractViolationError, match=f"fusion {width} is below 1"):
        build()


def test_param_shapes_is_the_field_and_checkpoint_order():
    fields = [f.name for f in dataclasses.fields(DsspParams)]
    assert list(PARAM_NAMES) == fields[:-1] and fields[-1] == "top_t"
    p = rand_params(5, d_ff=7)
    assert {n: a.shape for n, a in p.to_arrays().items()} == param_shapes(5, 7)


# sha256 of ``save_dssp_params`` (f64) output, recorded before the fusion schema moved
# into ``param_shapes``; init_random is keyed by (d_model, d_ff, seed)
_CHECKPOINT_SHA256 = {
    (2, None, 0): "a4517c2fcea51177b86702c5487d9c0584e70874a13f907565b1ebfa148f2372",
    (4, 3, 7): "505659523122ed5097b565932971ed3fd6defdaad4720045c4e2d255c0cceedf",
    (8, 16, 13): "5457cd1f4063012cfe862ff23e87e0fb89385c7c8070a73a639206c6d56c2e66",
    "copier": "5f2dbba870ae418364a32b968cdc64298fe65625891fd308c4a8076a070a1e02",
    "training_init": "9ed42bbb356b52d2e49e220bac9701609b5a181142ec0d2bda528a6ba13e9e49",
}


def test_saved_checkpoints_keep_their_bytes(tmp_path):
    layout = build_fixture_model()[1]
    built = {"copier": build_copier_params(layout), "training_init": build_training_init(layout)}
    for key, want in _CHECKPOINT_SHA256.items():
        params = built[key] if key in built else DsspParams.init_random(
            key[0], d_ff=key[1], seed=key[2])
        save_dssp_params(tmp_path / "p.bin", params)
        assert hashlib.sha256((tmp_path / "p.bin").read_bytes()).hexdigest() == want, key


def test_apply_updates_and_copy():
    p = rand_params(3, seed=1)
    q = p.copy()
    g = np.ones_like(p.w_share)
    p.apply_updates({"w_share": g}, lr=0.5)
    assert np.allclose(p.w_share, q.w_share - 0.5)
    assert np.array_equal(q.w_share, DsspParams.init_random(3, seed=1).w_share)
    with pytest.raises(ContractViolationError, match="unknown parameter 'nope'"):
        p.apply_updates({"nope": g}, lr=0.1)
    with pytest.raises(ContractViolationError, match="gradient shape mismatch for w_share"):
        p.apply_updates({"w_share": g[:1]}, lr=0.1)


# ---------------------------------------------------------------------------
# shared similarity and token selection
# ---------------------------------------------------------------------------

def test_shared_similarity_single_external_token():
    sim = shared_similarity(np.random.default_rng(0).normal(size=(4, 3)),
                            np.ones((1, 3)), np.eye(3))
    assert sim.value.shape == (4, 1)
    assert np.allclose(sim.value, 1.0)


def test_shared_similarity_zero_projection_is_uniform():
    sim = shared_similarity(np.ones((3, 2)), np.ones((5, 2)), np.zeros((2, 2)))
    assert np.allclose(sim.value, 1 / 5)


def test_shared_similarity_hand_case():
    i_mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    d_mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    sim = shared_similarity(i_mat, d_mat, np.eye(2), d_k=2)
    logits = i_mat @ d_mat.T / math.sqrt(2)
    for r in range(2):
        e = np.exp(logits[r] - logits[r].max())
        assert np.allclose(sim.value[r], e / e.sum(), atol=1e-12)


def test_shared_similarity_rows_stochastic():
    rng = np.random.default_rng(4)
    sim = shared_similarity(rng.normal(size=(6, 5)), rng.normal(size=(4, 5)),
                            rng.normal(size=(5, 5)))
    assert np.allclose(sim.value.sum(axis=1), 1.0)
    assert np.all(sim.value >= 0)


def test_select_all_tokens_in_score_order():
    x = np.array([[1.0, 0.0]])
    d_mat = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
    out = shared_rows(x, d_mat, np.eye(2), top_t=10)
    # similarities to x grow with the first coordinate -> order 1, 2, 0
    assert np.array_equal(out, d_mat[[1, 2, 0]])


def test_select_top_t_and_tie_break():
    d_mat = np.arange(8, dtype=float).reshape(4, 2)
    out = shared_rows(np.ones((3, 2)), d_mat, np.zeros((2, 2)), top_t=2)
    assert np.array_equal(out, d_mat[[0, 1]])  # equal mass: lowest index first


def test_select_invariant_under_logit_shift():
    """A feature every external row holds at 1 shifts each similarity row's logits by
    the internal row's value of it, which the softmax, and so the choice, ignores."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    d_mat = np.hstack([rng.normal(size=(5, 4)), np.ones((5, 1))])
    base = shared_rows(np.hstack([x, np.zeros((3, 1))]), d_mat, np.eye(5), 2)
    shifted = shared_rows(np.hstack([x, rng.normal(size=(3, 1))]), d_mat, np.eye(5), 2)
    assert np.array_equal(base, shifted)


def test_select_errors():
    """A stream whose width is not ``w_share``'s, or a taped stream, is refused."""
    with pytest.raises(ContractViolationError, match="stream width does not match w_share"):
        shared_rows(np.ones((2, 3)), np.ones((4, 2)), np.eye(3), top_t=2)
    with pytest.raises(ContractViolationError, match="taped"):
        shared_rows(np.ones((2, 3)), Tensor(np.ones((4, 3)), GradTape()), np.eye(3), top_t=2)


# ---------------------------------------------------------------------------
# attention primitives
# ---------------------------------------------------------------------------

def test_cross_attention_single_key_token():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(1, 3))
    wq, wk, wv = rng.normal(size=(3, 3, 3))
    out = cross_attention(x, y, wq, wk, wv)
    assert np.allclose(out, np.tile(y @ wv, (4, 1)), atol=1e-12)


def test_cross_attention_hand_case():
    x = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = cross_attention(x, y, np.eye(2), np.eye(2), np.eye(2))
    w1 = math.exp(1 / math.sqrt(2)) / (1 + math.exp(1 / math.sqrt(2)))
    expected = (1 - w1) * y[0] + w1 * y[1]
    assert np.allclose(out[0], expected, atol=1e-12)


def test_attention_matches_naive_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(5, 4))
    wq, wk, wv = rng.normal(size=(3, 4, 4))
    assert np.allclose(cross_attention(x, y, wq, wk, wv),
                       naive_attention(x, y, wq, wk, wv, 4), atol=1e-12)
    assert np.allclose(self_attention(x, wq, wk, wv),
                       naive_attention(x, x, wq, wk, wv, 4), atol=1e-12)


def test_self_attention_single_token_and_permutation():
    rng = np.random.default_rng(3)
    tok = rng.normal(size=(1, 4))
    wq, wk, wv = rng.normal(size=(3, 4, 4))
    assert np.allclose(self_attention(tok, wq, wk, wv), tok @ wv, atol=1e-12)

    x = rng.normal(size=(5, 4))
    perm = np.array([3, 0, 4, 1, 2])
    base = self_attention(x, wq, wk, wv)
    permuted = self_attention(x[perm], wq, wk, wv)
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_differential_attention_cancels_on_shared_weights():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    triple = tuple(rng.normal(size=(3, 3)) for _ in range(3))
    out = differential_attention(x, x.copy(), triple, triple)
    assert np.array_equal(out, np.zeros((4, 3)))


def test_differential_attention_hand_subtraction():
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    s = tuple(rng.normal(size=(3, 3)) for _ in range(3))
    c = tuple(rng.normal(size=(3, 3)) for _ in range(3))
    expected = naive_attention(x, x, *s, 3) - naive_attention(x, y, *c, 3)
    assert np.allclose(differential_attention(x, y, s, c), expected, atol=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ContractViolationError,
                       match="stream width does not match attention weights"):
        cross_attention(np.ones((2, 3)), np.ones((2, 4)),
                        np.eye(3), np.eye(3), np.eye(3))
    with pytest.raises(ContractViolationError, match="stream width does not match w_share"):
        shared_similarity(np.ones((2, 3)), np.ones((2, 3)), np.eye(4))


@pytest.mark.parametrize("d_k", [0, -1, float("nan"), 2.5])
def test_shared_similarity_refuses_a_d_k_that_is_not_an_integer_of_at_least_1(d_k):
    with pytest.raises(ContractViolationError, match="d_k"):
        shared_similarity(np.ones((2, 3)), np.ones((2, 3)), np.eye(3), d_k=d_k)


def test_a_query_projection_of_zero_input_width_is_refused():
    """A zero-width query projection leaves no ``1 / sqrt(d_k)`` to scale the scores
    by, so each attention refuses it.  The fused block's width is its ``d_model``,
    which ``DsspParams`` refuses at 0 (``test_a_fusion_width_below_one_is_refused_by_name``)."""
    with pytest.raises(ContractViolationError, match="d_k"):
        cross_attention(np.ones((2, 0)), np.ones((2, 0)), *np.ones((3, 0, 2)))
    with pytest.raises(ContractViolationError, match="d_k"):
        shared_similarity(np.ones((2, 0)), np.ones((2, 0)), np.ones((0, 0)))


# ---------------------------------------------------------------------------
# full fusion pass
# ---------------------------------------------------------------------------

def test_dssp_zero_weights_is_identity():
    d = 4
    zeros = {name: np.zeros_like(arr) for name, arr in rand_params(d).to_arrays().items()}
    zeros["ln_gain"] = np.ones((1, d))
    params = DsspParams(top_t=2, **zeros)
    x = np.random.default_rng(5).normal(size=(3, d))
    out = dssp_forward(x, np.random.default_rng(6).normal(size=(2, d)), params)
    assert np.array_equal(out.value, x)


def test_dssp_private_branch_vanishes_on_identical_streams():
    rng = np.random.default_rng(9)
    d = 3
    p = rand_params(d, seed=2)
    shared = {"wq_c": p.wq_s, "wk_c": p.wk_s, "wv_c": p.wv_s}
    params = DsspParams(top_t=2, **{**p.to_arrays(), **shared})
    x = rng.normal(size=(3, d))
    out = differential_attention(x, x.copy(),
                                 (params.wq_s, params.wk_s, params.wv_s),
                                 (params.wq_c, params.wk_c, params.wv_c))
    assert np.array_equal(out, np.zeros_like(x))


def test_dssp_matches_straight_line_oracle():
    rng = np.random.default_rng(17)
    params = rand_params(4, d_ff=6, top_t=2, seed=11)
    i_mat = rng.normal(size=(3, 4))
    d_mat = rng.normal(size=(4, 4))
    out = dssp_forward(i_mat, d_mat, params)
    oracle = straight_line_dssp(i_mat, d_mat, params.to_arrays(), params.top_t, params.d_k)
    assert np.allclose(out.value, oracle, atol=1e-9)
    assert np.allclose(dssp_update(i_mat, d_mat, params).value, oracle - i_mat, atol=1e-9)


def test_dssp_accepts_knowledge_streams():
    rng = np.random.default_rng(2)
    params = rand_params(4, seed=3)
    i_s = KnowledgeStream(rng.normal(size=(2, 4)), "internal")
    d_s = KnowledgeStream(rng.normal(size=(3, 4)), "external")
    assert np.allclose(dssp_forward(i_s, d_s, params).value,
                       dssp_forward(i_s.tokens, d_s.tokens, params).value)


def test_dssp_shape_sweep():
    for d_model in (2, 8, 32):
        params = {t: rand_params(d_model, top_t=t, seed=d_model) for t in (1, 10)}
        for n_i in (1, 2, 5, 16):
            for n_d in (1, 3, 10):
                rng = np.random.default_rng([d_model, n_i, n_d])
                i_mat = rng.normal(size=(n_i, d_model))
                d_mat = rng.normal(size=(n_d, d_model))
                for t in (1, 10):
                    out = dssp_forward(i_mat, d_mat, params[t])
                    assert out.value.shape == i_mat.shape


def test_dssp_hook_composes_with_forward():
    rng = np.random.default_rng(14)
    params = rand_params(4, seed=7)
    ext = rng.normal(size=(3, 4))
    hook = make_dssp_hook(ext, params)
    xn = rng.normal(size=(5, 4))
    update = hook(xn)
    assert isinstance(update, np.ndarray) and update.shape == xn.shape
    assert np.array_equal(update, dssp_update(xn, ext, params).value)
    assert np.allclose(xn + update, dssp_forward(xn, ext, params).value, atol=1e-12)


def test_taped_dssp_update_keeps_the_similarity_off_the_tape():
    rng = np.random.default_rng(29)
    params = rand_params(4, seed=29)
    tape = GradTape()
    leaves = params.leaves(tape)
    dssp_update(rng.normal(size=(5, 4)), rng.normal(size=(3, 4)), params, leaves)
    assert len(tape) > 0
    # only the discrete top-T choice reads the similarity, so w_share feeds no taped op
    assert all(leaves["w_share"] is not inp for _, inputs, _ in tape._records for inp in inputs)


def test_dssp_update_refuses_a_taped_stream():
    """The fusion record passes adjoints to its parameters only, so a taped stream would
    lose its gradient: it is refused."""
    rng = np.random.default_rng(31)
    params = rand_params(4, seed=31)
    tape = GradTape()
    x, y = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
    for internal, external in ((Tensor(x, tape), y), (x, Tensor(y, tape))):
        with pytest.raises(ContractViolationError, match="taped"):
            dssp_update(internal, external, params, params.leaves(tape))
    with pytest.raises(ContractViolationError, match="taped internal stream"):
        make_dssp_hook(y, params)(Tensor(x, tape))


def test_dssp_update_refuses_a_missing_leaf_and_a_stream_of_another_width():
    params = rand_params(4, seed=31)
    leaves = params.leaves(GradTape())
    del leaves["wq_s"]
    with pytest.raises(ContractViolationError, match=r"leaves missing parameters: \['wq_s'\]"):
        dssp_update(np.ones((5, 4)), np.ones((3, 4)), params, leaves)
    with pytest.raises(ContractViolationError,
                       match="stream width does not match the fusion parameters"):
        dssp_update(np.ones((5, 4)), np.ones((3, 5)), params)


def test_dssp_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    d_model, d_ff = 3, 5
    params = rand_params(d_model, d_ff=d_ff, top_t=3, seed=23)
    i_mat = rng.normal(size=(2, d_model))
    d_mat = rng.normal(size=(3, d_model))

    # guard against discontinuities: token scores well separated and no relu
    # pre-activation near its kink, so the finite-difference probe is valid
    sim = shared_similarity(i_mat, d_mat, params.w_share, params.d_k).value
    gaps = np.diff(np.sort(sim.sum(axis=0)))
    assert np.all(gaps > 1e-3)
    probe = dssp_update(i_mat, d_mat, params)
    assert probe.value.shape == i_mat.shape

    tape = GradTape()
    leaves = params.leaves(tape)
    loss = ad.sum_all(dssp_forward(i_mat, d_mat, params, leaves))
    grads = backward(tape, loss)

    for name in PARAM_NAMES:
        def f(theta, _name=name):
            trial = params.copy()
            setattr(trial, _name, theta.reshape(getattr(params, _name).shape))
            return float(dssp_forward(i_mat, d_mat, trial).value.sum())

        numeric = finite_diff_grad(f, getattr(params, name).copy())
        # w_share influences the output only through the discrete top-T
        # choice, so its gradient is identically zero away from order swaps
        analytic = grads.get(leaves[name], np.zeros_like(numeric))
        denom = max(np.abs(numeric).max(), 1.0)
        assert np.allclose(analytic, numeric, atol=1e-4 * denom), name
