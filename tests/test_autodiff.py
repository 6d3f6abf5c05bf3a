"""Numeric core: kernels against naive oracles, tape gradients against
central finite differences."""
from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualstream import autodiff as ad
from dualstream.errors import ContractViolationError
from taped_kernels import concat_cols, matmul, relu, transpose


def naive_matmul(a, b):
    """Triple-loop reference, fixed row-major summation order."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    out = matmul(ad.Tensor(a), ad.Tensor(np.eye(4))).value
    assert_allclose(out, a, rtol=0, atol=0)


def test_matmul_hand_2x2():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert_allclose(matmul(a, b).value, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_against_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        got = matmul(ad.Tensor(a), ad.Tensor(b)).value
        assert_allclose(got, naive_matmul(a, b), rtol=1e-12, atol=1e-12)


def test_matmul_associativity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b, c = (rng.normal(size=(6, 6)) for _ in range(3))
        ta, tb, tc = ad.Tensor(a), ad.Tensor(b), ad.Tensor(c)
        left = matmul(matmul(ta, tb), tc)
        right = matmul(ta, matmul(tb, tc))
        rel = np.linalg.norm(left.value - right.value) / np.linalg.norm(left.value)
        assert rel <= 1e-9


def test_matmul_shape_error():
    with pytest.raises(ContractViolationError, match="matmul inner dimensions differ"):
        matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_softmax_rows_properties():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = rng.normal(scale=3.0, size=(3, 5))
        y = ad.softmax_rows(ad.Tensor(m), 1.0).value
        assert np.all(y >= 0)
        assert_allclose(y.sum(axis=1), np.ones(3), atol=1e-12)


def test_softmax_closed_form():
    y = ad.softmax_rows(ad.Tensor([[0.0, np.log(3.0)]]), 1.0).value
    assert_allclose(y, [[0.25, 0.75]], atol=1e-12)


def test_softmax_scale_zero_uniform():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 7))
    y = ad.softmax_rows(ad.Tensor(m), 0.0).value
    assert_allclose(y, np.full((4, 7), 1.0 / 7.0), atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 6))
    base = ad.softmax_rows(ad.Tensor(m), 1.0).value
    shifted = ad.softmax_rows(ad.Tensor(m + 123.456), 1.0).value
    assert_allclose(base, shifted, atol=1e-12)


def test_softmax_degenerate_mask_errors():
    m = np.full((2, 3), -np.inf)
    m[0] = [1.0, 2.0, 3.0]
    with pytest.raises(ContractViolationError, match="softmax row with no finite entry"):
        ad.softmax_rows(ad.Tensor(m), 1.0)


def test_softmax_masked_entries_are_zero():
    m = np.array([[1.0, -np.inf, 2.0]])
    y = ad.softmax_rows(ad.Tensor(m), 1.0).value
    assert y[0, 1] == 0.0
    assert_allclose(y.sum(), 1.0)


def test_stacked_softmax_is_the_softmax_of_each_slice():
    """The host's causal attention stack takes one ``row_softmax`` over its last axis."""
    rng = np.random.default_rng(6)
    mask = np.triu(np.full((5, 5), -np.inf), k=1)
    stack = rng.normal(scale=3.0, size=(2, 3, 5, 5)) + mask
    got = ad.row_softmax(stack, 0.5)
    assert got.shape == stack.shape
    assert all(np.array_equal(got[b, h], ad.row_softmax(stack[b, h], 0.5))
               for b in range(2) for h in range(3))
    stack[1, 2, 3] = -np.inf   # one row of one slice with no finite entry
    with pytest.raises(ContractViolationError, match="no finite entry"):
        ad.row_softmax(stack, 0.5)


def out_of_place_softmax(a, scale_factor):
    """``row_softmax`` with a fresh array per step."""
    z = a * scale_factor if scale_factor != 0.0 else np.zeros_like(a)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def out_of_place_normalize(x):
    """``normalize`` with a fresh array per step."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + ad.LN_EPS)
    return xc * inv, inv


def kernel_inputs():
    """Read-only, 4-d, causal-masked and strided inputs for the in-place kernels."""
    rng = np.random.default_rng(12)
    frozen = rng.normal(scale=3.0, size=(4, 9))
    frozen.setflags(write=False)
    masked = rng.normal(scale=3.0, size=(2, 3, 6, 6)) + np.triu(np.full((6, 6), -np.inf), k=1)
    return [frozen, masked, rng.normal(size=(2, 3, 5, 155)), rng.normal(size=(6, 2, 1, 32))[:, 1],
            rng.normal(size=(7, 4)).T, rng.normal(size=8)]


@pytest.mark.parametrize("scale_factor", [1.0, 0.5, -3.0, 0.0])
def test_row_softmax_works_in_place_on_its_own_array_only(scale_factor):
    for a in kernel_inputs():
        before = a.copy()
        with np.errstate(invalid="ignore"):   # a negative scale turns a mask into +inf: NaN rows
            got, want = ad.row_softmax(a, scale_factor), out_of_place_softmax(a, scale_factor)
        assert np.array_equal(a, before)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.shares_memory(got, a)
    row = ad.row_softmax(kernel_inputs()[1], 1.0)[1, 2, 0]   # a causal row: one unmasked entry
    assert row[0] == 1.0 and not row[1:].any()


def test_normalize_works_in_place_on_its_own_arrays_only():
    inputs = kernel_inputs()
    del inputs[1]   # the causal mask's -inf is the softmax's case
    for x in inputs:
        before = x.copy()
        xhat, inv = ad.normalize(x)
        want_xhat, want_inv = out_of_place_normalize(x)
        assert np.array_equal(x, before)
        assert np.array_equal(xhat, want_xhat) and np.array_equal(inv, want_inv)
        assert not np.shares_memory(xhat, x)


def test_normalize_vjp_equals_its_mean_form_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(300):
        shape = (int(rng.integers(1, 20)), int(rng.choice([1, 2, 7, 8, 9, 32, 129, 200])))
        xhat, inv = ad.normalize(rng.normal(scale=rng.uniform(0.1, 10.0), size=shape))
        gx = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
        want = inv * (gx - gx.mean(axis=1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=1, keepdims=True))
        assert np.array_equal(ad.normalize_vjp(gx, xhat, inv), want)


def two_pass_layer_norm(x, gain, bias, eps):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def test_layer_norm_constant_row():
    gain = ad.Tensor(np.ones((1, 6)))
    bias = ad.Tensor(np.zeros((1, 6)))
    out = ad.layer_norm(ad.Tensor(np.full((1, 6), 3.7)), gain, bias).value
    assert_allclose(out, np.zeros((1, 6)), atol=1e-12)


def test_layer_norm_zero_gain_returns_bias():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    bias = rng.normal(size=(1, 5))
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.zeros((1, 5))), ad.Tensor(bias)).value
    assert_allclose(out, np.tile(bias, (3, 1)), atol=1e-12)


def test_layer_norm_against_two_pass_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=8)
    gain = rng.normal(size=8)
    bias = rng.normal(size=8)
    got = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias)).value
    want = two_pass_layer_norm(x, gain, bias, ad.LN_EPS)
    assert_allclose(got.ravel(), want, rtol=1e-12)
    # standardization property before the affine part
    raw = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8))).value
    assert abs(raw.mean()) < 1e-12
    assert abs(raw.std() - 1.0) < 1e-3  # eps shifts variance slightly


def test_backward_of_sum_is_ones():
    tape = ad.GradTape()
    theta = ad.Tensor(np.arange(6.0).reshape(2, 3), tape)
    loss = ad.sum_all(theta)
    grads = ad.backward(tape, loss)
    assert_allclose(grads[theta], np.ones((2, 3)))


def test_backward_of_squared_norm():
    tape = ad.GradTape()
    theta = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), tape)
    loss = ad.sum_all(ad.mul(theta, theta))
    grads = ad.backward(tape, loss)
    assert_allclose(grads[theta], 2.0 * theta.value)


def test_backward_requires_scalar_seed():
    tape = ad.GradTape()
    theta = ad.Tensor(np.ones((2, 2)), tape)
    y = ad.mul(theta, theta)
    scalar = re.escape("backward seed must be scalar, got (2, 2)")
    with pytest.raises(ContractViolationError, match=scalar):
        ad.backward(tape, y)
    # the seed's shape is checked before the tape is
    with pytest.raises(ContractViolationError, match=scalar):
        ad.backward(ad.GradTape(), y)


def test_backward_consumes_the_tape():
    tape = ad.GradTape()
    theta = ad.Tensor(np.array([[1.0, 2.0]]), tape)
    loss = ad.sum_all(ad.mul(theta, theta))
    assert len(tape) == 2
    grads = ad.backward(tape, loss)
    assert len(tape) == 0
    assert_allclose(grads[theta], [[2.0, 4.0]])
    with pytest.raises(ContractViolationError, match="single-use"):
        ad.backward(tape, loss)


def test_backward_refuses_a_fresh_tape():
    tape = ad.GradTape()
    with pytest.raises(ContractViolationError, match="single-use"):
        ad.backward(tape, ad.Tensor(np.ones((1, 1)), tape))


def test_backward_refuses_a_loss_not_on_its_tape():
    tape, other = ad.GradTape(), ad.GradTape()
    theta = ad.Tensor(np.array([[1.0, 2.0]]), tape)
    own = ad.sum_all(ad.mul(theta, theta))
    foreign = ad.sum_all(ad.Tensor(np.array([[3.0, 4.0]]), other))
    for loss in (foreign, ad.Tensor(np.ones((1, 1)))):
        with pytest.raises(ContractViolationError, match="loss recorded on the given tape"):
            ad.backward(tape, loss)
        assert len(tape) == 2 and len(other) == 1      # nothing was popped
    assert set(ad.backward(tape, own)) == {theta}


def test_backward_gives_constants_no_adjoint():
    tape = ad.GradTape()
    theta = ad.Tensor(np.array([[1.0, 2.0]]), tape)
    const = ad.Tensor(np.array([[3.0], [4.0]]))
    grads = ad.backward(tape, ad.sum_all(matmul(theta, const)))
    assert set(grads) == {theta}
    assert_allclose(grads[theta], [[3.0, 4.0]])


def test_backward_fanout_accumulates():
    tape = ad.GradTape()
    theta = ad.Tensor(np.array([[2.0]]), tape)
    # loss = theta*theta + 3*theta => dloss = 2*theta + 3 = 7
    loss = ad.add(ad.mul(theta, theta), ad.scale(theta, 3.0))
    grads = ad.backward(tape, loss)
    assert_allclose(grads[theta], [[7.0]])


def composite_loss(theta_t: ad.Tensor) -> ad.Tensor:
    """matmul -> softmax -> layer_norm -> relu -> reductions, all taped."""
    d = theta_t.value.shape[1]
    mix = ad.softmax_rows(matmul(theta_t, transpose(theta_t)), 1.0 / np.sqrt(d))
    ctx = matmul(mix, theta_t)
    gain = ad.Tensor(np.linspace(0.5, 1.5, d))
    bias = ad.Tensor(np.linspace(-0.1, 0.1, d))
    normed = ad.layer_norm(ctx, gain, bias)
    act = relu(normed)
    picked = ad.pick(act, 0, 0)
    return ad.add(ad.sum_all(ad.mul(act, act)), picked)


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for trial in range(5):
        theta0 = rng.normal(size=(3, 4))

        def f(theta_flat):
            return composite_loss(ad.Tensor(theta_flat.reshape(3, 4))).item()

        tape = ad.GradTape()
        theta_t = ad.Tensor(theta0, tape)
        grads = ad.backward(tape, composite_loss(theta_t))
        fd = ad.finite_diff_grad(f, theta0.ravel(), h=1e-5).reshape(3, 4)
        assert_allclose(grads[theta_t], fd, rtol=1e-4, atol=1e-7)


def test_log_clamped_and_pick_gradients():
    rng = np.random.default_rng(9)
    p0 = rng.uniform(0.05, 1.0, size=(1, 5))

    def f_np(flat):
        v = flat.reshape(1, 5)
        return float(np.sum(np.log(np.maximum(v, 1e-12)) * np.arange(1.0, 6.0)))

    tape = ad.GradTape()
    p = ad.Tensor(p0, tape)
    loss = ad.sum_all(ad.mul(ad.log_clamped(p), ad.Tensor(np.arange(1.0, 6.0))))
    grads = ad.backward(tape, loss)
    fd = ad.finite_diff_grad(f_np, p0.ravel(), h=1e-7).reshape(1, 5)
    assert_allclose(grads[p], fd, rtol=1e-4, atol=1e-7)


def test_take_rows_scatter_gradient():
    tape = ad.GradTape()
    a = ad.Tensor(np.arange(12.0).reshape(4, 3), tape)
    sel = ad.take_rows(a, [2, 0, 2])
    loss = ad.sum_all(sel)
    grads = ad.backward(tape, loss)
    want = np.zeros((4, 3))
    want[2] = 2.0
    want[0] = 1.0
    assert_allclose(grads[a], want)


def test_concat_cols_roundtrip_and_gradient():
    tape = ad.GradTape()
    a = ad.Tensor(np.ones((2, 2)), tape)
    b = ad.Tensor(np.full((2, 3), 2.0), tape)
    cat = concat_cols([a, b])
    assert cat.value.shape == (2, 5)
    grads = ad.backward(tape, ad.sum_all(ad.mul(cat, cat)))
    assert_allclose(grads[a], 2.0 * np.ones((2, 2)))
    assert_allclose(grads[b], 2.0 * np.full((2, 3), 2.0))


def test_mixed_tapes_rejected():
    t1, t2 = ad.GradTape(), ad.GradTape()
    a = ad.Tensor(np.ones((2, 2)), t1)
    b = ad.Tensor(np.ones((2, 2)), t2)
    with pytest.raises(ContractViolationError, match="operands belong to different tapes"):
        ad.add(a, b)


_ONES = ad.Tensor(np.ones((2, 3)))
# (call, the refusal it must raise)
_REFUSALS = {
    "as_matrix_3d": (lambda: ad.as_matrix(np.ones((1, 1, 1))),
                     "expected at most 2 dimensions, got 3"),
    "item_of_a_row": (lambda: _ONES.item(), r"item\(\) needs a \(1,1\) tensor, got \(2, 3\)"),
    "add_shapes": (lambda: ad.add(_ONES, ad.Tensor(np.ones((3, 2)))),
                   r"add shapes incompatible: \(2, 3\) vs \(3, 2\)"),
    "layer_norm_gain": (lambda: ad.layer_norm(_ONES, ad.Tensor(np.ones(2)), ad.Tensor(np.ones(3))),
                        r"layer_norm gain/bias must be \(1, d\) rows"),
    "take_rows_empty": (lambda: ad.take_rows(_ONES, []),
                        "take_rows needs a non-empty 1-d index list"),
    "take_rows_past_the_end": (lambda: ad.take_rows(_ONES, [2]), "take_rows index out of range"),
    "pick_past_the_end": (lambda: ad.pick(_ONES, 0, 3), r"pick index \(0,3\) outside \(2, 3\)"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_a_kernel_refuses_operands_outside_its_contract(case):
    call, message = _REFUSALS[case]
    with pytest.raises(ContractViolationError, match=message):
        call()


def test_forward_backward_bit_deterministic():
    def run():
        tape = ad.GradTape()
        theta = ad.Tensor(np.arange(12.0).reshape(3, 4) / 7.0, tape)
        loss = composite_loss(theta)
        grads = ad.backward(tape, loss)
        return loss.item(), grads[theta].copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_finite_diff_grad_on_quadratic():
    grad = ad.finite_diff_grad(lambda t: float(np.sum(t ** 2)), np.array([1.0, 2.0]))
    assert_allclose(grad, [2.0, 4.0], atol=1e-9)


def test_finite_diff_grad_constant_function():
    grad = ad.finite_diff_grad(lambda t: 42.0, np.array([1.0, 2.0, 3.0]))
    assert_allclose(grad, np.zeros(3), atol=0)


def test_finite_diff_grad_rejects_bad_h():
    with pytest.raises(ContractViolationError, match="finite_diff_grad needs h > 0"):
        ad.finite_diff_grad(lambda t: 0.0, np.zeros(2), h=0.0)
