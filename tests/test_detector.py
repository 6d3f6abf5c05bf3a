"""Divergence-profile detector tests."""
import json

import numpy as np
import pytest

from dualstream.detector import (
    DetectionVerdict,
    DivergenceProfile,
    default_tail_k,
    detect,
    divergence_profile,
    make_variant,
)
from dualstream.divergence import jsd
from dualstream.errors import ContractViolationError, VariantRuleError

WH = frozenset({100, 101})
AUX = frozenset({200, 201})


def onehot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_self_profile_is_zero_and_negative():
    layers = [np.full(8, 1 / 8) for _ in range(6)]
    prof = divergence_profile(layers, [p.copy() for p in layers])
    assert np.allclose(prof.values, 0.0)
    verdict = detect(prof, delta=1.0)
    assert not verdict.hallucination
    assert verdict.statistic == 0.0


def test_disjoint_support_saturates_every_layer():
    px = [onehot(4, 0) for _ in range(5)]
    pv = [onehot(4, 1) for _ in range(5)]
    prof = divergence_profile(px, pv)
    assert np.allclose(prof.values, 1.0)
    verdict = detect(prof, delta=1.0)
    assert verdict.hallucination
    assert verdict.statistic == pytest.approx(2.0)  # deepest ceil(5/4)=2 layers


def test_depth_interpolated_profile_matches_direct_jsd():
    # query sticks to one answer; the variant drifts toward a disjoint one
    # with depth, so divergence must grow monotonically toward the tail.
    n_layers, vocab = 8, 6
    base = onehot(vocab, 0)
    px, pv, oracle = [], [], []
    for l in range(n_layers):
        alpha = l / (n_layers - 1)
        drifted = (1 - alpha) * onehot(vocab, 0) + alpha * onehot(vocab, 1)
        px.append(base)
        pv.append(drifted)
        oracle.append(jsd(base, drifted))
    prof = divergence_profile(px, pv)
    assert np.allclose(prof.values, oracle, atol=1e-12)
    assert np.all(np.diff(prof.values) > 0)
    verdict = detect(prof)
    assert verdict.insertion_layer == n_layers - 1
    assert verdict.aggregation == "tail_sum(2)"


def test_tail_sum_hand_value():
    prof = DivergenceProfile(np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]))
    verdict = detect(prof, delta=1.0, aggregation="tail_sum")
    assert verdict.aggregation == "tail_sum(2)"
    assert verdict.statistic == pytest.approx(0.6 + 0.7)
    assert verdict.hallucination  # 1.3 > 1.0


def test_default_tail_k_is_quarter_rounded_up():
    assert default_tail_k(1) == 1
    assert default_tail_k(4) == 1
    assert default_tail_k(5) == 2
    assert default_tail_k(6) == 2
    assert default_tail_k(8) == 2
    assert default_tail_k(9) == 3
    assert default_tail_k(32) == 8


def test_max_aggregation_bounded_by_one():
    # single-layer JSD never exceeds 1 bit, so max-mode with delta=1 can
    # fire only via strict excess, which cannot happen.
    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.uniform(0.0, 1.0, size=7)
        verdict = detect(DivergenceProfile(vals), delta=1.0, aggregation="max")
        assert verdict.statistic <= 1.0
        assert not verdict.hallucination


def test_monotonicity_raising_a_layer_never_clears_a_positive():
    rng = np.random.default_rng(11)
    for _ in range(200):
        vals = rng.uniform(0.0, 1.0, size=8)
        base = detect(DivergenceProfile(vals), delta=1.2)
        if not base.hallucination:
            continue
        i = rng.integers(0, 8)
        bumped = vals.copy()
        bumped[i] = min(1.0, bumped[i] + rng.uniform(0.0, 1.0 - bumped[i]))
        again = detect(DivergenceProfile(bumped), delta=1.2)
        assert again.hallucination


def test_insertion_layer_argmax_with_lowest_tie():
    verdict = detect(DivergenceProfile([0.2, 0.9, 0.9, 0.1]), delta=5.0)
    assert verdict.insertion_layer == 1
    assert not verdict.hallucination


def test_verdict_json_round_trip():
    verdict = detect(DivergenceProfile([0.1, 0.8, 0.9]), delta=0.5)
    doc = json.loads(json.dumps(verdict.to_json(), sort_keys=True))
    assert doc["hallucination"] is True
    assert doc["delta"] == 0.5
    assert doc["insertion_layer"] == 2
    assert doc["per_layer"] == list(verdict.per_layer)
    assert doc["aggregation"] == "tail_sum(1)"
    assert DetectionVerdict.from_json(doc) == verdict
    for field in doc:
        with pytest.raises(ContractViolationError, match=field):
            DetectionVerdict.from_json({k: v for k, v in doc.items() if k != field})
    with pytest.raises(ContractViolationError, match="per_layer"):
        DetectionVerdict.from_json({**doc, "per_layer": ["x"]})


def test_detect_is_deterministic():
    vals = np.random.default_rng(3).uniform(0, 1, size=10)
    a = detect(DivergenceProfile(vals))
    b = detect(DivergenceProfile(vals))
    assert a == b


def test_profile_validation():
    with pytest.raises(ContractViolationError, match="layer counts differ: 1 vs 2"):
        divergence_profile([onehot(4, 0)], [onehot(4, 0), onehot(4, 1)])
    with pytest.raises(ContractViolationError, match="profile vocab dimensions differ"):
        divergence_profile([onehot(4, 0)], [onehot(5, 0)])
    with pytest.raises(ContractViolationError, match="divergence profile is empty"):
        DivergenceProfile(np.array([]))
    with pytest.raises(ContractViolationError, match=r"per-layer JSD outside \[0, 1\]"):
        DivergenceProfile(np.array([1.5]))
    with pytest.raises(ContractViolationError, match="delta must be >= 0"):
        detect(DivergenceProfile([0.5]), delta=-0.1)
    with pytest.raises(ContractViolationError, match="unknown aggregation 'median'"):
        detect(DivergenceProfile([0.5, 0.5]), aggregation="median")


def test_a_nan_layer_or_a_nan_delta_is_refused():
    # a NaN layer used to pass the range check and become the insertion layer
    with pytest.raises(ContractViolationError, match="outside"):
        DivergenceProfile([0.2, np.nan, 0.9])
    # every comparison with a NaN delta is false, so it used to never flag
    with pytest.raises(ContractViolationError, match="delta"):
        detect(DivergenceProfile([0.2, 0.9]), delta=np.nan)


def random_layers(rng, n_layers, vocab, zeros=0.0):
    """``(n_layers, vocab)`` rows of softmax mass; ``zeros`` of the entries are exact 0."""
    z = rng.normal(scale=rng.uniform(0.5, 6.0), size=(n_layers, vocab))
    z[rng.random(z.shape) < zeros] = -np.inf
    z[:, 0] = np.maximum(z[:, 0], 0.0)   # every row keeps some mass
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def one_layer_jsd(p, q):
    """The 1-d formula: each KL term summed over its support alone."""
    m = 0.5 * (p + q)

    def kl(a):
        s = a > 0.0
        return float(np.sum(a[s] * np.log2(a[s] / m[s])))

    return min(max(0.5 * kl(p) + 0.5 * kl(q), 0.0), 1.0)


def jsd_loop(px, pv):
    """``jsd`` per layer, checked against the 1-d formula, which shares no code with it."""
    got = np.array([jsd(a, b) for a, b in zip(px, pv)])
    assert same_bits(got, np.array([one_layer_jsd(a, b) for a, b in zip(px, pv)]))
    return got


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("vocab", [3, 7, 8, 100, 128, 129, 155, 1000])
def test_vectorized_profile_equals_the_per_layer_jsd_loop_bit_for_bit(vocab):
    """One row-wise pass sums each row as the 1-d pairwise sum does, on both sides of
    numpy's 8-wide unroll and its 128-element blocks."""
    rng = np.random.default_rng(vocab)
    for zeros in (0.0, 0.2):
        for _ in range(20):
            n_layers = int(rng.integers(1, 9))
            px, pv = (random_layers(rng, n_layers, vocab, zeros) for _ in "xv")
            want = jsd_loop(px, pv)
            assert same_bits(divergence_profile(px, pv).values, want)
            assert same_bits(divergence_profile(list(px), list(pv)).values, want)


def test_vectorized_profile_on_strided_views_of_a_logit_lens_block():
    """``detect_stage`` passes ``lens[:, row]`` views of one ``(L, 2B, V)`` array."""
    rng = np.random.default_rng(21)
    for zeros in (0.0, 0.05):
        lens = random_layers(rng, 6 * 8, 155, zeros).reshape(6, 8, 155)
        for row in range(4):
            px, pv = lens[:, row], lens[:, 4 + row]
            assert not px.flags.c_contiguous
            assert same_bits(divergence_profile(px, pv).values, jsd_loop(px, pv))


def test_vectorized_profile_on_exact_zeros_and_disjoint_supports():
    px = np.array([onehot(6, 0), [0.5, 0.5, 0, 0, 0, 0], np.full(6, 1 / 6), [0, .25, .75, 0, 0, 0]])
    pv = np.array([onehot(6, 1), [0, 0, 0.5, 0.5, 0, 0], np.full(6, 1 / 6), [.1, .2, .3, .4, 0, 0]])
    got = divergence_profile(px, pv).values
    assert same_bits(got, jsd_loop(px, pv))
    assert got[0] == got[1] == 1.0 and got[2] == 0.0


def test_ragged_or_mismatched_layer_lists_are_contract_violations():
    with pytest.raises(ContractViolationError, match="vocab dimensions"):
        divergence_profile([onehot(4, 0), onehot(5, 0)], [onehot(4, 0), onehot(5, 0)])
    with pytest.raises(ContractViolationError, match="vocab dimensions"):
        divergence_profile([onehot(4, 0), onehot(4, 0)], [onehot(4, 0), onehot(5, 0)])
    with pytest.raises(ContractViolationError, match="vocab dimensions"):
        divergence_profile([onehot(4, 0), onehot(4, 1)], [onehot(5, 0), onehot(5, 1)])
    with pytest.raises(ContractViolationError, match="not numbers"):
        divergence_profile([["a", "b"]], [[0.5, 0.5]])
    with pytest.raises(ContractViolationError, match="layer counts"):
        divergence_profile(np.eye(4)[:2], np.eye(4)[:3])
    with pytest.raises(ContractViolationError, match="empty"):
        divergence_profile([], [])
    with pytest.raises(ContractViolationError, match="empty"):
        divergence_profile([np.zeros(0)], [np.zeros(0)])
    # row-wise validation keeps jsd's messages
    with pytest.raises(ContractViolationError, match="non-finite"):
        divergence_profile([onehot(3, 0), [np.nan, 0.5, 0.5]], [onehot(3, 0), onehot(3, 1)])
    with pytest.raises(ContractViolationError, match="probability mass 0.5 not within"):
        divergence_profile([onehot(3, 0), onehot(3, 1)], [onehot(3, 0), [0.5, 0.0, 0.0]])


def test_make_variant_cleft_reorder():
    # "where was subj rel" -> "subj was rel where"
    assert make_variant([100, 200, 7, 8], WH, AUX) == [7, 200, 8, 100]
    # longer remainder keeps order
    assert make_variant([101, 201, 3, 4, 5, 6], WH, AUX) == [3, 201, 4, 5, 6, 101]


def test_make_variant_preserves_length_and_multiset():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rest = rng.integers(300, 400, size=rng.integers(1, 6)).tolist()
        toks = [100, 200, *rest]
        var = make_variant(toks, WH, AUX)
        assert len(var) == len(toks)
        assert sorted(var) == sorted(toks)


def test_make_variant_inapplicable_raises():
    with pytest.raises(VariantRuleError, match="supply variant in dataset"):
        make_variant([7, 200, 8, 9], WH, AUX)  # no wh-word up front
    with pytest.raises(VariantRuleError, match="supply variant in dataset"):
        make_variant([100, 7, 8], WH, AUX)  # no auxiliary
    with pytest.raises(VariantRuleError):
        make_variant([100, 200], WH, AUX)  # too short
