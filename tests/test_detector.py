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
    with pytest.raises(ContractViolationError):
        divergence_profile([onehot(4, 0)], [onehot(4, 0), onehot(4, 1)])
    with pytest.raises(ContractViolationError):
        divergence_profile([onehot(4, 0)], [onehot(5, 0)])
    with pytest.raises(ContractViolationError):
        DivergenceProfile(np.array([]))
    with pytest.raises(ContractViolationError):
        DivergenceProfile(np.array([1.5]))
    with pytest.raises(ContractViolationError):
        detect(DivergenceProfile([0.5]), delta=-0.1)
    with pytest.raises(ContractViolationError):
        detect(DivergenceProfile([0.5, 0.5]), aggregation="median")


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
