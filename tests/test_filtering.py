"""Knowledge-filter tests: sweep, classification, energy quotient, gate."""
import json
import math
import re

import numpy as np
import pytest

from dualstream import filtering
from dualstream.errors import ContractViolationError, LayerStructureError
from dualstream.filtering import (
    Calibration,
    FilterProfile,
    PruningSweep,
    attention_token_scores,
    classify_layers,
    compute_filter_profile,
    energy_quotient,
    entropy_gate,
    filter_knowledge,
    gate_fires,
    pruning_sweep,
)
from dualstream.fusion import KnowledgeStream
from dualstream.model import ForwardTrace, ModelConfig, infer
from random_host import random_host

# frozen high-precision oracles (softmax / log evaluated independently)
EQ_ZERO_ONE_LAM1 = (0.731058578630005, 0.268941421369995)
EPSILON_HALVED_ENTROPY = 0.405465108108164  # ln(1.5)


def fake_trace(patterns):
    """ForwardTrace carrying only attention patterns."""
    n = patterns[0].shape[-1]
    return ForwardTrace(hidden=[np.zeros((n, 1))] * len(patterns),
                        attention=list(patterns), logits=np.zeros((n, 2)))


# ---------------------------------------------------------------------------
# sweep containers
# ---------------------------------------------------------------------------

def test_sweep_deltas():
    sweep = PruningSweep(baseline_entropy=1.0, layer_entropies=[1.8, 0.6, 1.0])
    assert np.allclose(sweep.deltas, [0.8, -0.4, 0.0])


def test_pruning_sweep_identity_layer_has_exact_zero_delta():
    cfg = ModelConfig(n_layers=3, n_heads=2, d_model=8, d_ff=16, vocab_size=11,
                      max_seq=12, seed=5)
    model = random_host(cfg)
    # make layer 1 contribute exactly nothing to the residual stream
    for name in ("l1.attn.wo", "l1.attn.bo", "l1.ffn.w2", "l1.ffn.b2"):
        model.weights[name] = np.zeros_like(model.weights[name])
    queries = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
    sweep = pruning_sweep(model, queries)
    assert sweep.layer_entropies.size == 3
    assert sweep.deltas[1] == 0.0  # bit-exact: identical answers either way


def test_pruning_sweep_runs_same_length_queries_in_capped_passes(monkeypatch):
    """No pass holds more than ``SWEEP_PASS_QUERIES`` queries, and the capped sweep
    equals the sweep of whole same-length groups exactly."""
    cfg = ModelConfig(n_layers=3, n_heads=2, d_model=8, d_ff=16, vocab_size=11,
                      max_seq=12, seed=5)
    model = random_host(cfg)
    rng = np.random.default_rng(0)
    lengths = [int(n) for n in rng.integers(2, 5, size=40)]
    queries = [[int(t) for t in rng.integers(0, 11, size=n)] for n in lengths]
    whole = pruning_sweep(model, queries)
    rows = []

    def recording_infer(model, tokens, *args, **kwargs):
        rows.append(len(tokens))
        return infer(model, tokens, *args, **kwargs)

    monkeypatch.setattr(filtering, "SWEEP_PASS_QUERIES", 3)
    monkeypatch.setattr(filtering, "infer", recording_infer)
    capped = pruning_sweep(model, queries)
    passes = sum(-(-lengths.count(n) // 3) for n in set(lengths))
    assert max(rows) == 3 and len(rows) == (cfg.n_layers + 1) * passes
    assert capped.baseline_entropy == whole.baseline_entropy
    assert np.array_equal(capped.layer_entropies, whole.layer_entropies)


def test_pruning_sweep_requires_queries():
    cfg = ModelConfig(n_layers=2, n_heads=1, d_model=4, d_ff=8, vocab_size=7,
                      max_seq=8, seed=0)
    with pytest.raises(ContractViolationError, match="pruning sweep needs at least one query"):
        pruning_sweep(random_host(cfg), [])


# ---------------------------------------------------------------------------
# layer classification
# ---------------------------------------------------------------------------

def test_classify_layers_extremes():
    sweep = PruningSweep(0.0, [0.8, -0.4, 0.1])
    cls = classify_layers(sweep)
    assert (cls.key_layer, cls.offset_layer) == (0, 1)
    # the gate's entropy pair: the baseline, and the sweep's entropy without the offset layer
    assert (cls.entropy_orig, cls.entropy_offset) == (0.0, -0.4)


def test_classify_layers_shift_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ents = rng.normal(size=6)
        if np.all(ents == ents[0]):
            continue
        a = classify_layers(PruningSweep(0.0, ents))
        b = classify_layers(PruningSweep(0.0, ents + 3.3))
        assert (a.key_layer, a.offset_layer) == (b.key_layer, b.offset_layer)


def test_classify_layers_tie_breaks_to_lowest_index():
    cls = classify_layers(PruningSweep(0.0, [1.0, 1.0, -1.0, -1.0]))
    assert cls.key_layer == 0
    assert cls.offset_layer == 2


def test_classify_layers_flat_sweep_rejected():
    with pytest.raises(LayerStructureError, match="no separable key/offset structure"):
        classify_layers(PruningSweep(1.0, [0.3, 0.3, 0.3]))
    with pytest.raises(ContractViolationError, match="need at least two layers to classify"):
        classify_layers(PruningSweep(1.0, [0.3]))
    with pytest.raises(ContractViolationError, match="sweep needs at least one layer"):
        PruningSweep(1.0, [])


# ---------------------------------------------------------------------------
# attention token scores
# ---------------------------------------------------------------------------

def test_attention_scores_uniform():
    n = 6
    trace = fake_trace([np.full((2, n, n), 1 / n)])
    scores = attention_token_scores(trace, 0, (2, 5))
    assert np.allclose(scores, 1 / n)


def test_attention_scores_single_focused_head():
    n = 5
    pattern = np.zeros((1, n, n))
    pattern[0, :, 3] = 1.0
    trace = fake_trace([pattern])
    scores = attention_token_scores(trace, 0, (1, n))
    expected = np.zeros(n - 1)
    expected[2] = 1.0  # position 3 inside span (1, 5)
    assert np.array_equal(scores, expected)


def test_attention_scores_match_naive_reduction():
    rng = np.random.default_rng(9)
    n_heads, n = 3, 7
    raw = rng.uniform(size=(n_heads, n, n))
    pattern = raw / raw.sum(axis=2, keepdims=True)
    trace = fake_trace([np.eye(n)[None], pattern])
    start, stop = 2, 6
    scores = attention_token_scores(trace, 1, (start, stop))
    naive = np.zeros(stop - start)
    for j in range(start, stop):
        total = 0.0
        for h in range(n_heads):
            for i in range(n):
                total += pattern[h, i, j]
        naive[j - start] = total / (n_heads * n)
    assert np.allclose(scores, naive, atol=1e-12)


def test_attention_scores_span_errors():
    trace = fake_trace([np.full((1, 4, 4), 0.25)])
    with pytest.raises(ContractViolationError, match="layer 1 outside trace"):
        attention_token_scores(trace, 1, (0, 2))
    with pytest.raises(ContractViolationError,
                       match=re.escape("span (2, 2) empty or outside sequence of length 4")):
        attention_token_scores(trace, 0, (2, 2))
    with pytest.raises(ContractViolationError,
                       match=re.escape("span (1, 9) empty or outside sequence of length 4")):
        attention_token_scores(trace, 0, (1, 9))


# ---------------------------------------------------------------------------
# energy quotient
# ---------------------------------------------------------------------------

def test_energy_quotient_uniform_cases():
    assert np.allclose(energy_quotient([0.4, 0.4, 0.4], lam=2.0), 1 / 3)
    assert np.allclose(energy_quotient([1.0, -2.0, 0.3], lam=0.0), 1 / 3)


def test_energy_quotient_frozen_value():
    eq = energy_quotient([0.0, 1.0], lam=1.0)
    assert np.allclose(eq, EQ_ZERO_ONE_LAM1, atol=1e-12)
    assert np.allclose(eq, [0.7311, 0.2689], atol=1e-4)


def test_energy_quotient_monotone_and_normalized():
    rng = np.random.default_rng(6)
    for _ in range(200):
        da = rng.normal(size=5)
        lam = rng.uniform(0.1, 3.0)
        eq = energy_quotient(da, lam)
        assert eq.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(eq > 0)
        order_da = np.argsort(da)
        order_eq = np.argsort(-eq)
        assert np.array_equal(np.sort(da[order_da]), np.sort(da))
        # strictly smaller score => strictly larger share
        for a in range(5):
            for b in range(5):
                if da[a] < da[b]:
                    assert eq[a] > eq[b]
        assert order_eq is not None


def test_energy_quotient_errors():
    with pytest.raises(ContractViolationError, match="energy quotient needs at least one token"):
        energy_quotient([], lam=1.0)
    with pytest.raises(ContractViolationError, match="scores and lam must be finite"):
        energy_quotient([np.inf, 0.0], lam=1.0)
    with pytest.raises(ContractViolationError, match="scores and lam must be finite"):
        energy_quotient([0.0, 1.0], lam=math.nan)


# ---------------------------------------------------------------------------
# entropy gate
# ---------------------------------------------------------------------------

def test_entropy_gate_boundary_is_inactive():
    eps, delta = entropy_gate(0.1, 0.0)
    assert delta == -0.1
    assert eps == 0.0


# the entropy change of a drop of exactly 0.1 bits, of the next float past it, and of 0.15
# bits, and whether the gate fires; entropy_gate at the first is
# test_entropy_gate_boundary_is_inactive
_GATE_EDGE = {"drop_0.1": (-0.1, False),
              "drop_next_past_0.1": (float(np.nextafter(-0.1, -1)), True),
              "drop_0.15": (-0.15, True)}


@pytest.mark.parametrize("case", _GATE_EDGE)
def test_the_gate_fires_only_past_a_drop_of_0_1_bits(case):
    delta, fires = _GATE_EDGE[case]
    assert gate_fires(delta) is fires
    if fires:  # an offset entropy of 0 gives epsilon = ln(1 - delta/(-delta)) = ln 2
        eps, gate_delta = entropy_gate(-delta, 0.0)
        assert gate_delta == delta and eps == math.log(2.0)
    eq = np.array([0.25, 0.75])
    FilterProfile(1, 2, [0.0, 0.0], eq, math.log(2.0) if fires else 0.0, delta)
    if not fires:
        with pytest.raises(ContractViolationError,
                           match="epsilon must be zero when the gate is inactive"):
            FilterProfile(1, 2, [0.0, 0.0], eq, math.log(2.0), delta)
    stream = KnowledgeStream(np.arange(6.0).reshape(2, 3) - 2.5, "external")
    out = filter_knowledge(stream, eq, math.log(2.0), delta)
    want = stream.tokens * (math.log(2.0) * eq)[:, None] if fires else stream.tokens
    assert np.array_equal(out.tokens, want)


def test_entropy_gate_positive_shift_inactive():
    eps, delta = entropy_gate(1.0, 1.2)
    assert (eps, delta) == (0.0, pytest.approx(0.2))


def test_entropy_gate_frozen_value():
    eps, delta = entropy_gate(1.0, 0.5)
    assert delta == pytest.approx(-0.5)
    assert eps == pytest.approx(EPSILON_HALVED_ENTROPY, abs=1e-12)
    assert eps == pytest.approx(math.log(1.5), abs=1e-15)


def test_entropy_gate_active_lower_bound():
    rng = np.random.default_rng(13)
    for _ in range(100):
        h_orig = rng.uniform(0.2, 3.0)
        h_off = rng.uniform(0.0, max(h_orig - 0.10001, 1e-6))
        eps, delta = entropy_gate(h_orig, h_off)
        if delta < -0.1:
            assert eps > math.log(1 + 0.1 / h_orig)
            assert eps > 0


def test_entropy_gate_errors():
    with pytest.raises(ContractViolationError, match="baseline entropy must be finite and > 0"):
        entropy_gate(0.0, 0.5)
    with pytest.raises(ContractViolationError, match="baseline entropy must be finite and > 0"):
        entropy_gate(-1.0, 0.5)
    with pytest.raises(ContractViolationError, match="offset entropy must be finite"):
        entropy_gate(1.0, math.inf)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entropy_change_is_refused_wherever_the_gate_is_read(delta):
    message = f"entropy change {delta} is not finite"
    with pytest.raises(ContractViolationError, match=message):
        gate_fires(delta)
    with pytest.raises(ContractViolationError, match=message):
        FilterProfile(1, 2, [0.0, 0.0], [0.5, 0.5], 0.0, delta)
    with pytest.raises(ContractViolationError, match=message):
        filter_knowledge(KnowledgeStream(np.ones((2, 2)), "external"), [0.5, 0.5], 0.0, delta)
    if delta == -math.inf:  # two finite entropies whose difference overflows
        with pytest.raises(ContractViolationError, match=message):
            entropy_gate(1e308, -1e308)


# ---------------------------------------------------------------------------
# stream filtering
# ---------------------------------------------------------------------------

def test_filter_inactive_gate_is_bit_exact_identity():
    rng = np.random.default_rng(3)
    stream = KnowledgeStream(rng.normal(size=(4, 3)), "external")
    out = filter_knowledge(stream, np.full(4, 0.25), epsilon=0.0, delta_entropy=0.0)
    assert np.array_equal(out.tokens, stream.tokens)
    assert out.origin == "external"
    assert out.tokens is not stream.tokens  # caller may mutate independently


def test_filter_uniform_eq_seq_len_rescale_cancels():
    stream = KnowledgeStream(np.arange(12, dtype=float).reshape(4, 3), "external")
    eps = 0.37
    out = filter_knowledge(stream, np.full(4, 0.25), epsilon=eps,
                           delta_entropy=-0.5, rescale="seq_len")
    assert np.allclose(out.tokens, eps * stream.tokens, atol=1e-12)


def test_filter_rowwise_product_oracle():
    stream = KnowledgeStream(np.ones((3, 2)), "external")
    eq = np.array([0.7311, 0.2689, 0.0])
    eps = 0.4055
    out = filter_knowledge(stream, eq, epsilon=eps, delta_entropy=-0.5, rescale="none")
    exact = eps * eq[:, None] * stream.tokens
    assert np.allclose(out.tokens, exact, atol=1e-12)
    assert np.allclose(out.tokens[:, 0], [0.2965, 0.1091, 0.0], atol=1e-4)


def test_filter_never_amplifies_beyond_formula():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        stream = KnowledgeStream(rng.normal(size=(n, 4)), "external")
        raw = rng.uniform(0.01, 1.0, size=n)
        eq = raw / raw.sum()
        eps = float(rng.uniform(0.0, 2.0))
        rescale = ["none", "seq_len"][int(rng.integers(0, 2))]
        out = filter_knowledge(stream, eq, eps, delta_entropy=-1.0, rescale=rescale)
        factor = 1.0 if rescale == "none" else n
        cap = (eps * eq * factor).max()
        in_norms = np.linalg.norm(stream.tokens, axis=1)
        out_norms = np.linalg.norm(out.tokens, axis=1)
        assert np.all(out_norms <= cap * in_norms + 1e-12)


def test_filter_validation():
    stream = KnowledgeStream(np.ones((2, 2)), "external")
    with pytest.raises(ContractViolationError,
                       match=re.escape("rescale must be one of ('none', 'seq_len')")):
        filter_knowledge(stream, [0.5, 0.5], 0.1, -0.5, rescale="mean")
    with pytest.raises(ContractViolationError, match="eq length 1 != stream token count 2"):
        filter_knowledge(stream, [1.0], 0.1, -0.5)
    with pytest.raises(ContractViolationError, match="probability mass 1.2 not within 1e-9 of 1"):
        filter_knowledge(stream, [0.9, 0.3], 0.1, -0.5)  # mass != 1
    with pytest.raises(ContractViolationError, match="epsilon must be >= 0"):
        filter_knowledge(stream, [0.5, 0.5], -0.1, -0.5)


# ---------------------------------------------------------------------------
# filter profile assembly
# ---------------------------------------------------------------------------

def test_filter_profile_invariants():
    FilterProfile(1, 3, [0.2, -0.2], energy_quotient([0.2, -0.2]), 0.3, -0.4)
    with pytest.raises(ContractViolationError, match="key and offset layer must differ"):
        FilterProfile(2, 2, [0.0], [1.0], 0.0, 0.0)
    with pytest.raises(ContractViolationError, match="probability mass 1.2 not within 1e-9 of 1"):
        FilterProfile(1, 2, [0.0, 0.0], [0.9, 0.3], 0.0, 0.0)
    with pytest.raises(ContractViolationError, match="epsilon must be >= 0"):
        FilterProfile(1, 2, [0.0, 0.0], [0.5, 0.5], -0.1, -0.5)
    with pytest.raises(ContractViolationError,
                       match="epsilon must be zero when the gate is inactive"):
        FilterProfile(1, 2, [0.0, 0.0], [0.5, 0.5], 0.2, 0.0)  # gate off, eps on
    with pytest.raises(ContractViolationError, match="delta_a and eq lengths differ"):
        FilterProfile(1, 2, [0.0], [0.5, 0.5], 0.0, 0.0)


def test_compute_filter_profile_favours_key_attended_tokens():
    n = 4
    key_pattern = np.zeros((1, n, n))
    key_pattern[0, :, 2] = 1.0  # key layer stares at position 2
    offset_pattern = np.full((1, n, n), 1 / n)
    trace = fake_trace([offset_pattern, key_pattern])
    cls = Calibration(key_layer=1, offset_layer=0, entropy_orig=1.0, entropy_offset=0.5)
    profile = compute_filter_profile(trace, cls, (1, 4), entropy_orig=1.0,
                                     entropy_offset=0.5, lam=2.0)
    assert profile.delta_a == pytest.approx(
        list(np.full(3, 1 / n) - np.array([0.0, 1.0, 0.0])))
    assert np.argmax(profile.eq) == 1  # span position of token 2
    assert profile.epsilon == pytest.approx(math.log(1.5))
    doc = profile.to_json()
    assert doc["key_layer"] == 1 and doc["offset_layer"] == 0
    assert doc["eq"] == pytest.approx(list(profile.eq))
    assert FilterProfile.from_json(json.loads(json.dumps(doc))).to_json() == doc
    with pytest.raises(ContractViolationError, match="eq"):
        FilterProfile.from_json({**doc, "eq": "uniform"})
    with pytest.raises(ContractViolationError, match="differ"):
        FilterProfile.from_json({**doc, "key_layer": 0})  # the constructor's own check


def test_compute_filter_profile_refuses_an_entropy_pair_not_its_calibrations():
    n = 4
    trace = fake_trace([np.full((1, n, n), 1 / n)] * 2)
    cls = Calibration(key_layer=1, offset_layer=0, entropy_orig=1.0, entropy_offset=0.5)
    for pair in ((1.0, 0.25), (2.0, 0.5), (0.5, 1.0)):
        with pytest.raises(ContractViolationError, match=re.escape(
                f"entropy pair {pair} is not the calibration's (1.0, 0.5)")):
            compute_filter_profile(trace, cls, (1, 4), *pair)
