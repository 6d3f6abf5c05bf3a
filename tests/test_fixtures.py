"""Planted-model tests: frozen behaviour of the six-layer fixture host."""
import math

import numpy as np
import pytest

from dualstream import autodiff as ad
from dualstream.autodiff import Tensor
from dualstream.dataset import make_question
from dualstream.detector import detect, divergence_profile, make_variant
from dualstream.filtering import (
    SamplingSpec,
    classify_layers,
    compute_filter_profile,
    entropy_gate,
    filter_knowledge,
    pruning_sweep,
)
from dualstream.fixtures import (
    FILL_AMP,
    KEY_LAYER,
    MAX_SEQ,
    N_LAYERS,
    OFFSET_LAYER,
    TRAIN_INIT_SPUR,
    build_copier_params,
    build_fixture_model,
    build_training_init,
    fixture_dataset,
    fixture_vocab,
    known_subjects,
)
from dualstream.fusion import KnowledgeStream, dssp_update, make_dssp_hook
from dualstream.model import ForwardOptions, forward, generate, layer_distributions
from dualstream.training import Hyperparams, TrainExample, train

# frozen sweep table for the 16-query probe set (8 memorised + 8 novel
# subjects): entropies are exact sums of powers of two, so tolerances are
# tight; layers outside the planted key/offset pair change nothing at all
SWEEP_BASELINE_BITS = 3.5
SWEEP_DELTAS = (0.0, +0.5, 0.0, -1.5, 0.0, 0.0)
GATE_EPSILON = math.log1p(1.5 / 3.5)

LAM = 80.0


@pytest.fixture(scope="module")
def host():
    model, layout = build_fixture_model()
    return model, layout


@pytest.fixture(scope="module")
def probe_sweep(host):
    model, layout = host
    v = layout.vocab
    qsubs = list(v.subject_ids[:8]) + list(v.subject_ids[32:40])
    return pruning_sweep(model, [make_question(v, s) for s in qsubs], SamplingSpec())


def context_tokens(rec, vocab):
    toks = list(rec.question) + [vocab.SEP]
    for d in rec.documents:
        toks += list(d)
    return toks


def external_stream(model, trace, span):
    """Normalised offset-layer input rows for the document span."""
    rows = np.asarray(trace.hidden[OFFSET_LAYER - 1][span[0]:span[1]])
    xn = ad.layer_norm(Tensor(rows),
                       Tensor(model.weights[f"l{OFFSET_LAYER}.ln1.gain"]),
                       Tensor(model.weights[f"l{OFFSET_LAYER}.ln1.bias"]))
    return xn.value


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_layout_and_config(host):
    model, layout = host
    assert model.config.n_layers == N_LAYERS
    assert model.config.d_model == layout.d_model
    assert layout.d_model % model.config.n_heads == 0
    assert model.config.vocab_size == layout.vocab.size
    assert model.config.max_seq == MAX_SEQ
    assert len(known_subjects(layout.vocab)) == layout.vocab.n_subjects // 2


def test_junk_region_maps_stay_in_region(host):
    _, layout = host
    half = layout.half_junk
    for i in range(layout.vocab.n_subjects):
        assert 0 <= layout.junk_a_of(i) < half
        assert half <= layout.junk_b_of(i) < 2 * half


def test_token_rows_share_ballast_and_near_equal_norm(host):
    model, layout = host
    emb = model.weights["tok_emb"]
    assert np.all(emb[:, layout.fill] == FILL_AMP)
    norms = np.linalg.norm(emb, axis=1)
    assert norms.max() - norms.min() < 0.05 * norms.mean()


def test_position_phases_are_mean_free(host):
    model, layout = host
    pos = model.weights["pos_emb"]
    phases = pos[:, layout.phase0:layout.phase0 + 3]
    assert np.max(np.abs(phases.sum(axis=1))) < 1e-12
    # phase energy is identical at every position, so the ramp never skews
    # row norms
    energy = (phases ** 2).sum(axis=1)
    assert np.max(np.abs(energy - energy[0])) < 1e-12


def test_last_layer_is_exactly_inert(host):
    model, layout = host
    q = make_question(layout.vocab, layout.vocab.subject_ids[3])
    base = forward(model, q)
    # removing the last layer is a resume past it from the stream entering it
    removed = forward(model, q, resume=(N_LAYERS, base.hidden[-2]))
    assert np.array_equal(base.logits, removed.logits)


# ---------------------------------------------------------------------------
# readout behaviour
# ---------------------------------------------------------------------------

def test_memorised_subjects_answer_gold_under_both_word_orders(host):
    model, layout = host
    v = layout.vocab
    for s in list(known_subjects(v))[:6]:
        q = make_question(v, s)
        var = make_variant(q, {v.WH}, {v.AUX})
        for toks in (q, var):
            ans = int(np.argmax(forward(model, toks).logits[-1]))
            assert ans == v.gold_object(s)


def test_novel_subjects_answer_order_dependent_junk(host):
    model, layout = host
    v = layout.vocab
    for s in list(v.subject_ids)[32:38]:
        idx = s - v.subject_ids[0]
        q = make_question(v, s)
        var = make_variant(q, {v.WH}, {v.AUX})
        ans_q = int(np.argmax(forward(model, q).logits[-1]))
        ans_var = int(np.argmax(forward(model, var).logits[-1]))
        assert ans_q == v.junk_ids[layout.junk_b_of(idx)]
        assert ans_var == v.junk_ids[layout.junk_a_of(idx)]


def test_neighbour_shift_head_locks_one_position_back(host):
    model, layout = host
    v = layout.vocab
    rec = fixture_dataset(4, noise_rate=1.0, seed=0)[1]
    toks = context_tokens(rec, v)
    trace = forward(model, toks)
    subj_rows = [i for i, t in enumerate(toks) if t in v.subject_ids and i >= 5]
    for row in subj_rows:
        attn = trace.attention[2][0, row]
        assert int(np.argmax(attn)) == row - 1
        assert attn.max() > 0.8


# ---------------------------------------------------------------------------
# layer-pruning sweep
# ---------------------------------------------------------------------------

def test_sweep_matches_frozen_entropy_table(probe_sweep):
    assert probe_sweep.baseline_entropy == pytest.approx(SWEEP_BASELINE_BITS, abs=1e-9)
    assert len(probe_sweep.layer_entropies) == N_LAYERS
    for layer, want in enumerate(SWEEP_DELTAS):
        got = probe_sweep.deltas[layer]
        if want == 0.0:
            assert got == 0.0  # removing an uninvolved layer changes nothing
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_classification_recovers_planted_layers(probe_sweep):
    cls = classify_layers(probe_sweep)
    assert cls.key_layer == KEY_LAYER
    assert cls.offset_layer == OFFSET_LAYER


def test_entropy_gate_opens_at_planted_drop(probe_sweep):
    eps, dh = entropy_gate(probe_sweep.baseline_entropy,
                           float(probe_sweep.layer_entropies[OFFSET_LAYER]))
    assert dh == pytest.approx(-1.5, abs=1e-9)
    assert eps == pytest.approx(GATE_EPSILON, abs=1e-9)


# ---------------------------------------------------------------------------
# paraphrase-divergence detection
# ---------------------------------------------------------------------------

def test_memorised_subjects_are_not_flagged(host):
    model, layout = host
    v = layout.vocab
    for s in list(known_subjects(v))[:4]:
        q = make_question(v, s)
        prof = divergence_profile(layer_distributions(model, q),
                                  layer_distributions(model, make_variant(q, {v.WH}, {v.AUX})))
        verdict = detect(prof)
        assert not verdict.hallucination
        assert verdict.statistic < 1e-3


def test_novel_subjects_are_flagged_at_the_offset_layer(host):
    model, layout = host
    v = layout.vocab
    for s in list(v.subject_ids)[34:38]:
        q = make_question(v, s)
        prof = divergence_profile(layer_distributions(model, q),
                                  layer_distributions(model, make_variant(q, {v.WH}, {v.AUX})))
        verdict = detect(prof)
        assert verdict.hallucination
        assert verdict.statistic > 1.2
        assert verdict.insertion_layer == OFFSET_LAYER
        # the divergence concentrates in the layers at and after the planted
        # scrambler, which is what the tail aggregation rewards
        assert min(prof.values[OFFSET_LAYER:]) > max(prof.values[1:OFFSET_LAYER])


# ---------------------------------------------------------------------------
# knowledge filtering on noised records
# ---------------------------------------------------------------------------

def test_energy_quotient_peaks_on_question_subject_row(host, probe_sweep):
    model, layout = host
    v = layout.vocab
    known = set(known_subjects(v))
    cls = classify_layers(probe_sweep)
    h_orig = probe_sweep.baseline_entropy
    h_off = float(probe_sweep.layer_entropies[OFFSET_LAYER])
    recs = fixture_dataset(16, noise_rate=1.0, seed=0)
    rec = next(r for r in recs if r.question[3] not in known)
    toks = context_tokens(rec, v)
    span = (len(rec.question) + 1, len(toks))
    trace = forward(model, toks)
    prof = compute_filter_profile(trace, cls, span, h_orig, h_off, LAM)
    assert prof.epsilon == pytest.approx(GATE_EPSILON, abs=1e-9)
    # the row carrying the question's subject inside the gold document wins
    gold_subj_row = toks.index(rec.question[3], span[0]) - span[0]
    eq = prof.eq
    assert int(np.argmax(eq)) == gold_subj_row
    assert eq[gold_subj_row] > 0.9
    assert np.delete(eq, gold_subj_row).max() < 0.05


def test_copier_attention_is_uniform_and_update_is_gold_directed(host, probe_sweep):
    model, layout = host
    v = layout.vocab
    known = set(known_subjects(v))
    copier = build_copier_params(layout)
    cls = classify_layers(probe_sweep)
    h_orig = probe_sweep.baseline_entropy
    h_off = float(probe_sweep.layer_entropies[OFFSET_LAYER])
    rec = next(r for r in fixture_dataset(16, noise_rate=1.0, seed=0)
               if r.question[3] not in known)
    toks = context_tokens(rec, v)
    span = (len(rec.question) + 1, len(toks))
    trace = forward(model, toks)
    prof = compute_filter_profile(trace, cls, span, h_orig, h_off, LAM)
    dhat = external_stream(model, trace, span)

    # zero query/key projections make the cross-attention exactly uniform
    assert np.all(copier.wq_c == 0.0) and np.all(copier.wk_c == 0.0)

    filtered = filter_knowledge(KnowledgeStream(dhat, "external"),
                                prof.eq, prof.epsilon, prof.delta_entropy).tokens
    xn = ad.layer_norm(Tensor(np.asarray(trace.hidden[OFFSET_LAYER - 1])),
                       Tensor(model.weights[f"l{OFFSET_LAYER}.ln1.gain"]),
                       Tensor(model.weights[f"l{OFFSET_LAYER}.ln1.bias"]))
    update = dssp_update(xn, Tensor(filtered), copier).value
    obj = update[-1, layout.obj0:layout.obj0 + v.n_objects]
    gold_dim = rec.answer[0] - v.object_ids[0]
    assert int(np.argmax(obj)) == gold_dim
    assert obj[gold_dim] > 3.0 * np.abs(np.delete(obj, gold_dim)).max()


def test_filtered_fusion_answers_gold_where_raw_fusion_fails(host, probe_sweep):
    model, layout = host
    v = layout.vocab
    copier = build_copier_params(layout)
    cls = classify_layers(probe_sweep)
    h_orig = probe_sweep.baseline_entropy
    h_off = float(probe_sweep.layer_entropies[OFFSET_LAYER])
    hits = {"on": [], "off": []}
    for rec in fixture_dataset(12, noise_rate=1.0, seed=0):
        toks = context_tokens(rec, v)
        span = (len(rec.question) + 1, len(toks))
        trace = forward(model, toks)
        prof = compute_filter_profile(trace, cls, span, h_orig, h_off, LAM)
        dhat_raw = external_stream(model, trace, span)
        dhat_on = filter_knowledge(KnowledgeStream(dhat_raw, "external"),
                                   prof.eq, prof.epsilon, prof.delta_entropy).tokens
        for mode, dhat in (("on", dhat_on), ("off", dhat_raw)):
            opts = ForwardOptions(dssp_layer=OFFSET_LAYER,
                                  dssp_hook=make_dssp_hook(dhat, copier))
            ans = generate(model, toks, 1, 0.0, 0, options=opts)[0][0]
            hits[mode].append(ans == rec.answer[0])
    assert all(hits["on"])
    assert not all(hits["off"])


# ---------------------------------------------------------------------------
# training warm start
# ---------------------------------------------------------------------------

def test_training_warm_start_is_seeded_and_planted(host):
    _, layout = host
    a = build_training_init(layout, seed=7)
    b = build_training_init(layout, seed=7)
    c = build_training_init(layout, seed=8)
    assert a.b_o[0, layout.blank_dim] == TRAIN_INIT_SPUR
    for name, arr in a.to_arrays().items():
        assert np.array_equal(arr, getattr(b, name))
    assert any(not np.array_equal(arr, getattr(c, name))
               for name, arr in a.to_arrays().items())


def test_training_reduces_composite_loss_on_fixture_records(host):
    model, layout = host
    v = layout.vocab
    examples = []
    for rec in fixture_dataset(8, noise_rate=0.0, seed=0):
        toks = context_tokens(rec, v)
        trace = forward(model, toks)
        dhat = external_stream(model, trace, (len(rec.question) + 1, len(toks)))
        examples.append(TrainExample(toks, int(rec.answer[0]), dhat,
                                     ad.row_softmax(trace.logits[-1], 1.0),
                                     (OFFSET_LAYER, trace.hidden[OFFSET_LAYER - 1].copy())))
    report = train(model, build_training_init(layout, seed=0), examples,
                   Hyperparams(epochs=3), insertion_layer=OFFSET_LAYER)
    means = report.epoch_mean_losses()
    # short run on a small slice: expect a clear move, not full convergence
    assert means[-1] < 0.9 * means[0]


# ---------------------------------------------------------------------------
# corpus helpers
# ---------------------------------------------------------------------------

def test_fixture_dataset_uses_fixture_vocab_templates():
    v = fixture_vocab()
    records = fixture_dataset(64, noise_rate=1.0, seed=0)
    assert len(records) == 64
    for rec in records[:8]:
        assert rec.question == make_question(v, rec.question[3])
        assert rec.variant is not None
