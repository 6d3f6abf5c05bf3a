"""End-to-end pipeline tests: config handling, gating, evaluation, conversion."""
import dataclasses
import json
import os

import numpy as np
import pytest

from dualstream import pipeline
from dualstream.dataset import QARecord, make_question
from dualstream.errors import ContractViolationError
from dualstream.filtering import PruningSweep, entropy_gate
from dualstream.fixtures import (
    KEY_LAYER,
    OFFSET_LAYER,
    build_copier_params,
    build_fixture_model,
    fixture_dataset,
)
from dualstream.fusion import save_dssp_params
from dualstream.model import forward, infer, logit_lens, save_model
from dualstream.pipeline import (
    Bundle,
    PipelineTrace,
    RunConfig,
    calibrate,
    context_tokens,
    evaluate,
    load_bundle,
    load_config,
    load_host,
    make_train_examples,
    offset_layer_stream,
    pipeline_run,
    probe_questions,
    run_records,
    vocab_meta,
    write_config_echo,
)

GATE_EPSILON = 0.35667494393873234


@pytest.fixture(scope="module")
def host():
    return build_fixture_model()


@pytest.fixture(scope="module")
def checkpoints(host, tmp_path_factory):
    model, layout = host
    d = tmp_path_factory.mktemp("ckpt")
    mpath, dpath = str(d / "host.bin"), str(d / "fused.bin")
    save_model(model, mpath, dtype="f64", meta=vocab_meta(layout.vocab))
    save_dssp_params(dpath, build_copier_params(layout))
    return mpath, dpath


@pytest.fixture(scope="module")
def config(checkpoints):
    mpath, dpath = checkpoints
    return RunConfig(model_checkpoint=mpath, dssp_checkpoint=dpath, lam=80.0)


@pytest.fixture(scope="module")
def bundle(config):
    return load_bundle(config)


@pytest.fixture(scope="module")
def records():
    return fixture_dataset(16, noise_rate=1.0, seed=0)


@pytest.fixture(scope="module")
def traces(records, config, bundle):
    return run_records(records, config, bundle)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_json_round_trip(config):
    doc = config.to_json()
    assert RunConfig.from_json(doc) == config
    assert set(doc) == {f.name for f in dataclasses.fields(RunConfig)}


def test_config_rejects_out_of_range_fields(checkpoints):
    mpath, dpath = checkpoints
    good = dict(model_checkpoint=mpath, dssp_checkpoint=dpath)
    for bad in (dict(delta=0.0), dict(aggregation="median"), dict(lam=-1.0),
                dict(top_t=0), dict(rescale="l2"), dict(mu=1.5), dict(nu=-0.2),
                dict(lam="80"), dict(seed=1.5), dict(top_t=2.0), dict(delta=True),
                dict(force_retrieval=1), dict(out_dir=None), dict(lam=10**400)):
        with pytest.raises(ContractViolationError):
            RunConfig(**good, **bad)
    with pytest.raises(ContractViolationError):
        RunConfig.from_json({**good, "budget": 3})


def test_load_config_requires_existing_checkpoints(tmp_path, config):
    doc = config.to_json()
    doc["dssp_checkpoint"] = str(tmp_path / "missing.bin")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError):
        load_config(path)


def test_config_echo_reproduces_the_config(tmp_path, config):
    echo = write_config_echo(config, tmp_path / "out")
    assert os.path.basename(echo) == "config_echo.json"
    # the echo is itself a loadable config producing an equal RunConfig
    assert load_config(echo) == config


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_bundle_calibration_matches_planted_structure(bundle):
    cal = bundle.calibration
    assert cal.key_layer == KEY_LAYER
    assert cal.offset_layer == OFFSET_LAYER
    assert cal.entropy_orig == pytest.approx(3.5, abs=1e-9)
    assert cal.entropy_offset == pytest.approx(2.0, abs=1e-9)
    epsilon, delta_entropy = entropy_gate(cal.entropy_orig, cal.entropy_offset)
    assert epsilon == pytest.approx(GATE_EPSILON, abs=1e-12)
    assert delta_entropy == pytest.approx(-1.5, abs=1e-9)


def test_probe_questions_cover_both_subject_halves(host):
    _, layout = host
    v = layout.vocab
    qs = probe_questions(v)
    subjects = [q[3] for q in qs]
    assert len(subjects) == len(set(subjects))
    n = v.n_subjects
    assert subjects == list(v.subject_ids[:8]) + list(v.subject_ids[n // 2:n // 2 + 8])
    assert all(q == make_question(v, s) for q, s in zip(qs, subjects))


def test_bundle_without_vocab_needs_probe_queries(host, tmp_path, checkpoints):
    model, layout = host
    mpath = str(tmp_path / "bare.bin")
    save_model(model, mpath, dtype="f64")
    cfg = RunConfig(model_checkpoint=mpath, dssp_checkpoint=checkpoints[1])
    with pytest.raises(ContractViolationError):
        load_bundle(cfg)
    # such a checkpoint calibrates only on probe questions the caller supplies
    loaded, vocab = load_host(cfg)
    assert vocab is None
    assert calibrate(loaded, probe_questions(layout.vocab)).offset_layer == OFFSET_LAYER


def test_calibration_refuses_a_zero_baseline_entropy_at_load_time(config, host, monkeypatch):
    """A sweep with separable layers but a baseline entropy the filter gate cannot
    divide by is refused by ``calibrate``, so ``load_bundle`` fails before any record."""
    sweep = PruningSweep(0.0, [0.5, -0.3, 0.2, 0.1, 0.0])
    monkeypatch.setattr(pipeline, "pruning_sweep", lambda model, queries: sweep)
    model, layout = host
    with pytest.raises(ContractViolationError, match="baseline entropy"):
        calibrate(model, probe_questions(layout.vocab))
    with pytest.raises(ContractViolationError, match="baseline entropy"):
        load_bundle(config)


# ---------------------------------------------------------------------------
# per-record flow
# ---------------------------------------------------------------------------

def test_gated_run_filters_only_flagged_records(records, traces):
    for rec, trace in zip(records, traces):
        assert trace.record_id == rec.record_id
        if trace.verdict.hallucination:
            assert trace.filter is not None
            assert "filter" in trace.timings
        else:
            assert trace.filter is None
            assert "filter" not in trace.timings
        assert trace.to_json()["filter"] == ("skipped" if trace.filter is None
                                             else trace.to_json()["filter"])
        assert {"detect", "decode"} <= set(trace.timings)


def test_gated_run_answers_every_record(records, traces):
    report = evaluate(traces, records)
    assert report["answer_token_accuracy"] == 1.0
    assert report["detection_rate"] == 0.5
    assert set(report["mean_stage_times"]) == {"detect", "filter", "decode"}


def test_forced_retrieval_filters_clean_records_too(records, config, bundle):
    cfg = dataclasses.replace(config, force_retrieval=True)
    clean = next(r for r in records
                 if not pipeline_run(r, config, bundle).verdict.hallucination)
    trace = pipeline_run(clean, cfg, bundle)
    assert not trace.verdict.hallucination
    assert trace.filter is not None and trace.forced
    assert trace.answer == list(clean.answer)


@pytest.mark.parametrize("forced", [False, True])
def test_context_forward_stops_at_the_deepest_layer_read(records, config, bundle, monkeypatch,
                                                         forced):
    """The context forward runs up to layer max(key, offset, hook) and no further,
    the detector reads its (2, n) batch through one logit-lens call, and every
    trace equals the one from a full context forward."""
    cfg = dataclasses.replace(config, force_retrieval=forced)
    cal = bundle.calibration
    vocab = bundle.vocab

    full_forward = lambda *a, **k: infer(*a, **{**k, "stop": None})
    monkeypatch.setattr(pipeline, "infer", full_forward)
    reference = [pipeline_run(r, cfg, bundle).to_json() for r in records]

    calls, lens_calls = [], []

    def recording_infer(*args, **kwargs):
        calls.append((args, kwargs, infer(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(pipeline, "infer", recording_infer)
    monkeypatch.setattr(pipeline, "logit_lens", lambda *a: lens_calls.append(a) or logit_lens(*a))
    retrieved = 0
    for record, ref in zip(records, reference):
        calls.clear()
        lens_calls.clear()
        trace = pipeline_run(record, cfg, bundle)
        got, want = trace.to_json(), dict(ref)
        got.pop("timings"), want.pop("timings")
        assert got == want
        assert len(lens_calls) == 1
        ctx = context_tokens(record, vocab)
        context = [(k, out) for a, k, out in calls if list(a[1]) == ctx and len(a) == 2]
        if trace.filter is None:
            assert context == []
            continue
        retrieved += 1
        hook = cal.offset_layer
        if trace.verdict.hallucination and trace.verdict.insertion_layer >= 1:
            hook = trace.verdict.insertion_layer
        [(kwargs, out)] = context
        stop = max(cal.key_layer, cal.offset_layer, hook)
        assert kwargs["stop"] == stop
        assert (len(out.hidden), len(out.attention), out.logits) == (stop, stop + 1, None)
    assert retrieved == (len(records) if forced else len(records) // 2)


def test_variant_is_derived_when_absent(records, config, bundle):
    rec = records[0]
    stripped = QARecord(record_id=rec.record_id, question=list(rec.question),
                        answer=list(rec.answer),
                        documents=[list(d) for d in rec.documents])
    a = pipeline_run(rec, config, bundle)
    b = pipeline_run(stripped, config, bundle)
    assert a.verdict.statistic == b.verdict.statistic
    assert a.answer == b.answer


def test_trace_json_round_trip(records, config, bundle, traces):
    flagged = next(t for t in traces if t.filter is not None)
    skipped = next(t for t in traces if t.filter is None)
    clean = next(r for r in records if r.record_id == skipped.record_id)
    forced = pipeline_run(clean, dataclasses.replace(config, force_retrieval=True), bundle)
    assert forced.forced and forced.filter is not None
    for trace in (flagged, skipped, forced):
        doc = trace.to_json()
        assert PipelineTrace.from_json(json.loads(json.dumps(doc))).to_json() == doc
    doc = skipped.to_json()
    for field in ("record_id", "verdict", "filter", "answer"):
        with pytest.raises(ContractViolationError, match=field):
            PipelineTrace.from_json({k: v for k, v in doc.items() if k != field})
    with pytest.raises(ContractViolationError, match="answer"):
        PipelineTrace.from_json({**doc, "answer": ["x"]})


def test_trace_invariant_rejects_ungated_filter(traces):
    flagged = next(t for t in traces if t.filter is not None)
    calm = next(t for t in traces if t.filter is None)
    with pytest.raises(ContractViolationError):
        PipelineTrace(record_id="x", verdict=calm.verdict,
                      filter=flagged.filter, answer=[0])


def test_pipeline_is_deterministic_across_fresh_bundles(records, config, traces):
    again = run_records(records[:6], config, load_bundle(config))
    for t1, t2 in zip(traces, again):
        assert t1.answer == t2.answer
        assert t1.verdict.statistic == t2.verdict.statistic
        assert t1.verdict.insertion_layer == t2.verdict.insertion_layer


def test_offset_layer_stream_requires_hideable_layer(host, records):
    model, layout = host
    toks = context_tokens(records[0], layout.vocab)
    trace = forward(model, toks)
    with pytest.raises(ContractViolationError):
        offset_layer_stream(model, trace, (5, len(toks)), 0)


@pytest.mark.parametrize("stop, layer", [(2, 3), (None, 6), (None, 7)])
def test_offset_layer_stream_names_a_layer_the_trace_does_not_reach(host, records, stop, layer):
    model, layout = host
    trace = infer(model, context_tokens(records[0], layout.vocab), stop=stop)
    with pytest.raises(ContractViolationError, match=f"fused layer {layer} .*trace holds"):
        offset_layer_stream(model, trace, (5, 9), layer)


# ---------------------------------------------------------------------------
# evaluation and conversion
# ---------------------------------------------------------------------------

def test_evaluate_rejects_bad_inputs(records, traces):
    with pytest.raises(ContractViolationError):
        evaluate([], [])
    with pytest.raises(ContractViolationError):
        evaluate(traces, records[:-1])
    with pytest.raises(ContractViolationError):
        evaluate([traces[1], traces[0]], records[:2])


def test_make_train_examples_freezes_context_and_evidence(host, records):
    model, layout = host
    v = layout.vocab
    examples = make_train_examples(model, records[:4], v, OFFSET_LAYER)
    for rec, ex in zip(records[:4], examples):
        ctx = context_tokens(rec, v)
        assert list(ex.tokens) == ctx
        assert ex.answer_id == rec.answer[0]
        assert ex.dhat.shape == (len(ctx) - len(rec.question) - 1, layout.d_model)
        ref = forward(model, ctx)
        want = offset_layer_stream(model, ref, (len(rec.question) + 1, len(ctx)), OFFSET_LAYER)
        assert np.array_equal(ex.dhat, want)
        # the host pass train() resumes from
        z = np.exp(ref.logits[-1] - ref.logits[-1].max())
        assert np.array_equal(ex.base, z / z.sum())
        layer, hidden = ex.resume
        assert layer == OFFSET_LAYER
        assert np.array_equal(hidden, ref.hidden[OFFSET_LAYER - 1])
        assert hidden.base is None and ex.base.base is None   # no view pins a trace


def test_make_train_examples_resume_at_every_insertion_layer(host, records):
    """Fusion enters at layer >= 1, so every example carries ``(k, hidden[k - 1])``."""
    model, layout = host
    ref = forward(model, context_tokens(records[0], layout.vocab))
    for layer in range(1, model.config.n_layers):
        examples = make_train_examples(model, records[:2], layout.vocab, layer)
        assert [ex.resume[0] for ex in examples] == [layer, layer]
        assert np.array_equal(examples[0].resume[1], ref.hidden[layer - 1])
