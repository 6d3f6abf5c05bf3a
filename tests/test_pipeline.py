"""End-to-end pipeline tests: config handling, gating, evaluation, conversion."""
import dataclasses
import gc
import json
import os
import types
import weakref

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
from dualstream.model import infer, logit_lens, save_model
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
from dualstream.training import Hyperparams, train
from taped_host import taped_forward

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
                dict(force_retrieval=1), dict(out_dir=None), dict(lam=10**400),
                dict(top_t=2**53 + 1)):
        with pytest.raises(ContractViolationError):
            RunConfig(**good, **bad)
    assert RunConfig(**good, top_t=2**53).top_t == 2**53   # the largest a float64 holds exactly
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
        # the record's context forward: a one-row batch of its context, with no hook
        context = [(k, out) for a, k, out in calls if list(map(list, a[1])) == [ctx]
                   and len(a) == 2]
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
    trace = infer(model, toks)
    with pytest.raises(ContractViolationError):
        offset_layer_stream(model, trace, (5, len(toks)), 0)


@pytest.mark.parametrize("stop, layer", [(2, 3), (None, 6), (None, 7)])
def test_offset_layer_stream_names_a_layer_the_trace_does_not_reach(host, records, stop, layer):
    model, layout = host
    trace = infer(model, context_tokens(records[0], layout.vocab), stop=stop)
    with pytest.raises(ContractViolationError, match=f"fused layer {layer} .*trace holds"):
        offset_layer_stream(model, trace, (5, 9), layer)


# ---------------------------------------------------------------------------
# batched runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed(host):
    """Fixture records reshaped into a corpus that mixes question lengths (4 and 6),
    context lengths (10, 12, 20 and 22), one- and two-token answers, and variants
    the detector flags at insertion layers 1, 3 and 4 (the offset layer is 3)."""
    _, layout = host
    rng = np.random.default_rng(7)
    out = []
    for j, r in enumerate(fixture_dataset(40, noise_rate=0.5, seed=3)):
        question, variant = list(r.question), list(r.variant)
        if j % 3 == 1:
            extra = [int(t) for t in rng.integers(0, layout.vocab.size, 2)]
            question, variant = extra + question, extra[::-1] + variant
        if j % 5 == 2:
            variant = [int(t) for t in rng.integers(0, layout.vocab.size, len(question))]
        documents = [list(d) for d in r.documents][:1 if j % 4 == 3 else None]
        answer = list(r.answer) + ([int(rng.integers(0, layout.vocab.size))] if j % 6 == 0 else [])
        out.append(QARecord(f"mix{j}", question, answer, documents, variant))
    return out


def _without_timings(trace: PipelineTrace) -> dict:
    doc = trace.to_json()
    doc.pop("timings")
    return doc


@pytest.mark.parametrize("forced", [False, True])
def test_a_mixed_corpus_run_equals_its_records_run_alone(mixed, config, bundle, forced):
    """``run_records`` over a corpus of mixed shapes gives each record the trace it
    gets alone, ``timings`` aside; its timings name the stages the record ran."""
    cfg = dataclasses.replace(config, force_retrieval=forced)
    vocab, cal = bundle.vocab, bundle.calibration
    traces = run_records(mixed, cfg, bundle)
    alone = [pipeline_run(r, cfg, bundle) for r in mixed]
    assert [_without_timings(t) for t in traces] == [_without_timings(t) for t in alone]
    for trace in traces:
        stages = ["detect", "filter", "decode"] if trace.filter else ["detect", "decode"]
        assert list(trace.timings) == stages
    # the corpus mixes what it should, and its blocks hold more than one row
    retrieved = [(r, t) for r, t in zip(mixed, traces) if t.filter is not None]
    hooks = {t.verdict.insertion_layer if t.verdict.hallucination and t.verdict.insertion_layer
             else cal.offset_layer for _, t in retrieved}
    assert {len(r.question) for r in mixed} == {4, 6}
    assert {len(context_tokens(r, vocab)) for r, _ in retrieved} == {10, 12, 20, 22}
    assert {t.verdict.hallucination for t in traces} == {False, True}
    assert hooks == {1, OFFSET_LAYER, 4}
    assert len(retrieved) == (len(mixed) if forced else 19)
    plain = [r for r, t in zip(mixed, traces) if t.filter is None]
    assert any(len(r.answer) == 2 for r, _ in retrieved)
    assert any(len(r.answer) == 2 for r in plain) == (not forced)


def test_make_train_examples_on_a_mixed_corpus_equal_its_records_alone(host, mixed):
    model, layout = host
    examples = make_train_examples(model, mixed, layout.vocab, OFFSET_LAYER)
    for record, ex in zip(mixed, examples, strict=True):
        [want] = make_train_examples(model, [record], layout.vocab, OFFSET_LAYER)
        assert (list(ex.tokens), ex.answer_id) == (list(want.tokens), want.answer_id)
        assert ex.resume[0] == want.resume[0]
        for got, ref in ((ex.dhat, want.dhat), (ex.base, want.base),
                         (ex.resume[1], want.resume[1])):
            assert np.array_equal(got, ref)
            assert got.base is None        # owns its data: no view pins a block's trace


@pytest.mark.parametrize("forced, calls", [(False, 4 + 2 + 2), (True, 4 + 4 + 4)])
def test_run_records_runs_one_host_pass_per_block(config, bundle, monkeypatch, forced, calls):
    """64 fixture records share one question length, context length, stop and hook
    layer, so each stage runs ceil(rows / BLOCK_RECORDS) passes: detection 4, and the
    context forward and the fused decode 2 each in a gated run (32 flagged records)
    and 4 each in a forced one."""
    records = fixture_dataset(64, noise_rate=1.0, seed=0)
    cfg = dataclasses.replace(config, force_retrieval=forced)
    rows = []

    def counting_infer(model, tokens, *args, **kwargs):
        rows.append(len(tokens))
        return infer(model, tokens, *args, **kwargs)

    monkeypatch.setattr(pipeline, "infer", counting_infer)
    traces = run_records(records, cfg, bundle)
    assert sum(t.filter is not None for t in traces) == (64 if forced else 32)
    assert len(rows) == calls
    assert rows[:4] == [2 * pipeline.BLOCK_RECORDS] * 4       # questions and their variants
    assert set(rows[4:]) == {pipeline.BLOCK_RECORDS}


def test_a_stage_checks_every_record_before_its_first_host_pass(mixed, config, bundle,
                                                               monkeypatch):
    """With two bad records, a stage refuses the first one and runs no host pass."""
    cfg = dataclasses.replace(config, force_retrieval=True)
    vocab, cal = bundle.vocab, bundle.calibration
    bad_answer = dataclasses.replace(mixed[3], answer=[10**12])
    bad_question = dataclasses.replace(mixed[1], question=[-1] * 4, variant=[-1] * 4)
    bad_document = dataclasses.replace(mixed[2], documents=[[5, -2]])

    def no_pass(*args, **kwargs):
        raise AssertionError("a host pass ran before every record was checked")

    monkeypatch.setattr(pipeline, "infer", no_pass)
    for corpus, stage, refused in (
            ([mixed[0], bad_answer, bad_question], "detect", 10**12),
            ([mixed[0], bad_question, bad_answer], "detect", -1),
            ([mixed[0], bad_document, bad_answer], "filter", -2),
            ([mixed[0], bad_answer, bad_document], "filter", 10**12)):
        with pytest.raises(ContractViolationError, match=f"token id {refused} outside"):
            if stage == "detect":
                run_records(corpus, cfg, bundle)
            else:
                pipeline.filter_stage(bundle.model, corpus, vocab, cal, cfg.lam,
                                      dict.fromkeys(range(len(corpus)), 3))


@pytest.mark.parametrize("documents", [[], [[]]])
def test_a_record_with_no_evidence_is_refused_by_name_before_any_context_forward(
        mixed, config, bundle, monkeypatch, documents):
    """A retrieved record must carry evidence tokens: the filter, a forced run and the
    training examples refuse one without, naming it, before any context forward; the
    detector still takes it."""
    model, vocab, cal = bundle.model, bundle.vocab, bundle.calibration
    empty = dataclasses.replace(mixed[0], record_id="bare", documents=documents,
                                noise_mask=None)
    corpus = [mixed[0], empty]        # one question length: one detection block
    verdict, _ = pipeline.detect_stage(model, [empty], vocab, config)[0]
    assert verdict.statistic >= 0
    calls = []

    def counting_infer(*args, **kwargs):
        calls.append("stop" in kwargs)     # only the context forward passes a stop
        return infer(*args, **kwargs)

    monkeypatch.setattr(pipeline, "infer", counting_infer)
    forced = dataclasses.replace(config, force_retrieval=True)
    for run, passes in (
            (lambda: pipeline.filter_stage(model, corpus, vocab, cal, config.lam,
                                           dict.fromkeys(range(2), 3)), 0),
            (lambda: make_train_examples(model, corpus, vocab, OFFSET_LAYER), 0),
            (lambda: run_records(corpus, forced, bundle), 1)):    # the detection pass only
        calls.clear()
        with pytest.raises(ContractViolationError, match="record 'bare' has no evidence"):
            run()
        assert calls == [False] * passes


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------
# Windows of 5 records cut the mixed corpus's blocks of 16 and span 8 windows.

@pytest.mark.parametrize("forced", [False, True])
def test_a_windowed_run_equals_one_window_and_each_record_alone(mixed, config, bundle,
                                                                monkeypatch, forced):
    cfg = dataclasses.replace(config, force_retrieval=forced)
    assert len(mixed) < pipeline.WINDOW_RECORDS
    whole = [_without_timings(t) for t in run_records(mixed, cfg, bundle)]
    monkeypatch.setattr(pipeline, "WINDOW_RECORDS", 5)
    windowed = [_without_timings(t) for t in run_records(mixed, cfg, bundle)]
    alone = [_without_timings(pipeline_run(r, cfg, bundle)) for r in mixed]
    assert windowed == whole == alone


@pytest.mark.parametrize("forced", [False, True])
def test_a_record_gets_an_even_share_of_its_windows_time_in_each_stage(mixed, config, bundle,
                                                                       monkeypatch, forced):
    """The clock is read four times per window: before detection, after it, after the
    filter stage and after the decode.  A record's ``detect`` and ``decode`` are its
    window's span over the window's records, its ``filter`` the span over the window's
    retrieved records; ``evaluate`` then gives each stage's total over its count."""
    cfg = dataclasses.replace(config, force_retrieval=forced)
    reads = []

    def clock() -> float:
        reads.append(float(len(reads) ** 2))     # every span differs from every other
        return reads[-1]

    monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(perf_counter=clock))
    monkeypatch.setattr(pipeline, "WINDOW_RECORDS", 24)
    traces = run_records(mixed, cfg, bundle)
    assert len(reads) == 8
    totals = {"detect": [0.0, 0], "filter": [0.0, 0], "decode": [0.0, 0]}
    for w, window in enumerate((traces[:24], traces[24:])):
        t0, t1, t2, t3 = reads[4 * w:4 * w + 4]
        spans = {"detect": (t1 - t0, len(window)), "decode": (t3 - t2, len(window)),
                 "filter": (t2 - t1, sum(t.filter is not None for t in window))}
        assert 0 < spans["filter"][1] <= len(window)
        for trace in window:
            stages = ["detect", "filter", "decode"] if trace.filter else ["detect", "decode"]
            assert trace.timings == {k: spans[k][0] / spans[k][1] for k in stages}
            assert list(trace.timings) == stages
        for stage, (span, count) in spans.items():
            totals[stage][0] += span
            totals[stage][1] += count
    assert {t.filter is None for t in traces} == ({False} if forced else {False, True})
    means = evaluate(traces, mixed)["mean_stage_times"]
    assert means == pytest.approx({k: span / count for k, (span, count) in totals.items()},
                                  rel=1e-12)


@pytest.mark.parametrize("forced", [False, True])
def test_no_more_than_one_window_of_fusion_states_is_alive(mixed, config, bundle, monkeypatch,
                                                           forced):
    """Counted at every host pass: a window's fusion states are gone before the
    next window's first pass."""
    cfg = dataclasses.replace(config, force_retrieval=forced)
    refs, seen = [], []

    def alive() -> int:
        return sum(ref() is not None for ref in refs)

    class CountedFusion(pipeline._Fusion):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    def counting_infer(*args, **kwargs):
        seen.append(alive())
        return infer(*args, **kwargs)

    monkeypatch.setattr(pipeline, "WINDOW_RECORDS", 5)
    monkeypatch.setattr(pipeline, "_Fusion", CountedFusion)
    monkeypatch.setattr(pipeline, "infer", counting_infer)
    traces = run_records(mixed, cfg, bundle)
    assert len(refs) == sum(t.filter is not None for t in traces) >= 3 * 5
    assert 0 < max(seen) <= 5
    assert alive() == 0


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("case", ["bad_question", "underivable_variant"])
def test_a_bad_question_in_the_last_window_fails_before_any_host_pass(mixed, config, bundle,
                                                                     monkeypatch, forced, case):
    cfg = dataclasses.replace(config, force_retrieval=forced)
    last = mixed[-1]
    if case == "bad_question":
        corpus = mixed[:-1] + [dataclasses.replace(last, question=[-1] * 4)]
        message = "token id -1 outside"
    else:  # every other record carries its variant
        bundle = dataclasses.replace(bundle, vocab=None)
        corpus = mixed[:-1] + [dataclasses.replace(last, variant=None)]
        message = "record has no variant and no vocabulary"
    calls = []
    monkeypatch.setattr(pipeline, "WINDOW_RECORDS", 5)
    monkeypatch.setattr(pipeline, "infer", lambda *a, **k: calls.append(a))
    with pytest.raises(ContractViolationError, match=message):
        run_records(corpus, cfg, bundle)
    assert calls == []


@pytest.mark.parametrize("window, refused", [
    (5, "prompt plus max_new_tokens exceeds max_seq"),     # the decode of window 1
    (pipeline.WINDOW_RECORDS, "token id -2 outside"),       # the filter of the one window
])
def test_an_error_after_detection_comes_from_the_first_window_that_has_one(
        mixed, config, bundle, monkeypatch, window, refused):
    """A forced run whose first record's context plus answer outgrows max_seq, and
    whose eighth has a bad document: the earlier window's error wins."""
    cfg = dataclasses.replace(config, force_retrieval=True)
    vocab, max_seq = bundle.vocab, bundle.model.config.max_seq
    first = next(r for r in mixed if len(context_tokens(r, vocab)) == 20)
    long_answer = dataclasses.replace(first, answer=list(first.answer) * (max_seq - 20 + 1))
    corpus = [long_answer] + mixed[1:7] + [dataclasses.replace(mixed[7], documents=[[5, -2]])]
    monkeypatch.setattr(pipeline, "WINDOW_RECORDS", window)
    with pytest.raises(ContractViolationError, match=refused):
        run_records(corpus, cfg, bundle)


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
        ref = taped_forward(model, ctx)
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
    ref = taped_forward(model, context_tokens(records[0], layout.vocab))
    for layer in range(1, model.config.n_layers):
        examples = make_train_examples(model, records[:2], layout.vocab, layer)
        assert [ex.resume[0] for ex in examples] == [layer, layer]
        assert np.array_equal(examples[0].resume[1], ref.hidden[layer - 1])


# each call leaves no reference cycle behind: reference counting frees all it allocates,
# so a run's peak memory is its live data, not the cyclic collector's backlog
_CYCLE_FREE_CALLS = {
    "train": lambda host, records, config, bundle: train(
        host[0], build_copier_params(host[1]),
        make_train_examples(host[0], records[:4], host[1].vocab, OFFSET_LAYER),
        Hyperparams(epochs=2), insertion_layer=OFFSET_LAYER),
    "gated_pipeline_run": lambda host, records, config, bundle: [
        pipeline_run(r, config, bundle) for r in records[:4]],
    "forced_pipeline_run": lambda host, records, config, bundle: [
        pipeline_run(r, dataclasses.replace(config, force_retrieval=True), bundle)
        for r in records[:4]],
    "load_bundle": lambda host, records, config, bundle: load_bundle(config),
}


@pytest.mark.parametrize("case", sorted(_CYCLE_FREE_CALLS))
def test_a_call_leaves_no_garbage_for_the_cyclic_collector(host, records, config, bundle, case):
    gc.collect()
    gc.disable()
    try:
        _CYCLE_FREE_CALLS[case](host, records, config, bundle)
        assert gc.collect() == 0
    finally:
        gc.enable()
