"""End-to-end pipeline tests: config handling, gating, evaluation, conversion."""
import dataclasses
import gc
import json
import os
import re
import types
import weakref

import numpy as np
import pytest

from dualstream import cli, pipeline
from dualstream.dataset import QARecord, Vocab, make_question
from dualstream.detector import detect
from dualstream.errors import ContractViolationError, write_jsonl
from dualstream.filtering import PruningSweep, entropy_gate
from dualstream.fixtures import (
    KEY_LAYER,
    OFFSET_LAYER,
    build_copier_params,
    build_fixture_model,
    fixture_dataset,
)
from dualstream.fusion import save_dssp_params
from dualstream.model import fused_input, generate_from, infer, logit_lens, save_model
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
    for bad, refused in ((dict(delta=0.0), "delta must be finite and > 0"),
                         (dict(aggregation="median"), "aggregation must be one of"),
                         (dict(lam=-1.0), "lam must be finite and > 0"),
                         (dict(top_t=0), "top_t must lie in 1..2**53"),
                         (dict(rescale="l2"), "rescale must be one of"),
                         (dict(mu=1.5), "mu must lie in (0, 1)"),
                         (dict(nu=-0.2), "nu must be finite and >= 0"),
                         (dict(lam="80"), "field 'lam': expected float, got str"),
                         (dict(seed=1.5), "field 'seed': expected int, got float"),
                         (dict(top_t=2.0), "field 'top_t': expected int, got float"),
                         (dict(delta=True), "field 'delta': expected float, got bool"),
                         (dict(force_retrieval=1),
                          "field 'force_retrieval': expected bool, got int"),
                         (dict(out_dir=None), "field 'out_dir': expected str, got NoneType"),
                         (dict(lam=10**400), "field 'lam': int too large to convert to float"),
                         (dict(top_t=2**53 + 1), "top_t must lie in 1..2**53")):
        with pytest.raises(ContractViolationError, match=re.escape(refused)):
            RunConfig(**good, **bad)
    assert RunConfig(**good, top_t=2**53).top_t == 2**53   # the largest a float64 holds exactly
    with pytest.raises(ContractViolationError, match="field 'budget': RunConfig has no such field"):
        RunConfig.from_json({**good, "budget": 3})


def test_load_config_requires_existing_checkpoints(tmp_path, config):
    doc = config.to_json()
    doc["dssp_checkpoint"] = str(tmp_path / "missing.bin")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    refused = f"dssp_checkpoint path does not exist: {doc['dssp_checkpoint']}"
    with pytest.raises(ContractViolationError, match=re.escape(refused)):
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
    with pytest.raises(ContractViolationError,
                       match="checkpoint metadata has no vocabulary to build probe questions from"):
        load_bundle(cfg)
    # such a checkpoint calibrates only on probe questions the caller supplies
    loaded, vocab = load_host(cfg)
    assert vocab is None
    assert calibrate(loaded, probe_questions(layout.vocab)).offset_layer == OFFSET_LAYER


def test_load_host_refuses_a_vocabulary_larger_than_the_host(host, tmp_path):
    """A sidecar vocabulary must fit the host's ``vocab_size``; the refusal names the
    sidecar and both sizes, and a vocabulary that fits loads."""
    model, layout = host
    mpath = str(tmp_path / "wide.bin")
    save_model(model, mpath, dtype="f64",
               meta=vocab_meta(Vocab(n_subjects=300, n_objects=4, n_junk=80)))
    with pytest.raises(ContractViolationError, match=re.escape(
            f"{mpath}.json: meta.vocab: vocabulary of 391 symbols exceeds the host's "
            f"vocab_size of {model.config.vocab_size}")):
        load_host(RunConfig(model_checkpoint=mpath))
    assert layout.vocab.size == model.config.vocab_size
    save_model(model, mpath, dtype="f64", meta=vocab_meta(Vocab(n_subjects=8)))
    assert load_host(RunConfig(model_checkpoint=mpath))[1] == Vocab(n_subjects=8)


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
    assert set(report) == {"n_records", "answer_token_accuracy", "detection_rate"}


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
        assert trace.to_json() == ref
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


def test_a_flagged_verdict_takes_the_fused_block_only_at_a_layer_it_can_enter(
        records, config, bundle, monkeypatch):
    """Flagged at insertion layer 0, which the fused block cannot enter, a record decodes
    with the block at the offset layer, as a forced run decodes it; flagged at
    ``n_layers - 1``, at that layer.  Each context forward stops at max(key, offset,
    hook layer)."""
    model, cal = bundle.model, bundle.calibration
    top = model.config.n_layers - 1
    flagged_at = iter([0, top])

    def flagging_detect(*args, **kwargs):
        return dataclasses.replace(detect(*args, **kwargs), hallucination=True,
                                   insertion_layer=next(flagged_at))

    stops, hooked, decoded = [], [], []

    def recording_infer(model, tokens, *args, **kwargs):
        if "stop" in kwargs:
            stops.append(kwargs["stop"])
        elif args:
            hooked.append(args[0].dssp_layer)
        return infer(model, tokens, *args, **kwargs)

    def recording_generate_from(model, prompt, first_logits, max_new_tokens, options=None):
        decoded.append(options.dssp_layer)
        return generate_from(model, prompt, first_logits, max_new_tokens, options)

    forced = pipeline_run(records[0], dataclasses.replace(config, force_retrieval=True), bundle)
    monkeypatch.setattr(pipeline, "detect", flagging_detect)
    monkeypatch.setattr(pipeline, "infer", recording_infer)
    monkeypatch.setattr(pipeline, "generate_from", recording_generate_from)
    low, high = run_records(records[:2], config, bundle)
    assert [t.verdict.insertion_layer for t in (low, high)] == [0, top]
    assert stops == [max(cal.key_layer, cal.offset_layer), top]
    assert hooked == decoded == [cal.offset_layer, top]
    assert (low.answer, low.filter.to_json()) == (forced.answer, forced.filter.to_json())
    assert high.filter is not None


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
    with pytest.raises(ContractViolationError,
                       match="filter stage present although the verdict did not gate it in"):
        PipelineTrace(record_id="x", verdict=calm.verdict,
                      filter=flagged.filter, answer=[0])


def test_pipeline_is_deterministic_across_fresh_bundles(records, config, traces):
    again = run_records(records[:6], config, load_bundle(config))
    for t1, t2 in zip(traces, again):
        assert t1.answer == t2.answer
        assert t1.verdict.statistic == t2.verdict.statistic
        assert t1.verdict.insertion_layer == t2.verdict.insertion_layer


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


@pytest.mark.parametrize("forced", [False, True])
def test_a_mixed_corpus_run_equals_its_records_run_alone(mixed, config, bundle, forced):
    """``run_records`` over a corpus of mixed shapes gives each record the trace it
    gets alone, wall-clock ``timings`` aside; its timings name the stages the record ran."""
    cfg = dataclasses.replace(config, force_retrieval=forced)
    vocab, cal = bundle.vocab, bundle.calibration
    traces = run_records(mixed, cfg, bundle)
    alone = [pipeline_run(r, cfg, bundle) for r in mixed]
    assert [t.to_json() for t in traces] == [t.to_json() for t in alone]
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
    """With two bad records, a stage refuses the first one and runs no host pass;
    the context forward's reader refuses at the call, before its loop starts."""
    cfg = dataclasses.replace(config, force_retrieval=True)
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
                pipeline.read_evidence(bundle.model, corpus, bundle.vocab,
                                       dict.fromkeys(range(len(corpus)), 3))


@pytest.mark.parametrize("documents", [[], [[]]])
def test_a_record_with_no_evidence_is_refused_by_name_before_any_context_forward(
        mixed, config, bundle, monkeypatch, documents):
    """A retrieved record must carry evidence tokens: the context forward's reader (at
    the call), a forced run and the training examples refuse one without, naming it,
    before any context forward; the detector still takes it."""
    model, vocab = bundle.model, bundle.vocab
    empty = dataclasses.replace(mixed[0], record_id="bare", documents=documents,
                                noise_mask=None)
    corpus = [mixed[0], empty]        # one question length: one detection block
    [(verdict, _)] = pipeline.detect_stage(
        model, pipeline.question_pairs(model, [empty], vocab), config)
    assert verdict.statistic >= 0
    calls = []

    def counting_infer(*args, **kwargs):
        calls.append("stop" in kwargs)     # only the context forward passes a stop
        return infer(*args, **kwargs)

    monkeypatch.setattr(pipeline, "infer", counting_infer)
    forced = dataclasses.replace(config, force_retrieval=True)
    for run, passes in (
            (lambda: pipeline.read_evidence(model, corpus, vocab, dict.fromkeys(range(2), 3)), 0),
            (lambda: make_train_examples(model, corpus, vocab, OFFSET_LAYER), 0),
            (lambda: run_records(corpus, forced, bundle), 1)):    # the detection pass only
        calls.clear()
        with pytest.raises(ContractViolationError, match="record 'bare' has no evidence"):
            run()
        assert calls == [False] * passes


def test_the_host_loader_and_the_evidence_reader_refuse_what_they_lack(mixed, bundle):
    with pytest.raises(ContractViolationError, match="config names no checkpoint pair to load"):
        load_bundle(RunConfig())
    with pytest.raises(ContractViolationError, match="config names no model checkpoint"):
        pipeline.load_host(RunConfig())
    with pytest.raises(ContractViolationError,
                       match="retrieval path needs the checkpoint vocabulary to build context"):
        make_train_examples(bundle.model, mixed, None, OFFSET_LAYER)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------
# Windows of 5 records cut the mixed corpus's blocks of 16 and span 8 windows.

@pytest.mark.parametrize("forced", [False, True])
def test_a_windowed_run_equals_one_window_and_each_record_alone(mixed, config, bundle,
                                                                monkeypatch, forced):
    cfg = dataclasses.replace(config, force_retrieval=forced)
    assert len(mixed) < pipeline.WINDOW_RECORDS
    whole = [t.to_json() for t in run_records(mixed, cfg, bundle)]
    monkeypatch.setattr(pipeline, "WINDOW_RECORDS", 5)
    windowed = [t.to_json() for t in run_records(mixed, cfg, bundle)]
    alone = [pipeline_run(r, cfg, bundle).to_json() for r in mixed]
    assert windowed == whole == alone


@pytest.mark.parametrize("forced", [False, True])
def test_a_record_gets_an_even_share_of_its_windows_time_in_each_stage(mixed, config, bundle,
                                                                       monkeypatch, forced):
    """The clock is read four times per window: before detection, after it, after the
    filter stage and after the decode.  A record's ``detect`` and ``decode`` are its
    window's span over the window's records, its ``filter`` the span over the window's
    retrieved records; summed over the run, the shares give each stage's total."""
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
    for stage, (span, count) in totals.items():
        shares = [t.timings[stage] for t in traces if stage in t.timings]
        assert len(shares) == count and sum(shares) == pytest.approx(span, rel=1e-12)


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


@pytest.mark.parametrize("run", ["forced", "train_examples", "filter_command", "kept"])
def test_no_context_trace_is_alive_while_the_next_block_runs(mixed, config, bundle,
                                                             monkeypatch, tmp_path, run):
    """Counted at every context forward: the evidence loop has dropped the previous
    block's trace before the next block runs, and no trace outlives the run.  A
    trace counts as alive while any array that holds its data is.  ``kept`` keeps
    every evidence the loop hands out: each one's trace has ended with its turn."""
    refs, seen = [], []

    def alive() -> int:
        return sum(any(ref() is not None for ref in trace) for trace in refs)

    def counting_infer(*args, **kwargs):
        if "stop" not in kwargs:           # only the context forward passes a stop
            return infer(*args, **kwargs)
        seen.append(alive())
        trace = infer(*args, **kwargs)
        refs.append([weakref.ref(a if a.base is None else a.base)
                     for a in trace.hidden + trace.attention])
        return trace

    monkeypatch.setattr(pipeline, "infer", counting_infer)
    if run == "forced":
        run_records(mixed, dataclasses.replace(config, force_retrieval=True), bundle)
    elif run == "train_examples":
        make_train_examples(bundle.model, mixed, bundle.vocab, OFFSET_LAYER)
    elif run == "filter_command":
        (tmp_path / "run.json").write_text(json.dumps(config.to_json()))
        write_jsonl(tmp_path / "mixed.jsonl", [r.to_json() for r in mixed])
        assert cli.main(["filter", "--config", str(tmp_path / "run.json"), "--records",
                         str(tmp_path / "mixed.jsonl"), "--out", str(tmp_path)]) == 0
    else:
        stops = dict.fromkeys(range(len(mixed)), OFFSET_LAYER)
        kept = list(pipeline.read_evidence(bundle.model, mixed, bundle.vocab, stops))
        assert all(evidence.trace is None for _, evidence in kept)
    assert len(seen) >= 3
    assert max(seen) == 0
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
    with pytest.raises(ContractViolationError, match="nothing to evaluate"):
        evaluate([], [])
    with pytest.raises(ContractViolationError, match="traces and records are misaligned"):
        evaluate(traces, records[:-1])
    with pytest.raises(ContractViolationError,
                       match="trace 'rec0001' does not match record 'rec0000'"):
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
        want = fused_input(model, OFFSET_LAYER,
                           ref.hidden[OFFSET_LAYER - 1][len(rec.question) + 1:])
        assert np.array_equal(ex.dhat, want)
        # the host pass train() resumes from
        z = np.exp(ref.logits[-1] - ref.logits[-1].max())
        assert np.array_equal(ex.base, z / z.sum())
        layer, hidden = ex.resume
        assert layer == OFFSET_LAYER
        assert np.array_equal(hidden, ref.hidden[OFFSET_LAYER - 1])
        assert hidden.base is None and ex.base.base is None   # no view pins a trace


@pytest.mark.parametrize("layer", [0, 6, 7])
def test_make_train_examples_refuses_a_bad_layer_before_any_host_pass(host, records,
                                                                     monkeypatch, layer):
    """Layer 0, the host's depth 6 and one past it are refused with the insertion-layer
    message, with no context forward run, never as an ``IndexError`` after one."""
    model, layout = host
    calls = []
    monkeypatch.setattr(pipeline, "infer", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ContractViolationError,
                       match=re.escape(f"insertion layer {layer} outside 1..5")):
        make_train_examples(model, records[:4], layout.vocab, layer)
    assert calls == []


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
