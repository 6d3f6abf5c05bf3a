"""CLI tests: every subcommand, config echo reproducibility, error lines."""
import contextlib
import dataclasses
import functools
import io
import json
import operator
import os
import pathlib
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
import types
import typing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from dualstream import cli, errors, pipeline
from dualstream.cli import main
from dualstream.dataset import QARecord, Vocab
from dualstream.fixtures import (
    KEY_LAYER,
    OFFSET_LAYER,
    build_copier_params,
    build_fixture_model,
    fixture_dataset,
    fixture_vocab,
)
from dualstream.fusion import DsspParams, load_dssp_params, save_dssp_params
from dualstream.model import ModelConfig, save_model
from dualstream.pipeline import (
    PipelineTrace,
    RunConfig,
    calibrate,
    probe_questions,
    vocab_meta,
)
from dualstream.tensorstore import load_tensors, save_tensors
from random_host import random_host

GATE_EPSILON = 0.35667494393873234
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    model, layout = build_fixture_model()
    d = tmp_path_factory.mktemp("cli")
    mpath, dpath = str(d / "host.bin"), str(d / "fused.bin")
    save_model(model, mpath, dtype="f64", meta=vocab_meta(layout.vocab))
    save_dssp_params(dpath, build_copier_params(layout))
    cfg_path = d / "run.json"
    cfg_path.write_text(json.dumps({
        "model_checkpoint": mpath, "dssp_checkpoint": dpath, "lam": 80.0,
    }))
    rec_path = d / "records.jsonl"
    errors.write_jsonl(rec_path, [r.to_json() for r in fixture_dataset(16, noise_rate=1.0, seed=0)])
    return str(cfg_path), str(rec_path)


def run_cli(*argv):
    return main(list(argv))


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_detect_writes_verdict_lines(setup, tmp_path):
    cfg, recs = setup
    out = tmp_path / "out"
    assert run_cli("detect", "--config", cfg, "--records", recs, "--out", str(out)) == 0
    rows = read_jsonl(out / "detect.jsonl")
    assert len(rows) == 16
    assert sum(r["hallucination"] for r in rows) == 8
    summary = read_json(out / "detect_summary.json")
    assert summary["flagged_rate"] == 0.5
    assert (out / "config_echo.json").exists()
    assert (out / "argv_echo.json").exists()


def test_analyze_layers_recovers_planted_structure(setup, tmp_path):
    cfg, _ = setup
    out = tmp_path / "out"
    assert run_cli("analyze-layers", "--config", cfg, "--out", str(out), "--csv") == 0
    doc = read_json(out / "layers.json")
    assert doc["key_layer"] == KEY_LAYER
    assert doc["offset_layer"] == OFFSET_LAYER
    assert doc["baseline_entropy"] == pytest.approx(3.5, abs=1e-9)
    assert doc["epsilon"] == pytest.approx(GATE_EPSILON, abs=1e-12)
    lines = (out / "layers.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(doc["deltas"])


def test_filter_profiles_every_record(setup, tmp_path):
    cfg, recs = setup
    out = tmp_path / "out"
    assert run_cli("filter", "--config", cfg, "--records", recs, "--out", str(out)) == 0
    rows = read_jsonl(out / "filters.jsonl")
    assert len(rows) == 16
    for row in rows:
        assert row["epsilon"] == pytest.approx(GATE_EPSILON, abs=1e-12)
        assert sum(row["eq"]) == pytest.approx(1.0, abs=1e-9)


def test_a_filter_row_is_a_forced_traces_filter_entry(setup, tmp_path):
    """``filter`` writes each record's whole profile, the JSON form a forced trace holds."""
    cfg, recs = setup
    f, p = tmp_path / "filter", tmp_path / "pipeline"
    assert run_cli("filter", "--config", cfg, "--records", recs, "--out", str(f)) == 0
    assert run_cli("pipeline", "--config", cfg, "--records", recs, "--force-retrieval",
                   "--out", str(p)) == 0
    assert read_jsonl(f / "filters.jsonl") == [{"record_id": t["record_id"], **t["filter"]}
                                               for t in read_jsonl(p / "traces.jsonl")]


def test_filter_of_a_mixed_length_corpus_writes_record_order(setup, tmp_path):
    """Contexts of 10 and 20 tokens interleave, so the context forward's blocks run in
    another order than the records; each row is what its record gets filtered alone."""
    cfg, _ = setup
    out = tmp_path / "out"
    assert run_cli("filter", "--config", cfg, "--fixture", "40", "--noise", "0.5",
                   "--out", str(out)) == 0
    rows = read_jsonl(out / "filters.jsonl")
    records = fixture_dataset(40, noise_rate=0.5, seed=0)
    lengths = [len(pipeline.context_tokens(r, fixture_vocab())) for r in records]
    assert set(lengths) == {10, 20} and lengths != sorted(lengths)
    assert [row["record_id"] for row in rows] == [r.record_id for r in records]
    config = RunConfig.from_json(read_json(cfg))
    model, vocab = pipeline.load_host(config)
    cal = calibrate(model, probe_questions(vocab))
    stop = max(cal.key_layer, cal.offset_layer)
    for record, row in zip(records, rows, strict=True):
        _, evidence = next(pipeline.read_evidence(model, [record], vocab, {0: stop}))
        alone = pipeline.filter_profile(cal, evidence, config.lam).to_json()
        assert row == json.loads(json.dumps({"record_id": record.record_id, **alone}))


def test_pipeline_report_and_echo_rerun_are_bit_identical(setup, tmp_path, monkeypatch):
    """The report holds only reproducible fields; ``timings.json`` holds each stage's
    mean time over the records that ran it, from the traces the run made."""
    cfg, _ = setup
    out1, out2 = tmp_path / "a", tmp_path / "b"
    ran = []

    def run_records(*args):
        ran[:] = pipeline.run_records(*args)
        return ran

    monkeypatch.setattr(cli, "run_records", run_records)
    assert run_cli("pipeline", "--config", cfg, "--fixture", "16",
                   "--out", str(out1)) == 0
    report = read_json(out1 / "report.json")
    assert report == {"answer_token_accuracy": 1.0, "detection_rate": 0.5,
                      "n_records": 16}
    times = {k: [t.timings[k] for t in ran if k in t.timings]
             for k in ("detect", "filter", "decode")}
    assert [len(v) for v in times.values()] == [16, 8, 16]
    assert read_json(out1 / "timings.json") == {"mean_stage_times": pytest.approx(
        {k: sum(v) / len(v) for k, v in times.items()}, rel=1e-12)}
    assert run_cli("pipeline", "--config", str(out1 / "config_echo.json"),
                   "--fixture", "16", "--out", str(out2)) == 0
    assert (out1 / "traces.jsonl").read_bytes() == (out2 / "traces.jsonl").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_pipeline_gates_filter_stage(setup, tmp_path):
    cfg, recs = setup
    out = tmp_path / "out"
    assert run_cli("pipeline", "--config", cfg, "--records", recs,
                   "--out", str(out)) == 0
    rows = read_jsonl(out / "traces.jsonl")
    for row in rows:
        assert (row["filter"] == "skipped") == (not row["verdict"]["hallucination"])
        assert "timings" not in row


def test_force_retrieval_runs_filter_everywhere(setup, tmp_path):
    cfg, recs = setup
    out = tmp_path / "out"
    assert run_cli("pipeline", "--config", cfg, "--records", recs,
                   "--out", str(out), "--force-retrieval") == 0
    rows = read_jsonl(out / "traces.jsonl")
    assert all(row["filter"] != "skipped" and row["forced"] for row in rows)
    assert read_json(out / "report.json")["answer_token_accuracy"] == 1.0


def test_eval_scores_persisted_traces(setup, tmp_path):
    cfg, recs = setup
    out = tmp_path / "out"
    assert run_cli("pipeline", "--config", cfg, "--records", recs,
                   "--out", str(out)) == 0
    assert run_cli("eval", "--records", recs, "--traces", str(out / "traces.jsonl"),
                   "--out", str(out / "scored")) == 0
    report = read_json(out / "scored" / "eval_report.json")
    assert report["answer_token_accuracy"] == 1.0
    assert report["detection_rate"] == 0.5
    assert report == read_json(out / "report.json")   # no wall-clock field, empty or not


def test_train_writes_checkpoint_and_report(setup, tmp_path):
    cfg, _ = setup
    out = tmp_path / "out"
    assert run_cli("train", "--config", cfg, "--fixture", "8", "--noise", "0.0",
                   "--epochs", "2", "--out", str(out), "--csv") == 0
    doc = read_json(out / "train_report.json")
    assert doc["epochs"] == 2
    assert doc["epoch_mean_losses"][-1] < doc["epoch_mean_losses"][0]
    assert len(doc["checkpoint_id"]) == 64
    params = load_dssp_params(out / "dssp_trained.bin")
    assert params.w_f.shape[0] > 0
    lines = (out / "train_steps.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + doc["n_steps"]


def test_grid_search_trains_with_the_config_top_t(setup, tmp_path, monkeypatch):
    cfg, _ = setup
    top_t = build_copier_params(build_fixture_model()[1]).top_t + 1
    run_json = tmp_path / "run.json"
    run_json.write_text(json.dumps({**read_json(cfg), "top_t": top_t}))
    seen = []

    def recording_train(model, params, examples, hyper, *, insertion_layer):
        seen.append(params.top_t)
        return types.SimpleNamespace(epoch_mean_losses=lambda: [1.0])

    monkeypatch.setattr(cli, "train", recording_train)
    assert run_cli("grid-search", "--config", str(run_json), "--fixture", "2",
                   "--out", str(tmp_path / "out")) == 0
    assert seen == [top_t] * 143


def test_grid_search_demo_finds_planted_optimum(tmp_path):
    out = tmp_path / "out"
    assert run_cli("grid-search", "--out", str(out), "--csv") == 0
    doc = read_json(out / "grid.json")
    assert (doc["mu_star"], doc["nu_star"]) == (0.55, 0.10)
    assert doc["n_points"] == len(doc["table"])
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + doc["n_points"]


def test_demo_decompose_reports_suppression(tmp_path):
    out = tmp_path / "out"
    assert run_cli("demo-decompose", "--trials", "10", "--out", str(out)) == 0
    doc = read_json(out / "decompose.json")
    assert doc["n_seeds"] == 10
    assert doc["fraction"] == 1.0


# sizes past demo-decompose's documented limits, and the name each refusal gives;
# unchecked, `--d-model 100000` asks for 74.5 GiB
_OVERSIZE_DEMOS = {
    "d_model": ["--d-model", "100000"],
    "token counts": ["--tokens", "1000000000"],
    "trials": ["--trials", "1000000000000"],
}
_CHILD_ADDRESS_SPACE = 2 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("named", sorted(_OVERSIZE_DEMOS))
def test_oversize_demo_decompose_exits_2_before_allocating(tmp_path, named):
    """The child's address space is capped at 2 GiB, so a size that went unchecked
    would end in a ``MemoryError`` traceback (or run past the timeout), never in a
    request for the whole allocation."""
    result = subprocess.run(
        [sys.executable, "-m", "dualstream.cli", "demo-decompose", *_OVERSIZE_DEMOS[named],
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 2, result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error:ContractViolationError: {named} must lie in 1..")


def test_errors_exit_nonzero_with_single_parseable_line(setup, tmp_path, capsys):
    cfg, recs = setup
    assert run_cli("pipeline", "--config", str(tmp_path / "absent.json"),
                   "--fixture", "4", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1

    assert run_cli("pipeline", "--config", cfg, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        "error:ContractViolationError: provide --records or --fixture\n")


def test_a_pipeline_over_no_records_writes_nothing_but_the_echoes(setup, tmp_path, capsys):
    """``detect`` and ``filter`` take an empty record file; ``pipeline``, whose report
    has nothing to evaluate, refuses it before it writes any trace."""
    cfg, _ = setup
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for command in ("detect", "filter"):
        assert run_cli(command, "--config", cfg, "--records", str(empty),
                       "--out", str(tmp_path / command)) == 0
    out = tmp_path / "pipeline"
    assert run_cli("pipeline", "--config", cfg, "--records", str(empty), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error:ContractViolationError: nothing to evaluate\n"
    assert sorted(p.name for p in out.iterdir()) == ["argv_echo.json", "config_echo.json"]


def test_a_host_calibrated_to_offset_layer_0_ends_at_load(tmp_path):
    """The fused block at layer k reads the stream entering it, so a host whose offset
    layer is 0 cannot take it: a gated or forced pipeline and a train end at load in
    ``check_insertion_layer``'s one line."""
    vocab = fixture_vocab()
    host = random_host(ModelConfig(n_layers=4, n_heads=2, d_model=16, d_ff=8,
                                   vocab_size=vocab.size, max_seq=24, seed=6))
    assert calibrate(host, probe_questions(vocab)).offset_layer == 0
    mpath, dpath, cfg = tmp_path / "host.bin", tmp_path / "fused.bin", tmp_path / "run.json"
    save_model(host, mpath, dtype="f64", meta=vocab_meta(vocab))
    save_dssp_params(dpath, DsspParams.init_random(16, seed=0))
    cfg.write_text(json.dumps({"model_checkpoint": str(mpath), "dssp_checkpoint": str(dpath)}))
    for command, *flags in (["pipeline"], ["pipeline", "--force-retrieval"],
                            ["train", "--epochs", "1"]):
        code, err = _run_cli_quietly([command, "--config", str(cfg), "--fixture", "4", *flags,
                                      "--out", str(tmp_path / "out")])
        assert (code, err) == (2, ["error:ContractViolationError: insertion layer 0 "
                                   "outside 1..3"])


def test_a_host_with_no_vocabulary_cannot_be_calibrated(setup, tmp_path):
    """``filter`` and ``pipeline`` calibrate on the probe set, which the checkpoint's
    vocabulary builds, and so does ``analyze-layers`` given no records: a host saved
    without one ends in one line saying so."""
    model, _ = build_fixture_model()
    mpath, cfg = tmp_path / "host.bin", tmp_path / "run.json"
    save_model(model, mpath, dtype="f64")
    doc = read_json(setup[0])
    cfg.write_text(json.dumps({**doc, "model_checkpoint": str(mpath)}))
    for command, *records in (["filter", "--fixture", "4"], ["pipeline", "--fixture", "4"],
                              ["analyze-layers"]):
        code, err = _run_cli_quietly([command, "--config", str(cfg), *records,
                                      "--out", str(tmp_path / "out")])
        assert (code, err) == (2, ["error:ContractViolationError: checkpoint metadata has no "
                                   "vocabulary to build probe questions from"])


def test_a_host_whose_vocabulary_outgrows_it_ends_at_load(setup, tmp_path):
    """A sidecar vocabulary of more symbols than the host's ``vocab_size`` would build
    token ids the host cannot read: every command that loads the host refuses it in one
    line naming the sidecar and both sizes."""
    model, _ = build_fixture_model()
    mpath, cfg = tmp_path / "host.bin", tmp_path / "run.json"
    save_model(model, mpath, dtype="f64",
               meta=vocab_meta(Vocab(n_subjects=300, n_objects=4, n_junk=80)))
    doc = read_json(setup[0])
    cfg.write_text(json.dumps({**doc, "model_checkpoint": str(mpath)}))
    for command, *records in (["detect", "--fixture", "8"], ["filter", "--fixture", "8"],
                              ["pipeline", "--fixture", "8"], ["analyze-layers"]):
        code, err = _run_cli_quietly([command, "--config", str(cfg), *records,
                                      "--out", str(tmp_path / "out")])
        assert (code, err) == (2, [f"error:ContractViolationError: {mpath}.json: meta.vocab: "
                                   "vocabulary of 391 symbols exceeds the host's vocab_size "
                                   "of 155"])


def test_module_entry_point_runs_without_warnings():
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dualstream.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0
    assert result.stderr == ""


# overflowing runs: the flags, the config fields, and the one line each must end in
_DIVERGING_TRAINS = {
    "lr_overflow": (["--fixture", "4", "--lr", "1e308"], {},
                    "error:TrainingDivergedError: non-finite loss at step 1"),
    # one example and one epoch: the overflowing update is the last step's
    "nu_overflow_on_the_last_step": (["--fixture", "1"], {"nu": 1e308},
                                     "error:TrainingDivergedError: non-finite update at step 0"),
}


@pytest.mark.parametrize("case", sorted(_DIVERGING_TRAINS))
def test_a_diverging_train_ends_in_one_error_line_and_no_warning(setup, tmp_path, case):
    flags, fields, line = _DIVERGING_TRAINS[case]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**read_json(setup[0]), **fields}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run_cli_quietly(["train", "--config", str(cfg), *flags, "--epochs", "1",
                                      "--out", str(tmp_path / "out")])
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (2, [line])
    assert not (tmp_path / "out" / "dssp_trained.bin").exists()


def _container(header) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw + bytes(16)


_ENTRY = {"name": "tok_emb", "rows": 1, "cols": 1, "dtype": "f64", "byte_offset": 0}
_BAD_HEADERS = {
    "header_not_object": ([], "object"),
    "tensors_not_list": ({"tensors": 5}, "tensors"),
    "entry_not_object": ({"tensors": [7]}, "entry"),
    "entry_without_rows": ({"tensors": [{k: v for k, v in _ENTRY.items() if k != "rows"}]},
                           "rows"),
    "negative_byte_offset": ({"tensors": [{**_ENTRY, "byte_offset": -8}]},
                             "tensor 'tok_emb' field byte_offset must be >= 0"),
    "bool_rows": ({"tensors": [{**_ENTRY, "rows": True}]}, "rows"),
    "list_dtype": ({"tensors": [{**_ENTRY, "dtype": ["f64"]}]}, "dtype"),
    "duplicate_names": ({"tensors": [_ENTRY, {**_ENTRY, "byte_offset": 8}]},
                        "duplicate tensor name 'tok_emb'"),
    "overlapping_byte_ranges": ({"tensors": [{**_ENTRY, "rows": 2},
                                             {**_ENTRY, "name": "pos_emb", "byte_offset": 8}]},
                                "tensors 'tok_emb' and 'pos_emb' share bytes"),
}


_TRACE = {"record_id": "rec0000", "filter": "skipped", "answer": [80], "forced": False}
_VERDICT = {"hallucination": False, "statistic": 0.5, "delta": 1.0, "aggregation": "tail_sum",
            "insertion_layer": 3, "per_layer": [0.5]}
_BAD_TRACES = {
    "trace_without_verdict": (_TRACE, "verdict"),
    "verdict_bool_as_string": ({**_TRACE, "verdict": {**_VERDICT, "hallucination": "false"}},
                               "hallucination"),
    "verdict_layer_as_float": ({**_TRACE, "verdict": {**_VERDICT, "insertion_layer": 1.9}},
                               "insertion_layer"),
    # a list or tuple field is read from a JSON array only
    "trace_answer_an_object": ({**_TRACE, "verdict": _VERDICT, "answer": {}},
                               "field 'answer': expected a JSON array, got dict"),
    "verdict_per_layer_a_string": ({**_TRACE, "verdict": {**_VERDICT, "per_layer": ""}},
                                   "field 'verdict.per_layer': expected a JSON array, got str"),
}
_BAD_LAMS = {"config_field_type": "80", "config_huge_float": 10**400}  # too large for a float
# a top_t the fusion checkpoint's float64 cannot hold exactly, refused before any training
_BAD_TOP_TS = {"config_top_t_overflows_a_float": 10**400,
               "config_top_t_past_the_float_range": 2**1030,
               "config_top_t_rounded_by_a_float": 2**64 + 1}
# a file that is not UTF-8 or not JSON, the command that reads it (CFG, RECS, BAD and BAD_CFG
# name the good config and records, the bad file and a config naming it as the host, whose
# sidecar is then the bad file) and what the error says, {file} naming the bad file
_READ_RECORDS = ["detect", "--config", "CFG", "--records", "BAD"]
_READ_CONFIG = ["detect", "--config", "BAD", "--fixture", "4"]
_READ_TRACES = ["eval", "--records", "RECS", "--traces", "BAD"]
_READ_SIDECAR = ["detect", "--config", "BAD_CFG", "--fixture", "4"]
_NOT_UTF8 = b'{"id": "rec\xff"}\n'
_HUGE_INT = b"1" * 5000  # past the 4,300 digits Python parses
_UNREADABLE_FILES = {
    "records_not_utf8": (_NOT_UTF8, _READ_RECORDS, "is not UTF-8 text"),
    "config_not_utf8": (_NOT_UTF8, _READ_CONFIG, "is not UTF-8 text"),
    "traces_not_utf8": (_NOT_UTF8, _READ_TRACES, "is not UTF-8 text"),
    "sidecar_not_utf8": (_NOT_UTF8, _READ_SIDECAR, "is not UTF-8 text"),
    "config_truncated": (b'{"lam": ', _READ_CONFIG, "{file} is not valid JSON: "),
    # RECORD stands for a valid record line, so only line 2 is at fault
    "records_truncated_on_line_2": (b'RECORD\n{"id": \n', _READ_RECORDS,
                                    "{file} line 2 is not valid JSON: "),
    "traces_truncated": (b'{"record_id": ', _READ_TRACES, "{file} line 1 is not valid JSON: "),
    "sidecar_truncated": (b'{"config": {', _READ_SIDECAR, "{file} is not valid JSON: "),
    "config_5000_digit_integer": (b'{"seed": ' + _HUGE_INT + b"}", _READ_CONFIG,
                                  "{file} is not valid JSON: "),
    "record_5000_digit_integer": (b'{"id": "r", "question": [' + _HUGE_INT + b"]}\n",
                                  _READ_RECORDS, "{file} line 1 is not valid JSON: "),
    "config_nested_too_deep": (b"[" * 100_000, _READ_CONFIG, "{file} is not valid JSON: "),
    # the constants Python's json reads beyond the standard, in a trace line for eval, a
    # config field and a record token
    "traces_statistic_nan": (
        json.dumps({**_TRACE, "verdict": {**_VERDICT, "statistic": np.nan}}).encode(),
        _READ_TRACES, "{file} line 1 is not valid JSON: NaN is not a JSON number"),
    "config_lam_nan": (b'{"lam": NaN}', _READ_CONFIG,
                       "{file} is not valid JSON: NaN is not a JSON number"),
    "record_token_minus_infinity": (b'{"id": "r", "question": [-Infinity]}\n', _READ_RECORDS,
                                    "{file} line 1 is not valid JSON: -Infinity is not a JSON "
                                    "number"),
    # a literal past the float range, which Python's json reads as infinity
    "traces_statistic_1e400": (
        json.dumps({**_TRACE, "verdict": _VERDICT}).replace('"statistic": 0.5',
                                                            '"statistic": 1e400').encode(),
        _READ_TRACES, "{file} line 1 is not valid JSON: 1e400 is past the float range"),
}
# record fields replaced (_ABSENT: dropped), and what the error names, {file} naming the file
_ABSENT = object()
_BAD_RECORDS = {
    "record_token": ({"question": [2, 3, "x", 7]}, "question"),
    "record_token_float": ({"question": [2, 3, 7.9, 7]}, "question"),
    "record_documents_a_string": ({"documents": ""},
                                  "field 'documents': expected a JSON array, got str"),
    "record_documents_an_object": ({"documents": {}},
                                   "field 'documents': expected a JSON array, got dict"),
    # a misspelt optional field would otherwise load as absent, dropping the distractor mask
    "record_noise_mask_misspelt": (
        {"noise_mask": _ABSENT, "noise_msk": [[False] * 5, [True] * 5, [True] * 5]},
        "{file} line 1: field 'noise_msk': QARecord has no such field"),
}
# an answer token outside the host's vocabulary, refused by every command that runs the host
_BAD_ANSWERS = {
    "answer_out_of_vocab_detect": (["detect"], 10**12),
    "answer_out_of_vocab_filter": (["filter"], -1),
    "answer_out_of_vocab_pipeline": (["pipeline"], 10**12),
    "answer_out_of_vocab_train": (["train", "--epochs", "1"], -1),
    "answer_out_of_vocab_grid_search": (["grid-search", "--epochs", "1"], 10**12),
}
# a config field that names a directory where a checkpoint file belongs
_DIRECTORY_CHECKPOINTS = {"config_model_checkpoint_a_directory": "model_checkpoint",
                          "config_dssp_checkpoint_a_directory": "dssp_checkpoint"}
# a command and flags (run with the good config) that must be refused, and the name the error gives
_BAD_FLAGS = {
    "cli_lr_nan": (["train", "--fixture", "2", "--epochs", "1", "--lr", "nan"], "lr"),
    "cli_lr_inf": (["train", "--fixture", "2", "--epochs", "1", "--lr", "inf"], "lr"),
    "cli_grid_search_zero_epochs": (["grid-search", "--fixture", "2", "--epochs", "0"], "epochs"),
    "cli_demo_zero_d_model": (["demo-decompose", "--d-model", "0", "--dims", "0", "0", "0",
                               "--trials", "1"], "d_model"),
    "cli_demo_nan_noise_scale": (["demo-decompose", "--noise-scale", "nan", "--trials", "1"],
                                 "noise_scale"),
    "cli_demo_noise_overflows_the_attention": (["demo-decompose", "--noise-scale", "1e160",
                                                "--trials", "1"], "energies are not finite"),
    "cli_demo_noise_overflows_the_streams": (["demo-decompose", "--noise-scale", "1e308",
                                              "--trials", "1"], "overflows the streams"),
    "cli_pipeline_zero_fixture": (["pipeline", "--fixture", "0"], "n_records"),
    "cli_analyze_layers_zero_fixture": (["analyze-layers", "--fixture", "0"], "n_records"),
    "cli_grid_search_zero_fixture": (["grid-search", "--fixture", "0"], "n_records"),
}
# host checkpoint tensors rewritten (None: dropped) behind an intact sidecar
_BAD_HOST_TENSORS = {
    "host_tensor_missing": ("l2.ffn.w1", None),
    "host_tensor_misshapen": ("l0.attn.wo", lambda a: a[:, 1:]),
    "host_tensor_nan": ("l1.ffn.w2", lambda a: np.where(a == a.max(), np.nan, a)),
}
# fusion checkpoint tensors replaced or added behind the good host, named by the error
_BAD_FUSION_TENSORS = {
    "fusion_top_t_empty": ("top_t", np.zeros((0, 0))),
    "fusion_top_t_fractional": ("top_t", np.array([[2.5]])),
    "fusion_tensor_unexpected": ("w_extra", np.zeros((1, 1))),
}


@pytest.mark.parametrize("case", [*_BAD_LAMS, *_BAD_TOP_TS, *_UNREADABLE_FILES,
                                  *_BAD_RECORDS, *_BAD_ANSWERS,
                                  *_BAD_TRACES, *sorted(_BAD_HEADERS), *_BAD_HOST_TENSORS,
                                  *_BAD_FUSION_TENSORS, "fusion_width_mismatch", *_BAD_FLAGS,
                                  *_DIRECTORY_CHECKPOINTS,
                                  "sidecar_without_full_config", "sidecar_vocab_size_as_string",
                                  "sidecar_not_an_object", "sidecar_vocab_not_an_object",
                                  "sidecar_n_layers_oversize", "sidecar_config_extra_key",
                                  "sidecar_vocab_extra_key",
                                  "fusion_tensor_nan", "config_negative_seed",
                                  "config_without_a_model_checkpoint",
                                  "config_path_with_a_line_break", "cli_negative_seed"])
def test_malformed_inputs_exit_2_with_one_contract_line(setup, tmp_path, capsys, case):
    cfg, recs = setup
    doc = read_json(cfg)
    bad = tmp_path / "bad"
    bad_cfg = tmp_path / "run.json"
    bad_cfg.write_text(json.dumps({**doc, "model_checkpoint": str(bad)}))
    detect_bad_host = ["detect", "--config", str(bad_cfg), "--fixture", "4"]
    if case in _BAD_LAMS:
        bad.write_text(json.dumps({**doc, "lam": _BAD_LAMS[case]}))
        argv, named = ["pipeline", "--config", str(bad), "--fixture", "4"], "lam"
    elif case in _BAD_TOP_TS:
        bad.write_text(json.dumps({**doc, "top_t": _BAD_TOP_TS[case]}))
        argv, named = ["train", "--config", str(bad), "--fixture", "2", "--epochs", "1"], "top_t"
    elif case in _UNREADABLE_FILES:
        text, argv, named = _UNREADABLE_FILES[case]
        text = text.replace(b"RECORD", json.dumps(fixture_dataset(1)[0].to_json()).encode())
        target = bad
        if argv is _READ_SIDECAR:
            shutil.copy(doc["model_checkpoint"], bad)
            target = tmp_path / "bad.json"
        target.write_bytes(text)
        paths = {"CFG": cfg, "RECS": recs, "BAD": str(bad), "BAD_CFG": str(bad_cfg)}
        argv, named = [paths.get(a, a) for a in argv], named.format(file=target)
    elif case == "config_negative_seed":
        bad.write_text(json.dumps({**doc, "seed": -1}))
        argv, named = ["detect", "--config", str(bad), "--fixture", "4"], "seed"
    elif case == "config_without_a_model_checkpoint":  # it names the fusion checkpoint only
        bad.write_text(json.dumps({k: v for k, v in doc.items() if k != "model_checkpoint"}))
        argv = ["detect", "--config", str(bad), "--fixture", "4"]
        named = "config names no model checkpoint"
    elif case == "config_path_with_a_line_break":  # the error quotes it on one line
        bad.write_text(json.dumps({**doc, "model_checkpoint": "no\nsuch\x1ehost.bin"}))
        argv = ["detect", "--config", str(bad), "--fixture", "4"]
        named = "does not exist: no\\nsuch\\x1ehost.bin"
    elif case in _DIRECTORY_CHECKPOINTS:
        named = _DIRECTORY_CHECKPOINTS[case]
        bad.write_text(json.dumps({**doc, named: str(tmp_path)}))
        argv = ["pipeline", "--config", str(bad), "--fixture", "1"]
    elif case == "cli_negative_seed":
        argv, named = ["detect", "--config", cfg, "--fixture", "4", "--seed", "-1"], "seed"
    elif case in _BAD_FLAGS:
        (command, *flags), named = _BAD_FLAGS[case]
        argv = [command, "--config", cfg, *flags]
    elif case in _BAD_RECORDS:
        fields, named = _BAD_RECORDS[case]
        row = {**fixture_dataset(1)[0].to_json(), **fields}
        bad.write_text(json.dumps({k: v for k, v in row.items() if v is not _ABSENT}) + "\n")
        argv, named = ["eval", "--records", str(bad), "--traces", recs], named.format(file=bad)
    elif case in _BAD_ANSWERS:
        (command, *flags), token = _BAD_ANSWERS[case]
        row = fixture_dataset(1)[0].to_json()
        bad.write_text(json.dumps({**row, "answer": [token]}) + "\n")
        argv = [command, "--config", cfg, "--records", str(bad), *flags]
        named = f"token id {token} outside vocab"
    elif case in _BAD_TRACES:
        line, named = _BAD_TRACES[case]
        bad.write_text(json.dumps(line) + "\n")
        argv = ["eval", "--records", recs, "--traces", str(bad)]
    elif case in _BAD_HEADERS:
        header, named = _BAD_HEADERS[case]
        bad.write_bytes(_container(header))
        shutil.copy(doc["model_checkpoint"] + ".json", str(bad) + ".json")
        argv = detect_bad_host
    elif case in _BAD_HOST_TENSORS:
        named, change = _BAD_HOST_TENSORS[case]
        tensors = load_tensors(doc["model_checkpoint"])
        if change is None:
            del tensors[named]
        else:
            tensors[named] = change(tensors[named])
        save_tensors(bad, tensors, dtype="f64")
        shutil.copy(doc["model_checkpoint"] + ".json", str(bad) + ".json")
        argv = detect_bad_host
    elif case in _BAD_FUSION_TENSORS or case == "fusion_width_mismatch":
        if case in _BAD_FUSION_TENSORS:
            named, value = _BAD_FUSION_TENSORS[case]
            save_tensors(bad, {**load_tensors(doc["dssp_checkpoint"]), named: value}, dtype="f64")
        else:  # the one record is not flagged, so only a load-time check sees the width
            named = "d_model"
            save_dssp_params(bad, DsspParams.init_random(8))
        bad_cfg.write_text(json.dumps({**doc, "dssp_checkpoint": str(bad)}))
        argv = ["pipeline", "--config", str(bad_cfg), "--fixture", "1"]
    elif case.startswith("sidecar"):
        sidecar = read_json(doc["model_checkpoint"] + ".json")
        if case == "sidecar_without_full_config":
            del sidecar["config"]["d_ff"]
            named = "d_ff"
        elif case == "sidecar_not_an_object":
            sidecar = [sidecar]
            named = str(tmp_path / "bad.json")
        elif case == "sidecar_n_layers_oversize":
            sidecar["config"]["n_layers"] = 10**12
            named = "config n_layers x n_heads exceeds the"
        elif case == "sidecar_vocab_not_an_object":
            sidecar["meta"]["vocab"] = [40, 40]
            named = "vocab"
        elif case == "sidecar_config_extra_key":
            sidecar["config"]["d_head"] = 79
            named = f"{tmp_path / 'bad.json'}: field 'config.d_head': ModelConfig has no such field"
        elif case == "sidecar_vocab_extra_key":
            sidecar["meta"]["vocab"]["n_special"] = 7
            named = f"{tmp_path / 'bad.json'}: meta.vocab: field 'n_special': Vocab has no such field"
        else:
            sidecar["meta"]["vocab"]["n_junk"] = "40"
            named = "n_junk"
        shutil.copy(doc["model_checkpoint"], bad)
        (tmp_path / "bad.json").write_text(json.dumps(sidecar))
        argv = detect_bad_host
    else:
        params = build_copier_params(build_fixture_model()[1])
        params.w_o[0, 0] = np.nan
        save_dssp_params(bad, params)
        bad_cfg.write_text(json.dumps({**doc, "dssp_checkpoint": str(bad)}))
        argv, named = ["pipeline", "--config", str(bad_cfg), "--fixture", "4"], "w_o"
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:ContractViolationError:") and named in err[0]


@pytest.mark.parametrize("line", [1, 2])
def test_a_json_line_that_is_no_record_names_the_file_and_the_line(tmp_path, capsys, line):
    rows = tmp_path / "r.jsonl"
    record = json.dumps(fixture_dataset(1)[0].to_json())
    rows.write_text("\n".join([record] * (line - 1) + ["[1]"]) + "\n")
    assert run_cli("eval", "--records", str(rows), "--traces", str(rows),
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error:ContractViolationError: {rows} line {line}: "
                   "expected a JSON object, got list"]


def test_a_config_field_refusal_names_the_file(setup, tmp_path, capsys):
    bad = tmp_path / "run.json"
    bad.write_text(json.dumps({**read_json(setup[0]), "lam": "80"}))
    assert run_cli("detect", "--config", str(bad), "--fixture", "4",
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error:ContractViolationError: {bad}: field 'lam': expected float, got str"]


# ---------------------------------------------------------------------------
# fuzzed checkpoints: mutate a valid document, then run the CLI on it
# ---------------------------------------------------------------------------

_FUZZ_VALUES = (st.none() | st.booleans() | st.integers(-2, 100)
                | st.sampled_from([10**12, 10**400]) | st.floats() | st.text(max_size=3)
                | st.lists(st.integers(0, 40), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.integers(0, 40), max_size=2))
_FUZZ_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])


def _json_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, (*path, key))


def _mutate_json(data, doc):
    """``doc`` with one node (an object field or a list item) dropped or replaced by a
    drawn value, or one object given an extra field; and the change, ``(action, path)``,
    with the new key last in an ``"extra"`` path, or None when ``doc`` holds no object."""
    action = data.draw(st.sampled_from(["drop", "replace", "extra"]))
    paths = list(_json_paths(doc))
    if action == "extra":
        paths = [p for p in paths if isinstance(functools.reduce(operator.getitem, p, doc), dict)]
        if not paths:
            return doc, None
    path = data.draw(st.sampled_from(paths))
    if action == "extra":
        node = functools.reduce(operator.getitem, path, doc)
        key = data.draw(st.text(max_size=4))
        change = ("replace" if key in node else "extra", (*path, key))
        node[key] = data.draw(_FUZZ_VALUES)
        return doc, change
    if not path:
        return data.draw(_FUZZ_VALUES), ("replace", path)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_FUZZ_VALUES)
    return doc, (action, path)


def _record_at(schema, path):
    """The ``JsonRecord`` type read at ``path`` in a document of ``schema``, or None.

    ``schema`` is a record type, or a dict from key to the schema below it for
    an object that is no record."""
    for key in path:
        if isinstance(schema, dict):
            schema = schema.get(key)
        elif schema is not None:
            names = {f.metadata.get("json", f.name): f.name for f in dataclasses.fields(schema)}
            kind = errors.field_types(schema).get(names.get(key))
            schema = next((k for k in (kind, *typing.get_args(kind)) if isinstance(k, type)
                           and issubclass(k, errors.JsonRecord)), None)
    return schema if isinstance(schema, type) else None


def _must_refuse(schema, change) -> bool:
    """Whether ``change`` (``_mutate_json``'s) leaves a document of ``schema`` that every
    reader refuses: a key no field names added to a record, or a field without a default
    dropped from one."""
    if change is None or change[0] == "replace":
        return False
    action, (*path, key) = change
    record = _record_at(schema, path)
    if record is None:
        return False
    fields = {f.metadata.get("json", f.name): f for f in dataclasses.fields(record)}
    if action == "extra":
        return key not in fields
    return key in fields and fields[key].default is dataclasses.MISSING and (
        fields[key].default_factory is dataclasses.MISSING)


def _mutate_tensors(data, tensors):
    """``tensors`` with one tensor dropped, reshaped or emptied, one entry set to a
    drawn float, or an extra tensor added; the one scalar, ``top_t``, is drawn about
    half the time."""
    top_t = st.just("top_t") if "top_t" in tensors else st.nothing()
    name = data.draw(top_t | st.sampled_from(sorted(tensors)))
    action = data.draw(st.sampled_from(["drop", "transpose", "trim", "empty", "value", "extra"]))
    a = tensors[name]
    if action == "drop":
        del tensors[name]
    elif action == "transpose":
        tensors[name] = a.T
    elif action == "trim":
        tensors[name] = a[data.draw(st.integers(0, 1)):, data.draw(st.integers(0, 1)):]
    elif action == "empty":
        tensors[name] = np.zeros((0, 0))
    elif action == "value" and a.size:  # NaN and infinities included
        a = a.copy()
        a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(st.floats(width=32))
        tensors[name] = a
    elif action == "extra":
        tensors[data.draw(st.text(min_size=1, max_size=4))] = np.zeros((1, 1))
    return tensors


def _run_cli_quietly(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


# the names of ContractViolationError and its subclasses
_CONTRACT_ERRORS = tuple(name for name, kind in vars(errors).items() if isinstance(kind, type)
                         and issubclass(kind, errors.ContractViolationError))


def _assert_ok_or_one_contract_line(code, err, types=("ContractViolationError",),
                                    refused=False):
    """Exit 0 and print no error, or exit 2 with one ``error:<Type>:`` line of ``types``;
    only the latter when ``refused``."""
    assert (code == 0 and not err and not refused) or (
        code == 2 and len(err) == 1
        and err[0].startswith(tuple(f"error:{t}:" for t in types))), err


@seed(20261018)
@_FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_host_sidecar_runs_or_exits_2_with_one_contract_line(setup, data):
    doc = read_json(setup[0])
    sidecar = read_json(doc["model_checkpoint"] + ".json")
    for _ in range(data.draw(st.integers(1, 2))):
        sidecar, change = _mutate_json(data, sidecar)
    with tempfile.TemporaryDirectory() as tmp:
        host = os.path.join(tmp, "host.bin")
        shutil.copy(doc["model_checkpoint"], host)
        with open(host + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh)
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({**doc, "model_checkpoint": host}, fh)
        # the top level and ``meta`` are free-form objects; the records below them are not
        _assert_ok_or_one_contract_line(*_run_cli_quietly(
            ["detect", "--config", cfg, "--fixture", "1", "--out", os.path.join(tmp, "out")]),
            refused=_must_refuse({"config": ModelConfig, "meta": {"vocab": Vocab}}, change))


@seed(20261018)
@_FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_fusion_container_runs_or_exits_2_with_one_contract_line(setup, data):
    doc = read_json(setup[0])
    tensors = load_tensors(doc["dssp_checkpoint"])
    for _ in range(data.draw(st.integers(1, 2))):
        tensors = _mutate_tensors(data, tensors)
    with tempfile.TemporaryDirectory() as tmp:
        fused = os.path.join(tmp, "fused.bin")
        save_tensors(fused, tensors, dtype=data.draw(st.sampled_from(["f32", "f64"])))
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({**doc, "dssp_checkpoint": fused}, fh)
        _assert_ok_or_one_contract_line(*_run_cli_quietly(
            ["pipeline", "--config", cfg, "--fixture", "1", "--force-retrieval",
             "--out", os.path.join(tmp, "out")]))


@seed(20261018)
@_FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_run_config_runs_or_exits_2_with_one_error_line(setup, data):
    config = RunConfig.from_json(read_json(setup[0])).to_json()
    for _ in range(data.draw(st.integers(1, 2))):
        config, change = _mutate_json(data, config)
    command = data.draw(st.sampled_from([["pipeline", "--force-retrieval"],
                                         ["train", "--epochs", "1"]]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, err = _run_cli_quietly(
            [*command, "--config", cfg, "--fixture", "1", "--out", os.path.join(tmp, "out")])
    # a checkpoint field naming a directory is a contract error too, not an OSError
    _assert_ok_or_one_contract_line(code, err, ("ContractViolationError", "TrainingDivergedError"),
                                    _must_refuse(RunConfig, change))


@pytest.fixture(scope="module")
def run_of_two(setup, tmp_path_factory):
    """Two records, one the detector flags, and the traces of a gated run on them."""
    d = tmp_path_factory.mktemp("two")
    records, traces = str(d / "records.jsonl"), str(d / "out" / "traces.jsonl")
    errors.write_jsonl(records, [r.to_json() for r in fixture_dataset(2, noise_rate=1.0, seed=0)])
    assert run_cli("pipeline", "--config", setup[0], "--records", records,
                   "--out", str(d / "out")) == 0
    return records, traces


def _mutated_lines(data, path, record) -> tuple[str, bool]:
    """The JSON lines of ``path`` with one line mutated once or twice, and whether
    ``_must_refuse`` holds for the last change, each line read as ``record``."""
    rows = read_jsonl(path)
    i = data.draw(st.integers(0, len(rows) - 1))
    for _ in range(data.draw(st.integers(1, 2))):
        rows[i], change = _mutate_json(data, rows[i])
    return "".join(json.dumps(row) + "\n" for row in rows), _must_refuse(record, change)


@seed(20261018)
@_FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_records_run_or_exit_2_with_one_contract_line(setup, run_of_two, data):
    command = data.draw(st.sampled_from([["detect"], ["filter"], ["pipeline"],
                                         ["pipeline", "--force-retrieval"]]))
    with tempfile.TemporaryDirectory() as tmp:
        records = os.path.join(tmp, "records.jsonl")
        text, refused = _mutated_lines(data, run_of_two[0], QARecord)
        with open(records, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_ok_or_one_contract_line(*_run_cli_quietly(
            [*command, "--config", setup[0], "--records", records,
             "--out", os.path.join(tmp, "out")]), _CONTRACT_ERRORS, refused)


@seed(20261018)
@_FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_traces_evaluate_or_exit_2_with_one_contract_line(run_of_two, data):
    records, traces = run_of_two
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, "traces.jsonl")
        text, refused = _mutated_lines(data, traces, PipelineTrace)
        with open(mutated, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_ok_or_one_contract_line(*_run_cli_quietly(
            ["eval", "--records", records, "--traces", mutated,
             "--out", os.path.join(tmp, "out")]), _CONTRACT_ERRORS, refused)


_FAILING_PROPERTY = """
from hypothesis import given, seed, settings, strategies as st


@seed(0)
@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    """Under this repository's pytest settings, warnings included, a failing
    ``hypothesis`` test prints the input that broke it."""
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_property_fails(" in result.stdout
