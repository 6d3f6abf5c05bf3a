"""CLI tests: every subcommand, config echo reproducibility, error lines."""
import json
import os
import pathlib
import shutil
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

from dualstream import cli
from dualstream.cli import main
from dualstream.dataset import save_records
from dualstream.fixtures import (
    KEY_LAYER,
    OFFSET_LAYER,
    build_copier_params,
    build_fixture_model,
    fixture_dataset,
)
from dualstream.fusion import load_dssp_params, save_dssp_params
from dualstream.model import save_model
from dualstream.pipeline import vocab_meta
from dualstream.tensorstore import load_tensors, save_tensors

GATE_EPSILON = 0.35667494393873234
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


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
    save_records(rec_path, fixture_dataset(16, noise_rate=1.0, seed=0))
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


def test_pipeline_report_and_echo_rerun_are_bit_identical(setup, tmp_path):
    cfg, _ = setup
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("pipeline", "--config", cfg, "--fixture", "16",
                   "--out", str(out1)) == 0
    report = read_json(out1 / "report.json")
    assert report == {"answer_token_accuracy": 1.0, "detection_rate": 0.5,
                      "n_records": 16}
    assert "mean_stage_times" in read_json(out1 / "timings.json")
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


def test_errors_exit_nonzero_with_single_parseable_line(setup, tmp_path, capsys):
    cfg, recs = setup
    assert run_cli("pipeline", "--config", str(tmp_path / "absent.json"),
                   "--fixture", "4", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1

    assert run_cli("pipeline", "--config", cfg, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:ContractViolationError:")
    assert len(err.splitlines()) == 1


def test_module_entry_point_runs_without_warnings():
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dualstream.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0
    assert result.stderr == ""


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
    "negative_byte_offset": ({"tensors": [{**_ENTRY, "byte_offset": -8}]}, "byte_offset"),
    "bool_rows": ({"tensors": [{**_ENTRY, "rows": True}]}, "rows"),
    "list_dtype": ({"tensors": [{**_ENTRY, "dtype": ["f64"]}]}, "dtype"),
    "duplicate_names": ({"tensors": [_ENTRY, {**_ENTRY, "byte_offset": 8}]}, "duplicate"),
    "overlapping_byte_ranges": ({"tensors": [{**_ENTRY, "rows": 2},
                                             {**_ENTRY, "name": "pos_emb", "byte_offset": 8}]},
                                "'tok_emb' and 'pos_emb'"),
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
}
_BAD_LAMS = {"config_field_type": "80", "config_huge_float": 10**400}  # too large for a float
_BAD_RECORD_TOKENS = {"record_token": "x", "record_token_float": 7.9}
# host checkpoint tensors rewritten (None: dropped) behind an intact sidecar
_BAD_HOST_TENSORS = {
    "host_tensor_missing": ("l2.ffn.w1", None),
    "host_tensor_misshapen": ("l0.attn.wo", lambda a: a[:, 1:]),
    "host_tensor_nan": ("l1.ffn.w2", lambda a: np.where(a == a.max(), np.nan, a)),
}


@pytest.mark.parametrize("case", [*_BAD_LAMS, *_BAD_RECORD_TOKENS,
                                  *_BAD_TRACES, *sorted(_BAD_HEADERS), *_BAD_HOST_TENSORS,
                                  "sidecar_without_full_config", "sidecar_vocab_size_as_string",
                                  "sidecar_not_an_object", "sidecar_vocab_not_an_object",
                                  "fusion_tensor_nan", "config_negative_seed",
                                  "cli_negative_seed"])
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
    elif case == "config_negative_seed":
        bad.write_text(json.dumps({**doc, "seed": -1}))
        argv, named = ["detect", "--config", str(bad), "--fixture", "4"], "seed"
    elif case == "cli_negative_seed":
        argv, named = ["detect", "--config", cfg, "--fixture", "4", "--seed", "-1"], "seed"
    elif case in _BAD_RECORD_TOKENS:
        row = fixture_dataset(1)[0].to_json()
        bad.write_text(json.dumps({**row, "question": [2, 3, _BAD_RECORD_TOKENS[case], 7]}) + "\n")
        argv, named = ["eval", "--records", str(bad), "--traces", recs], "question"
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
    elif case.startswith("sidecar"):
        sidecar = read_json(doc["model_checkpoint"] + ".json")
        if case == "sidecar_without_full_config":
            del sidecar["config"]["d_ff"]
            named = "d_ff"
        elif case == "sidecar_not_an_object":
            sidecar = [sidecar]
            named = str(tmp_path / "bad.json")
        elif case == "sidecar_vocab_not_an_object":
            sidecar["meta"]["vocab"] = [40, 40]
            named = "vocab"
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
