"""Rewrite ``cli_digests.json``: the CLI outputs ``test_cli_digests.py`` is checked against.

Run it from the repository root on a commit whose outputs are known good::

    python3 tests/record_cli_digests.py

It runs every subcommand that reads the fixture host, through ``cli.main`` in
one child process under the benchmark's numeric pins (``bench/run.py``), and
stores each run's exit code, console lines and the sha256 of each file it
wrote.  Wall clock (``timings.json``) and the files that echo paths
(``argv_echo.json``, ``config_echo.json``, ``train_report.json``'s
``checkpoint``) are left out.  The digests hold only on the numpy version the
file records.  Only a change that is meant to change a CLI output should
need this.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS_PATH = Path(__file__).resolve().parent / "cli_digests.json"
sys.path.insert(0, str(ROOT / "bench"))

from run import NUMERIC_PINS, THREAD_VARS  # noqa: E402

# the corpora every record-reading command runs on: name -> ``--fixture`` size, ``--noise``
CORPORA = {"fixture64": (64, 1.0), "fixture300_noise05": (300, 0.5)}
UNHASHED = {"timings.json", "argv_echo.json", "config_echo.json"}


def _runs() -> dict[str, list[str]]:
    """Run name -> argv, in the order they run; ``eval`` reads the traces ``pipeline``
    wrote.  ``copier.json`` and ``train.json`` name the copier and the training-init
    fusion checkpoints, and ``novocab.json`` a host saved without its vocabulary."""
    runs = {}
    for name, (n, noise) in CORPORA.items():
        flags = ["--config", "copier.json", "--fixture", str(n), "--noise", str(noise)]
        runs[f"{name}/detect"] = ["detect", *flags]
        runs[f"{name}/filter"] = ["filter", *flags]
        runs[f"{name}/analyze-layers"] = ["analyze-layers", *flags, "--csv"]
        runs[f"{name}/pipeline"] = ["pipeline", *flags]
        runs[f"{name}/pipeline-forced"] = ["pipeline", *flags, "--force-retrieval"]
        for run in ("pipeline", "pipeline-forced"):
            runs[f"{name}/eval-{run}"] = ["eval", "--records", f"{name}.jsonl",
                                          "--traces", f"out/{name}/{run}/traces.jsonl"]
    runs["probes/analyze-layers"] = ["analyze-layers", "--config", "copier.json", "--csv"]
    runs["novocab/analyze-layers"] = ["analyze-layers", "--config", "novocab.json"]
    runs["fixture64/train"] = ["train", "--config", "train.json", "--fixture", "64",
                               "--csv", "--epochs", "2"]
    runs["fixture2/grid-search"] = ["grid-search", "--config", "train.json", "--fixture", "2"]
    return runs


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "train_report.json":
        doc = json.loads(data)
        doc.pop("checkpoint")
        data = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _write_inputs() -> None:
    """The checkpoints, configs and record files ``_runs`` reads, in the working directory."""
    from dualstream.errors import write_jsonl
    from dualstream.fixtures import (
        build_copier_params,
        build_fixture_model,
        build_training_init,
        fixture_dataset,
    )
    from dualstream.fusion import save_dssp_params
    from dualstream.model import save_model
    from dualstream.pipeline import vocab_meta

    model, layout = build_fixture_model()
    save_model(model, "host.bin", dtype="f64", meta=vocab_meta(layout.vocab))
    save_model(model, "novocab.bin", dtype="f64")
    save_dssp_params("copier.bin", build_copier_params(layout))
    save_dssp_params("train.bin", build_training_init(layout))
    for config, host, fused in (("copier", "host", "copier"), ("train", "host", "train"),
                                ("novocab", "novocab", "copier")):
        Path(f"{config}.json").write_text(json.dumps(
            {"model_checkpoint": f"{host}.bin", "dssp_checkpoint": f"{fused}.bin"}))
    for name, (n, noise) in CORPORA.items():
        records = fixture_dataset(n, noise_rate=noise)
        write_jsonl(f"{name}.jsonl", [r.to_json() for r in records])


def _child() -> dict:
    """Every run's exit code, console lines and file digests, run in a fresh directory."""
    import numpy as np

    from dualstream.cli import main

    runs = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        _write_inputs()
        for name, argv in _runs().items():
            out = Path("out", name)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out)])
            runs[name] = {"exit": code, "stdout": stdout.getvalue().splitlines(),
                          "stderr": stderr.getvalue().splitlines(),
                          "files": {p.name: _digest(p) for p in sorted(out.iterdir())
                                    if p.name not in UNHASHED}}
        os.chdir(ROOT)
    return {"numpy": np.__version__, "runs": runs}


def digests() -> dict:
    """``_child``'s document, from a child process run under the benchmark's pins."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), **NUMERIC_PINS,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, __file__, "--child"], env=env,
                            capture_output=True, text=True, timeout=600)
    if result.returncode:
        raise RuntimeError(f"the CLI digest run failed:\n{result.stderr}")
    return json.loads(result.stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(_child()))
    else:
        DIGESTS_PATH.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
