"""Rewrite ``digests.json``: the output digests every benchmark run is checked against.

Run it from the repository root on a commit whose outputs are known good::

    python3 bench/record_digests.py

It runs one untimed pass of every workload on every corpus seed, through
the same loop the benchmark times, and stores the first pass's digests in
place of all recorded ones.  Only a change that is meant to change the
program's outputs should need this.
"""
from __future__ import annotations

import json
import sys
import tempfile

import run


def record(workload: str, seed: int) -> list[str]:
    import workloads as wl
    from dualstream import autodiff
    from gate import Gate
    from probe import SpeedProbe
    from tracer import StepClock

    run.OUT_DIR.mkdir(exist_ok=True)
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        fx = wl.write_fixture(workload, seed, workdir)
        setup = wl.set_up(fx, probe, repeats=1)
        gate = Gate([])
        if workload == "train":
            wl.run_train(fx, setup, gate, probe, StepClock(autodiff.GradTape), 0.0)
        else:
            wl.run_pipeline(fx, setup, gate, probe, 0.0)
    return gate.observed


def main() -> int:
    if not run.prepare():
        print("error: no dualstream sources", file=sys.stderr)
        return 2
    import workloads as wl
    from gate import DIGESTS_PATH

    doc = {}
    for workload in wl.WORKLOADS:
        table = doc[workload] = {}
        for seed in range(wl.CORPUS_SEEDS):
            table[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {len(table[str(seed)])} digests", flush=True)
    DIGESTS_PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
