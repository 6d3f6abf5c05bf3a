"""Benchmark for the dualstream reproduction.

Usage (from the repository root)::

    python3 bench/run.py --workload gated --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first repeats that untraced measurement for half of
``--seconds``, then wraps the public functions of the program's modules
(see ``tracer.py``), runs the same operations again and reports the
per-layer metrics, including the tracing overhead: how much slower the
traced operations ran.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.  Both runs
check every output against recorded digests (``gate.py``); a mismatch
counts the affected operations as failed and makes ``correct`` false.

Times are reported scaled to a reference host speed, measured by a probe
run between operations (``probe.py``), because the shared hosts this runs
on change speed by up to a factor of two between runs; the raw wall-clock
figures are kept in the result file.  Rates and latency percentiles are
medians over chunks of equal work (64 records, or one ``train`` call).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Machine facts, the
latency split by path, the span file and the full result are written under
``.bench_out/`` in the repository root, which is also where the temporary
checkpoints live while a run lasts.

An operation is one record through ``pipeline_run`` (``gated``, ``forced``)
or one SGD step on one record (``train``).  Metric names ending in
``_per_record`` are per operation, and on ``train`` that is per SGD step.
Per-layer times are zero where a module does not run on a workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NUMERIC_PINS = {"OPENBLAS_CORETYPE": "Haswell",
                "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"      # metric names, units and run length
OUT_DIR = ROOT / ".bench_out"
SETUP_RECORD = "setup"
OP_SPANS = ("pipeline.pipeline_run", "training.train")   # one span per timed operation
MODULES = ("model", "fusion", "autodiff", "training", "detector", "divergence",
           "filtering", "tensorstore", "pipeline")


def prepare() -> bool:
    """Pin numerics and put the program's sources on the path; False if they are missing.

    Must run before numpy is first imported.  One BLAS/OpenMP thread; the
    OpenBLAS kernel and numpy's SIMD dispatch are pinned to the AVX2 level
    so that outputs, and therefore the recorded digests, are the same on
    every x86-64 machine with AVX2, whatever wider units it also has.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the numerics were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.update(NUMERIC_PINS)
    src = ROOT / "src"
    if not (src / "dualstream" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {var: os.environ.get(var) for var in (*THREAD_VARS, *NUMERIC_PINS)},
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as wl
    from gate import Gate, load_expected
    from probe import SpeedProbe
    from tracer import Patches, StepClock
    from dualstream import autodiff

    cseed = wl.corpus_seed(seed)
    expected = load_expected(workload, cseed)
    probe = SpeedProbe()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        fx = wl.write_fixture(workload, seed, workdir)
        setup = wl.set_up(fx, probe)
        clock = None
        patches = Patches()
        if workload == "train":
            clock = StepClock(autodiff.GradTape, between=probe.sample)
            clock.install(patches)
        try:
            wl.warm_up(fx, setup)
            gate = Gate(expected)
            # a traced run splits its time between the untraced and traced halves
            loop = _loop(wl, fx, setup, gate, probe, clock, seconds / 2 if trace else seconds)
            result = {
                "workload": workload, "seed": seed, "corpus_seed": cseed,
                "trace": int(trace), "seconds": seconds,
                "gates": [gate], "loop": loop, "setup": setup, "probe": probe,
                "end_to_end": end_to_end(setup, loop),
                "wall_clock": wall_clock(setup, loop),
                "paths": path_latencies(loop) if workload != "train" else {},
            }
            if trace:
                traced = trace_run(wl, fx, probe, clock, expected, seconds, loop)
                result["gates"].append(traced.pop("gate"))
                result.update(traced)
        finally:
            patches.restore()
    return result


def _loop(wl, fx, setup, gate, probe, clock, seconds, n_ops=None, on_record=None):
    if fx.workload == "train":
        return wl.run_train(fx, setup, gate, probe, clock, seconds, n_ops, on_record)
    return wl.run_pipeline(fx, setup, gate, probe, seconds, n_ops, on_record)


def end_to_end(setup, loop) -> dict[str, float]:
    """The end-to-end metrics, with times scaled to reference speed (``probe.py``)."""
    return {
        "setup_s": setup.median_s,
        "records_per_s": loop.per_second,
        "latency_ms_p25": loop.latency_ms(25),
        "latency_ms_p75": loop.latency_ms(75),
        "latency_ms_p90": loop.latency_ms(90),
        "answer_accuracy": loop.accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_clock(setup, loop) -> dict[str, float]:
    """The same run's timings as measured, before scaling."""
    return {
        "setup_s": statistics.median(setup.raw_seconds),
        "records_per_s": loop.raw_per_second,
        "latency_ms_p50": percentile(loop.raw_latencies_ms, 50),
        "latency_ms_p90": percentile(loop.raw_latencies_ms, 90),
    }


def path_latencies(loop) -> dict:
    """Latency percentiles per path, with sample counts (gated is bimodal)."""
    out = {}
    for name, flag in (("plain", False), ("retrieved", True)):
        lat = [v for v, r in zip(loop.latencies_ms, loop.retrieved) if r == flag]
        out[name] = {"n": len(lat), "ms_p50": percentile(lat, 50),
                     "ms_p90": percentile(lat, 90)}
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def install_tracer(patches, tracer) -> None:
    from dualstream import (autodiff, detector, divergence, filtering, fusion, model,
                            pipeline, tensorstore, training)

    tokens = lambda a, k: len(a[1] if len(a) > 1 else k["tokens"])
    targets = {
        model: ("forward", "layer_distributions", "generate", "load_model"),
        detector: ("divergence_profile", "detect", "make_variant"),
        divergence: ("jsd", "semantic_entropy"),
        filtering: ("pruning_sweep", "classify_layers", "compute_filter_profile",
                    "filter_knowledge", "entropy_gate"),
        fusion: ("dssp_update", "make_dssp_hook", "load_dssp_params"),
        autodiff: ("backward",),
        training: ("train",),
        tensorstore: ("load_tensors",),
        pipeline: ("load_bundle", "calibrate", "pipeline_run", "make_train_examples",
                   "evaluate"),
    }
    for module, attrs in targets.items():
        for attr in attrs:
            tracer.install(patches, module, attr, tokens if attr == "forward" else None)
    tracer.count_calls(patches, autodiff.GradTape, "record", "tape_records")


def trace_run(wl, fx, probe, clock, expected, seconds, untraced) -> dict:
    """Wrap the program, repeat set-up and the untraced run's operations, measure layers."""
    from gate import Gate
    from tracer import Patches, Tracer

    tracer = Tracer()
    patches = Patches()
    install_tracer(patches, tracer)
    try:
        tracer.record = SETUP_RECORD
        setup = wl.set_up(fx, probe)
        tracer.counts.clear()
        gate = Gate(expected)
        loop = _loop(wl, fx, setup, gate, probe, clock, seconds, untraced.ops,
                     on_record=lambda rid: setattr(tracer, "record", rid))
    finally:
        patches.restore()
    per_layer = layer_metrics(tracer, clock, setup, loop)
    per_layer.update(wl.quality(untraced.first_pass, fx.records))
    # the program's own stage timings, per record, scaled like the spans
    stage_scale = 1e3 * untraced.seconds / untraced.raw_seconds / untraced.ops
    for stage in ("detect", "filter", "decode"):
        per_layer[f"pipeline.{stage}_ms"] = stage_scale * untraced.stage_seconds.get(stage, 0.0)
    per_layer["trace.overhead_pct"] = 100 * (loop.seconds / untraced.seconds - 1)
    return {"gate": gate, "tracer": tracer, "traced_loop": loop,
            "per_layer": per_layer, "wiring": wiring(fx.workload, per_layer, loop)}


def layer_metrics(tracer, clock, setup, loop) -> dict[str, float]:
    """Per-layer figures from the spans; times are scaled to reference speed."""
    from tracer import ancestor_named, roots, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    top = roots(spans)
    ops = loop.ops
    op_roots = {i for i, s in enumerate(spans) if s.parent is None and s.name in OP_SPANS}
    in_ops = [i for i in range(len(spans)) if top[i] in op_roots]
    named = lambda name, idx: [i for i in idx if spans[i].name == name]
    op_scale = 1e3 * loop.seconds / loop.raw_seconds / ops      # raw s -> scaled ms per op
    setup_scale = statistics.median(setup.scales)

    forwards = named("model.forward", in_ops)
    updates = named("fusion.dssp_update", in_ops)
    # the step clock samples the probe inside train(); that time is nobody's
    probe_in_ops = sum(clock.between_seconds(spans[i].start, spans[i].end)
                       for i in op_roots) if clock else 0.0

    # set-up: one load_bundle root per repetition
    setup_idx = [i for i, s in enumerate(spans) if s.record == SETUP_RECORD]
    sweeps = named("filtering.pruning_sweep", setup_idx)
    sweep_calls = [sum(1 for i in named("model.forward", setup_idx)
                       if ancestor_named(spans, i, "filtering.pruning_sweep") == s)
                   for s in sweeps]
    bundles = named("pipeline.load_bundle", setup_idx)
    loads = [sum(spans[i].duration for i in named("tensorstore.load_tensors", setup_idx)
                 if top[i] == b) for b in bundles]

    # forwards train() runs before its first step
    pre_step = []
    for t in named("training.train", in_ops):
        stamps = clock.inside(spans[t].start, spans[t].end) if clock else []
        first = stamps[0][0] if stamps else spans[t].end
        pre_step.append(sum(1 for i in forwards if top[i] == t and spans[i].start < first))

    out = {
        "model.forward_calls_per_record": len(forwards) / ops,
        "model.forward_tokens_per_record": sum(spans[i].size for i in forwards) / ops,
        "model.forward_self_ms_per_record": op_scale * sum(selfs[i] for i in forwards),
        "fusion.update_calls_per_record": len(updates) / ops,
        "fusion.update_ms_per_record": op_scale * sum(spans[i].duration for i in updates),
        "autodiff.backward_calls_per_record": len(named("autodiff.backward", in_ops)) / ops,
        "autodiff.tape_records_per_record": tracer.counts["tape_records"] / ops,
        "training.setup_forward_calls": statistics.mean(pre_step) if pre_step else 0.0,
        "filtering.sweep_s": setup_scale * statistics.median(spans[i].duration for i in sweeps),
        "filtering.sweep_forward_calls": statistics.median(sweep_calls),
        "tensorstore.load_ms": 1e3 * setup_scale * statistics.median(loads),
    }
    profiles = named("filtering.compute_filter_profile", in_ops)
    out["filtering.profile_ms_per_retrieved"] = (
        op_scale * ops / len(profiles) * sum(spans[i].duration for i in profiles)
        if profiles else 0.0)
    for module in MODULES:
        if module != "tensorstore":
            own = sum(selfs[i] for i in in_ops if spans[i].module == module)
            if module == "training":
                own -= probe_in_ops
            out[f"{module}.self_ms_per_record"] = op_scale * own
    return out


def wiring(workload: str, per_layer: dict, loop) -> dict:
    """Exact counts that show the wrappers see the calls they should.

    The expected values describe the program as the benchmark was written;
    a change that removes work moves them on purpose, so they are reported,
    not gated.  Tape records outside ``train`` are gated (see ``correct``).
    """
    checks = {"filtering.sweep_forward_calls": 112.0}
    if workload == "forced":
        checks["model.forward_calls_per_record"] = 4.0
    if workload == "gated":
        checks["model.forward_calls_per_record"] = 3.0 + sum(loop.retrieved) / loop.ops
    if workload != "train":
        checks["autodiff.tape_records_per_record"] = 0.0
    return {k: {"expected": v, "observed": per_layer[k], "ok": per_layer[k] == v}
            for k, v in checks.items()}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def summarize(result: dict) -> dict:
    gates = result["gates"]
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    correct = all(g.ok for g in gates)
    kind = "per_layer" if result["trace"] else "end_to_end"
    metrics = result[kind]
    if result["trace"] and result["workload"] != "train":
        correct = correct and metrics["autodiff.tape_records_per_record"] == 0
    spec = json.loads(SPEC_PATH.read_text())[kind]
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec},
    }


def write_outputs(result: dict, line: dict, machine: dict) -> Path:
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    doc = {
        "workload": result["workload"], "seed": result["seed"],
        "corpus_seed": result["corpus_seed"], "seconds": result["seconds"],
        "machine": machine, "result": line,
        "end_to_end": result["end_to_end"],
        "wall_clock": result["wall_clock"],
        "probe_ms_median": 1e3 * statistics.median(result["probe"].samples),
        "setup_samples_s": result["setup"].seconds,
        "latency_by_path": result["paths"],
        "wiring": result.get("wiring", {}),
        "mismatches": [m for g in result["gates"] for m in g.mismatches],
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")
    if "tracer" in result:
        result["tracer"].write(OUT_DIR / f"{stem}-spans.jsonl")
    return path


def print_report(result: dict, line: dict, machine: dict, path: Path) -> None:
    print(f"workload {result['workload']}  seed {result['seed']} "
          f"(corpus {result['corpus_seed']})  trace {result['trace']}")
    print(f"machine  nproc {machine['nproc']}  python {machine['python']}  "
          f"numpy {machine['numpy']}")
    for name, m in line["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    loop = result["loop"]
    print(f"  latency samples: {len(loop.latencies_ms)} operations in {len(loop.chunks)} chunks")
    wall = result["wall_clock"]
    print(f"  unscaled wall clock: {wall['records_per_s']:.4g} records/s, "
          f"set-up {wall['setup_s']:.4g} s; probe median "
          f"{1e3 * statistics.median(result['probe'].samples):.4g} ms")
    for name, p in result["paths"].items():
        print(f"  {name} path: n={p['n']}  p50 {p['ms_p50']:.3f} ms  p90 {p['ms_p90']:.3f} ms")
    for name, w in result.get("wiring", {}).items():
        mark = "ok" if w["ok"] else "DIFFERS"
        print(f"  wiring {name}: {w['observed']:g} (expected {w['expected']:g}) {mark}")
    print(f"  attempted {line['attempted']}  failed {line['failed']}  "
          f"correct {line['correct']}  -> {path}")


def run_all(args) -> int:
    """Each workload in its own process, so memory and caches start fresh."""
    ok = True
    for workload in ("gated", "forced", "train"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gated", "forced", "train", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC_PATH.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not prepare():
        print(f"error: no dualstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = summarize(result)
    machine = machine_info()
    path = write_outputs(result, line, machine)
    print_report(result, line, machine, path)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
