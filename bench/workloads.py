"""The benchmark's workloads, driven through the public ``dualstream`` API.

Every run builds the planted fixture host (``fixtures.build_fixture_model``),
writes its checkpoints to a temporary directory and loads them back with
``load_bundle``, as ``dualstream pipeline`` and ``dualstream train`` do.
Records go in one after another from a single client (a closed loop).

- ``gated``: ``pipeline_run`` with the default ``RunConfig`` over a noisy
  corpus (``noise_rate=1.0``); the detector sends about half the records
  down the retrieval path.
- ``forced``: the same corpus with ``force_retrieval=True``, so every record
  pays for the context forward, the filter and the hooked decode.
- ``train``: ``make_train_examples`` then ``train(Hyperparams())`` from the
  ``build_training_init`` warm start, on a clean corpus
  (``noise_rate=0.0``).  One operation is one SGD step on one record.
"""
from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from dualstream.filtering import ENTROPY_DROP_THRESHOLD
from dualstream.fixtures import (
    build_copier_params,
    build_fixture_model,
    build_training_init,
    fixture_dataset,
)
from dualstream.fusion import make_dssp_hook, save_dssp_params
from dualstream.model import ForwardOptions, forward, save_model
from dualstream.pipeline import RunConfig, vocab_meta
from dualstream.training import Hyperparams

# Entry points are called through their modules, so the tracer's wrappers
# (which rebind module attributes) see the benchmark's own calls too.
from dualstream import pipeline, training

from gate import BLOCK, Gate, digest, epoch_digests, report_digest, trace_digest
from probe import SpeedProbe

WORKLOADS = ("gated", "forced", "train")
# The workload seed picks one of this many corpora, each with recorded digests.
CORPUS_SEEDS = 64
# Records come in cycles over the 64 fixture subjects, so every aligned run of
# CYCLE records holds the same work (the same flagged half); rates are measured
# per cycle.  Four cycles per corpus.
CYCLE = 64
PIPELINE_RECORDS = 4 * CYCLE
SETUP_REPEATS = 7
SETUP_PROBES = 16         # probe samples before each set-up repetition
WARMUP_RECORDS = BLOCK

perf = time.perf_counter


def corpus_seed(seed: int) -> int:
    return seed % CORPUS_SEEDS


@dataclass
class Fixture:
    """Checkpoints on disk plus the corpus one workload runs on."""
    workload: str
    config: RunConfig
    records: list


def write_fixture(workload: str, seed: int, workdir: str) -> Fixture:
    """Write the planted host and a fusion checkpoint, and build the corpus."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cseed = corpus_seed(seed)
    model, layout = build_fixture_model()
    model_path = os.path.join(workdir, "host.bin")
    dssp_path = os.path.join(workdir, "dssp.bin")
    save_model(model, model_path, dtype="f64", meta=vocab_meta(layout.vocab))
    if workload == "train":
        save_dssp_params(dssp_path, build_training_init(layout, cseed))
        records = fixture_dataset(noise_rate=0.0, seed=cseed)
    else:
        save_dssp_params(dssp_path, build_copier_params(layout))
        records = fixture_dataset(PIPELINE_RECORDS, noise_rate=1.0, seed=cseed)
    config = RunConfig(model_checkpoint=model_path, dssp_checkpoint=dssp_path,
                       force_retrieval=workload == "forced")
    return Fixture(workload, config, records)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    """What the timed loop needs, and how long producing it took."""
    bundle: object
    examples: list | None
    raw_seconds: list[float]
    scales: list[float]           # probe scale of each repetition

    @property
    def seconds(self) -> list[float]:
        return [t * s for t, s in zip(self.raw_seconds, self.scales)]

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)


def set_up(fx: Fixture, probe: SpeedProbe, repeats: int = SETUP_REPEATS) -> Setup:
    """``load_bundle`` (and, for ``train``, ``make_train_examples``) ``repeats`` times."""
    out = Setup(None, None, [], [])
    for _ in range(repeats):
        mark = probe.mark()
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = perf()
        out.bundle = pipeline.load_bundle(fx.config)
        if fx.workload == "train":
            out.examples = pipeline.make_train_examples(
                out.bundle.model, fx.records, out.bundle.vocab,
                out.bundle.calibration.offset_layer)
        out.raw_seconds.append(perf() - t0)
        out.scales.append(probe.scale(mark))
    return out


# ---------------------------------------------------------------------------
# timed loops
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    """Per-operation timings, scaled to reference speed (see ``probe.py``) and raw."""
    latencies_ms: list[float] = field(default_factory=list)
    raw_latencies_ms: list[float] = field(default_factory=list)
    retrieved: list[bool] = field(default_factory=list)   # per op; always True for train
    ops: int = 0
    seconds: float = 0.0
    raw_seconds: float = 0.0
    rates: list[float] = field(default_factory=list)      # ops per second, per chunk
    raw_rates: list[float] = field(default_factory=list)
    chunks: list[list[float]] = field(default_factory=list)   # scaled latencies per chunk
    accuracy: float = 0.0
    first_pass: list = field(default_factory=list)        # pipeline traces of pass one
    stage_seconds: dict[str, float] = field(default_factory=dict)   # raw, summed

    @property
    def per_second(self) -> float:
        """Median over chunks of equal work: steady against bursts of host load."""
        return statistics.median(self.rates) if self.rates else 0.0

    @property
    def raw_per_second(self) -> float:
        return statistics.median(self.raw_rates) if self.raw_rates else 0.0

    def latency_ms(self, q: float) -> float:
        """Median over chunks of each chunk's ``q``-th latency percentile."""
        if not self.chunks:
            return 0.0
        return statistics.median(float(np.percentile(c, q)) for c in self.chunks)

    def add_chunk(self, raw_latencies: list[float], scales: list[float],
                  extra_seconds: float = 0.0) -> None:
        """Record a chunk of equal work: per-op latencies, each with its probe scale.

        ``extra_seconds`` is chunk time outside the per-op latencies (the work
        ``train`` does before its first step), scaled like the first op.
        """
        scaled = [t * s for t, s in zip(raw_latencies, scales)]
        raw_total = sum(raw_latencies) + extra_seconds
        total = sum(scaled) + extra_seconds * scales[0]
        self.raw_latencies_ms.extend(1e3 * t for t in raw_latencies)
        self.chunks.append([1e3 * t for t in scaled])
        self.latencies_ms.extend(self.chunks[-1])
        self.raw_seconds += raw_total
        self.seconds += total
        self.raw_rates.append(len(raw_latencies) / raw_total)
        self.rates.append(len(raw_latencies) / total)


def run_pipeline(fx: Fixture, setup: Setup, gate: Gate, probe: SpeedProbe, seconds: float,
                 n_ops: int | None = None, on_record=None) -> LoopResult:
    """Records in corpus order, cycling, until ``seconds`` have passed.

    The loop stops at the end of a cycle after at least one full pass, or
    after exactly ``n_ops`` records when that is given.  Only the
    ``pipeline_run`` call is timed; a probe sample precedes each one.
    """
    records, n = fx.records, len(fx.records)
    out = LoopResult()
    block: list[str] = []
    pass_traces: list = []
    cycle: list[float] = []
    mark = probe.mark()
    t_start = perf()
    while True:
        record = records[out.ops % n]
        if on_record is not None:
            on_record(record.record_id)
        probe.sample()
        t0 = perf()
        try:
            trace = pipeline.pipeline_run(record, fx.config, setup.bundle)
        except Exception as exc:  # a failing record is counted, the run goes on
            trace, failure = None, f"error:{type(exc).__name__}:{exc}"
        cycle.append(perf() - t0)
        out.ops += 1
        out.retrieved.append(trace is not None and trace.filter is not None)
        block.append(trace_digest(trace) if trace is not None else digest(failure))
        pass_traces.append(trace)
        if trace is not None:
            for stage, s in trace.timings.items():
                out.stage_seconds[stage] = out.stage_seconds.get(stage, 0.0) + s
        position = (out.ops - 1) % n // BLOCK
        if len(block) == BLOCK:
            gate.check(position, digest(block), BLOCK)
            block = []
        if out.ops % CYCLE == 0:
            out.add_chunk(cycle, probe.local_scales(mark))
            cycle, mark = [], probe.mark()
        if out.ops % n == 0:
            _check_pass(fx, gate, pass_traces, out)
            pass_traces = []
        if n_ops is not None:
            if out.ops >= n_ops:
                break
        elif out.ops >= n and out.ops % CYCLE == 0 and perf() - t_start >= seconds:
            break
    return out


def _check_pass(fx: Fixture, gate: Gate, traces: list, out: LoopResult) -> None:
    position = len(fx.records) // BLOCK
    if any(t is None for t in traces):
        gate.fail(1, "evaluate skipped: a record of the pass raised")
        return
    report = pipeline.evaluate(traces, fx.records)
    gate.check(position, report_digest(report), 1)
    if not out.first_pass:
        out.first_pass = traces
        out.accuracy = report["answer_token_accuracy"]


def run_train(fx: Fixture, setup: Setup, gate: Gate, probe: SpeedProbe, step_clock,
              seconds: float, n_ops: int | None = None, on_record=None) -> LoopResult:
    """Whole ``train(Hyperparams())`` calls from a fresh warm start until ``seconds`` pass.

    At least one call runs, or calls until ``n_ops`` steps when that is given.
    Step latencies come from ``step_clock``, which samples the probe at the
    start of each step and leaves that time out; a call's time includes the
    work ``train`` does before its first step.  Each call is one chunk.
    """
    bundle, examples = setup.bundle, setup.examples
    layer = bundle.calibration.offset_layer
    hyper = Hyperparams()
    steps_per_epoch = len(examples)
    out = LoopResult()
    params = None
    t_start = perf()
    calls = 0
    while True:
        if on_record is not None:
            on_record(f"train{calls}")
        params = bundle.params.copy()
        mark = probe.mark()
        t0 = perf()
        try:
            report = training.train(bundle.model, params, examples, hyper, insertion_layer=layer)
        except Exception as exc:  # a failing call is counted, the run goes on
            report, failure = None, f"{type(exc).__name__}: {exc}"
        t1 = perf()
        calls += 1
        if report is None:
            n_steps = hyper.epochs * steps_per_epoch
            gate.fail(n_steps, failure)
            params = None
        else:
            n_steps = len(report.steps)
            for epoch, d in enumerate(epoch_digests(report)):
                gate.check(epoch, d, steps_per_epoch)
            steps = step_clock.step_durations(t0, t1)
            if steps:      # empty when the step clock is not installed
                before_first_step = t1 - t0 - step_clock.between_seconds(t0, t1) - sum(steps)
                out.add_chunk(steps, probe.local_scales(mark), before_first_step)
        out.ops += n_steps
        if n_ops is not None:
            if out.ops >= n_ops:
                break
        elif perf() - t_start >= seconds:
            break
    out.retrieved = [True] * len(out.latencies_ms)
    if params is not None:
        out.accuracy = fused_accuracy(bundle.model, params, examples, layer)
    return out


def warm_up(fx: Fixture, setup: Setup) -> None:
    """Untimed, unchecked work so lazy set-up and caches settle before timing."""
    if fx.workload == "train":
        training.train(setup.bundle.model, setup.bundle.params.copy(),
                       setup.examples[:WARMUP_RECORDS], Hyperparams(epochs=1),
                       insertion_layer=setup.bundle.calibration.offset_layer)
    else:
        for record in fx.records[:WARMUP_RECORDS]:
            pipeline.pipeline_run(record, fx.config, setup.bundle)


def fused_accuracy(model, params, examples, layer: int) -> float:
    """Share of examples whose greedy next token under the fused host is the gold one."""
    hits = 0
    for ex in examples:
        opts = ForwardOptions(dssp_layer=layer, dssp_hook=make_dssp_hook(ex.dhat, params))
        logits = forward(model, list(ex.tokens), opts).logits[-1]
        hits += int(np.argmax(logits)) == ex.answer_id
    return hits / len(examples)


# ---------------------------------------------------------------------------
# quality signals read from the traces
# ---------------------------------------------------------------------------

def quality(traces: list, records: list) -> dict[str, float]:
    """Detection margins, gate firing and eq mass on distractor tokens."""
    if not traces:
        return {"detector.flag_rate": 0.0, "detector.margin_p10": 0.0,
                "detector.margin_p50": 0.0, "detector.margin_p90": 0.0,
                "filtering.gate_fired_frac": 0.0, "filtering.eq_noise_mass": 0.0}
    margins = [t.verdict.statistic - t.verdict.delta for t in traces]
    fired, noise_mass = [], []
    for trace, record in zip(traces, records):
        if trace.filter is None:
            continue
        fired.append(trace.filter.delta_entropy < ENTROPY_DROP_THRESHOLD)
        mask = np.array([b for doc in record.noise_mask for b in doc], dtype=bool)
        noise_mass.append(float(trace.filter.eq[mask].sum()))
    p10, p50, p90 = np.percentile(margins, [10, 50, 90])
    return {
        "detector.flag_rate": float(np.mean([t.verdict.hallucination for t in traces])),
        "detector.margin_p10": float(p10),
        "detector.margin_p50": float(p50),
        "detector.margin_p90": float(p90),
        "filtering.gate_fired_frac": float(np.mean(fired)) if fired else 0.0,
        "filtering.eq_noise_mass": float(np.mean(noise_mass)) if noise_mass else 0.0,
    }
