"""End-to-end orchestration: divergence check, evidence filtering, fused decode.

A run is driven by a ``RunConfig`` naming a host-model checkpoint and a fused
cross-attention checkpoint.  Per checkpoint the pipeline calibrates once — a
layer-pruning sweep over a canonical probe set yields the key/offset layers
and the entropy pair behind the filter gate — then every record goes through
three stages:

1. divergence check between the question and its reworded variant;
2. if flagged (or forced), energy-quotient filtering of the normalised
   evidence rows the fused block will read;
3. greedy decode, with the fused update hooked at the implicated layer when
   stage 2 ran, plain otherwise.

A record list goes through one stage at a time, one window of records after
another, its host passes batched over blocks of records of one shape
(``run_records``).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .dataset import QARecord, Vocab, make_question
from .detector import (
    AGGREGATIONS,
    DetectionVerdict,
    detect,
    divergence_profile,
    make_variant,
)
from .errors import (
    ContractViolationError,
    JsonRecord,
    field_types,
    read_field,
    read_json,
    read_record,
    write_json,
)
from .filtering import (
    RESCALE_MODES,
    Calibration,
    FilterProfile,
    classify_layers,
    compute_filter_profile,
    entropy_gate,
    filter_knowledge,
    pruning_sweep,
)
from .fusion import DsspParams, KnowledgeStream, load_dssp_params, make_dssp_hook
from .model import (
    ForwardOptions,
    ForwardTrace,
    TinyTransformer,
    generate_from,
    infer,
    layer_norm,
    load_model,
    logit_lens,
    validate_tokens,
)
from .model import forward  # noqa: F401  -- kept bound here for the benchmark's tracer test
from .training import TrainExample

PROBE_SUBJECTS_PER_HALF = 8


@dataclass
class RunConfig(JsonRecord):
    """Everything a reproducible run needs; JSON config files mirror the field names."""

    model_checkpoint: str = ""   # empty = not referenced (checkpoint-free commands)
    dssp_checkpoint: str = ""
    delta: float = 1.0
    aggregation: str = "tail_sum"
    lam: float = 80.0
    top_t: int | None = None           # None = keep the checkpoint's value
    rescale: str = "none"
    mu: float = 0.55
    nu: float = 0.1
    seed: int = 0
    out_dir: str = "."
    force_retrieval: bool = False      # run the filter+fusion path on every record

    def __post_init__(self):
        for name, kind in field_types(RunConfig).items():
            read_field(vars(self), name, kind)
        if self.delta <= 0 or not np.isfinite(self.delta):
            raise ContractViolationError("delta must be finite and > 0")
        if self.aggregation not in AGGREGATIONS:
            raise ContractViolationError(f"aggregation must be one of {AGGREGATIONS}")
        if self.lam <= 0 or not np.isfinite(self.lam):
            raise ContractViolationError("lam must be finite and > 0")
        # the fusion checkpoint stores top_t as a float64, which holds every integer up to 2**53
        if self.top_t is not None and not 1 <= self.top_t <= 2**53:
            raise ContractViolationError("top_t must lie in 1..2**53")
        if self.rescale not in RESCALE_MODES:
            raise ContractViolationError(f"rescale must be one of {RESCALE_MODES}")
        if not 0.0 < self.mu < 1.0:
            raise ContractViolationError("mu must lie in (0, 1)")
        if self.nu < 0 or not np.isfinite(self.nu):
            raise ContractViolationError("nu must be finite and >= 0")
        if self.seed < 0:
            raise ContractViolationError("seed must be >= 0")


def load_config(path) -> RunConfig:
    """Read a JSON config and check that each referenced checkpoint is a file;
    a refusal of a field names the file."""
    config = read_record(RunConfig, read_json(path), str(path))
    for name in ("model_checkpoint", "dssp_checkpoint"):
        p = getattr(config, name)
        if p and not os.path.isfile(p):
            problem = "is not a file" if os.path.exists(p) else "does not exist"
            raise ContractViolationError(f"{name} path {problem}: {p}")
    return config


def write_config_echo(config: RunConfig, out_dir) -> str:
    """Persist the resolved config next to the outputs; reruns read this file."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_echo.json")
    write_json(path, config.to_json())
    return path


# ---------------------------------------------------------------------------
# per-checkpoint calibration
# ---------------------------------------------------------------------------

def calibrate(model: TinyTransformer, queries) -> Calibration:
    """Layer-pruning sweep over a probe query set, reduced to filter inputs.

    The sweep decodes greedily, one answer per query, so no seed reaches it.
    An entropy pair the filter gate cannot use is refused here, at load time.
    """
    calibration = classify_layers(pruning_sweep(model, queries))
    entropy_gate(calibration.entropy_orig, calibration.entropy_offset)
    return calibration


def probe_questions(vocab: Vocab) -> list[list[int]]:
    """Canonical probe set: subjects from the front and from the middle of the range.

    Sampling both halves keeps memorised and novel subjects in the sweep, so
    the key and offset layers both leave a visible entropy footprint.
    """
    subs = list(vocab.subject_ids)
    k = min(PROBE_SUBJECTS_PER_HALF, len(subs))
    picked = subs[:k] + subs[len(subs) // 2:len(subs) // 2 + k]
    seen: dict[int, None] = {}
    for s in picked:
        seen.setdefault(s)
    return [make_question(vocab, s) for s in seen]


@dataclass
class Bundle:
    """A loaded checkpoint pair plus its one-time calibration."""
    model: TinyTransformer
    params: DsspParams
    vocab: Vocab | None
    calibration: Calibration


def load_host(config: RunConfig) -> tuple[TinyTransformer, Vocab | None]:
    """Load the host checkpoint and the vocabulary recorded with it, if any; a refusal
    of the vocabulary names the sidecar."""
    if not config.model_checkpoint:
        raise ContractViolationError("config names no model checkpoint")
    model, meta = load_model(config.model_checkpoint)
    return model, read_record(Vocab | None, meta.get("vocab"),
                              f"{config.model_checkpoint}.json: meta.vocab")


def probe_calibration(model: TinyTransformer, vocab: Vocab | None) -> Calibration:
    """Calibrate on the canonical probe set of the checkpoint's vocabulary."""
    if vocab is None:
        raise ContractViolationError(
            "checkpoint metadata has no vocabulary to build probe questions from")
    return calibrate(model, probe_questions(vocab))


def load_bundle(config: RunConfig) -> Bundle:
    """Load both checkpoints, calibrate on the vocabulary's probe set; share across records."""
    if not config.model_checkpoint or not config.dssp_checkpoint:
        raise ContractViolationError("config names no checkpoint pair to load")
    model, vocab = load_host(config)
    params = load_dssp_params(config.dssp_checkpoint)
    if params.d_model != model.config.d_model:
        raise ContractViolationError(f"fusion checkpoint d_model {params.d_model} does not "
                                     f"match the host's {model.config.d_model}")
    if config.top_t is not None:
        params.top_t = config.top_t
    calibration = probe_calibration(model, vocab)
    if calibration.offset_layer == 0:
        raise ContractViolationError("host offset layer 0 cannot take the fused block, which "
                                     "reads the stream entering its layer")
    return Bundle(model, params, vocab, calibration)


def vocab_meta(vocab: Vocab) -> dict:
    """Checkpoint metadata block that lets a run rebuild the vocabulary."""
    return {"vocab": vocab.to_json()}


# ---------------------------------------------------------------------------
# the record flow, batched by stage
# ---------------------------------------------------------------------------
#
# Each stage checks the tokens of every record it passes, in list order, before
# its first host pass.  It then runs the records in blocks: records whose passes
# have one shape (one length, and one stop or hook layer), at most BLOCK_RECORDS
# of them.  A batched pass rounds each row as it would alone (``infer``), so a
# record's outputs do not depend on the records run with it.

# Rows per batched host pass.  On the fixture host, blocks of 8-16 records give
# all of batching's gain; one 64-row block raised training set-up's peak RSS by 5 %.
BLOCK_RECORDS = 16


def _blocks(keys: dict) -> list[list[int]]:
    """The positions of ``keys`` grouped by equal key, in order of first appearance,
    each group cut into blocks of at most ``BLOCK_RECORDS``."""
    groups: dict = {}
    for i, key in keys.items():
        groups.setdefault(key, []).append(i)
    return [g[j:j + BLOCK_RECORDS] for g in groups.values()
            for j in range(0, len(g), BLOCK_RECORDS)]


@dataclass
class PipelineTrace(JsonRecord):
    """What one record went through: verdict, optional filter, answer, timings."""
    record_id: str
    verdict: DetectionVerdict
    filter: FilterProfile | None = field(metadata={"none": "skipped"})
    answer: list[int]
    timings: dict[str, float] = field(default_factory=dict)
    forced: bool = False

    def __post_init__(self):
        if self.filter is not None and not (self.verdict.hallucination or self.forced):
            raise ContractViolationError(
                "filter stage present although the verdict did not gate it in")


def context_tokens(record: QARecord, vocab: Vocab) -> list[int]:
    """Question, separator, then every evidence document in order."""
    toks = list(record.question) + [vocab.SEP]
    for doc in record.documents:
        toks.extend(doc)
    return toks


@dataclass
class Evidence:
    """One record's question-plus-evidence context and its host trace."""
    tokens: list[int]
    span: tuple[int, int]      # where the evidence documents sit in ``tokens``
    trace: ForwardTrace


def read_evidence(model: TinyTransformer, records: list[QARecord], vocab: Vocab | None,
                  stops: dict[int, int | None], read: Callable[[int, Evidence], Any],
                  ) -> dict[int, Any]:
    """``read(i, evidence)`` of the context forward of each ``records[i]`` that
    ``stops`` names, keyed by ``i`` in the order of ``stops``; the forward runs
    up to layer ``stops[i]``'s attention pattern (``infer``'s ``stop``; None runs
    the whole host).  The filter scores this forward and the fused block reads
    from it, so a record with no evidence tokens is refused before any pass.

    Contexts of one length and stop run as one ``(B, n)`` ``infer`` per block,
    and a block's rows are read before the next block runs: what ``read``
    returns should hold no view of the trace, or the block's arrays stay alive.
    """
    if vocab is None and stops:
        raise ContractViolationError(
            "retrieval path needs the checkpoint vocabulary to build context")
    contexts = {}
    for i in stops:
        validate_tokens(model.config, records[i].answer)
        contexts[i] = validate_tokens(model.config, context_tokens(records[i], vocab))
        if not any(records[i].documents):
            raise ContractViolationError(
                f"record {records[i].record_id!r} has no evidence tokens to retrieve")
    out = dict.fromkeys(stops)
    for block in _blocks({i: (len(contexts[i]), stops[i]) for i in stops}):
        trace = infer(model, [contexts[i] for i in block], stop=stops[block[0]])
        for row, i in enumerate(block):
            span = (len(records[i].question) + 1, len(contexts[i]))
            out[i] = read(i, Evidence(contexts[i], span, trace.row(row)))
    return out


def offset_layer_stream(model: TinyTransformer, trace, span: tuple[int, int],
                        layer: int) -> np.ndarray:
    """Evidence rows exactly as the fused block at ``layer`` will read them."""
    depth, n_layers = len(trace.hidden), model.config.n_layers
    if not 1 <= layer <= min(depth, n_layers - 1):
        raise ContractViolationError(f"fused layer {layer} outside 1..{min(depth, n_layers - 1)}: "
                                     f"the trace holds {depth} of {n_layers} layers")
    rows = np.asarray(trace.hidden[layer - 1][span[0]:span[1]])
    return layer_norm(rows, model.weights[f"l{layer}.ln1.gain"],
                      model.weights[f"l{layer}.ln1.bias"])


def variant_tokens(record: QARecord, vocab: Vocab | None) -> list[int]:
    if record.variant is not None:
        return list(record.variant)
    if vocab is None:
        raise ContractViolationError(
            "record has no variant and no vocabulary is available to derive one")
    return make_variant(list(record.question), {vocab.WH}, {vocab.AUX})


def _question_pairs(model: TinyTransformer, records: list[QARecord], vocab: Vocab | None,
                    ) -> list[tuple[list[int], list[int]]]:
    """Each record's checked question and variant tokens, in list order; its answer
    is checked first."""
    pairs = []
    for record in records:
        validate_tokens(model.config, record.answer)
        variant = variant_tokens(record, vocab)
        pairs.append((validate_tokens(model.config, record.question),
                      validate_tokens(model.config, variant)))
    return pairs


def detect_stage(model: TinyTransformer, records: list[QARecord], vocab: Vocab | None,
                 config: RunConfig) -> list[tuple[DetectionVerdict, np.ndarray]]:
    """Stage 1: compare each question with its variant.

    Questions of one length run with their variants as one ``(2B, n)``
    ``infer`` and one ``logit_lens`` per block.  Also returns each question's
    last-position logits, from which the plain decode draws its first token.
    """
    return _detect_pairs(model, _question_pairs(model, records, vocab), config)


def _detect_pairs(model: TinyTransformer, pairs: list[tuple[list[int], list[int]]],
                  config: RunConfig) -> list[tuple[DetectionVerdict, np.ndarray]]:
    """``detect_stage`` of checked ``(question, variant)`` pairs."""
    out: list = [None] * len(pairs)
    for block in _blocks({i: len(question) for i, (question, _) in enumerate(pairs)}):
        batch = infer(model, [pairs[i][0] for i in block] + [pairs[i][1] for i in block])
        lens = logit_lens(model, batch.hidden)
        for row, i in enumerate(block):
            profile = divergence_profile(lens[:, row], lens[:, len(block) + row])
            out[i] = (detect(profile, delta=config.delta, aggregation=config.aggregation),
                      batch.logits[row, -1].copy())
    return out


def filter_stage(model: TinyTransformer, records: list[QARecord], vocab: Vocab | None,
                 calibration: Calibration, lam: float, stops: dict[int, int],
                 read: Callable[[int, FilterProfile, Evidence], Any] = lambda i, p, e: p,
                 ) -> dict[int, Any]:
    """Stage 2: score the evidence tokens of each ``records[i]`` that ``stops`` names
    from its context forward (``read_evidence``), and return
    ``read(i, profile, evidence)``, by default the profile, keyed by ``i``.

    The forward stops at layer ``stops[i]``, the deepest layer the caller
    reads; the filter itself reads the key and offset layers' attention.
    """
    def score(i: int, evidence: Evidence):
        profile = compute_filter_profile(
            evidence.trace, calibration, evidence.span,
            calibration.entropy_orig, calibration.entropy_offset, lam)
        return read(i, profile, evidence)

    return read_evidence(model, records, vocab, stops, score)


@dataclass
class _Fusion:
    """A retrieved record's filter profile and what its fused decode needs."""
    profile: FilterProfile
    tokens: list[int]      # the context: the fused decode's prompt
    hook: Callable
    state: np.ndarray      # hidden[hook - 1]: the stream the fused decode resumes from


# Records per window of ``run_records``: 16 blocks.  A window's fusion states are
# freed before the next window starts, so a run's peak memory does not grow with
# its corpus.
WINDOW_RECORDS = 256


def run_records(records, config: RunConfig, bundle: Bundle) -> list[PipelineTrace]:
    """Run records against one shared bundle: each goes detect -> (filter -> fused
    decode) | plain decode.  The list goes through the three stages one window of
    ``WINDOW_RECORDS`` records at a time, and the traces come back in input order.

    Within a window, detection runs in blocks of one question length, the
    context forward in blocks of one context length and stop, and the fused
    decode's first token in blocks of one context length and hook layer; each
    answer token after the first is decoded per record.  A record's
    ``timings`` are, per stage it ran, an even share of its window's time in
    that stage: detection and decode over the window's records, the filter
    stage over its retrieved records.

    Which error wins: every record's answer, question and variant are checked,
    in list order, before the first window, so such an error ends the run
    before any host pass, wherever its record sits.  Any other error comes
    from the first window that has one: there, the filter stage checks the
    evidence of every record it retrieves before its first pass, and the
    decode follows.  So a bad document in one window beats a decode error in
    a later one, and a decode error in one window beats a bad document in a
    later one.
    """
    records = list(records)
    pairs = _question_pairs(bundle.model, records, bundle.vocab)
    traces = []
    for lo in range(0, len(records), WINDOW_RECORDS):
        window = slice(lo, lo + WINDOW_RECORDS)
        traces += _run_window(records[window], pairs[window], config, bundle)
    return traces


def _run_window(records: list[QARecord], pairs: list[tuple[list[int], list[int]]],
                config: RunConfig, bundle: Bundle) -> list[PipelineTrace]:
    """``run_records`` of one window, given its checked question pairs; its fusion
    states die with the call."""
    model, vocab, cal = bundle.model, bundle.vocab, bundle.calibration
    t0 = time.perf_counter()
    detected = _detect_pairs(model, pairs, config)
    t1 = time.perf_counter()
    # the fused block enters at a flagged verdict's insertion layer if it can, else at
    # the offset layer
    layers = {i: v.insertion_layer if v.hallucination and v.insertion_layer >= 1
              else cal.offset_layer
              for i, (v, _) in enumerate(detected) if v.hallucination or config.force_retrieval}

    def fuse(i: int, profile: FilterProfile, evidence: Evidence) -> _Fusion:
        raw = offset_layer_stream(model, evidence.trace, evidence.span, layers[i])
        filtered = filter_knowledge(
            KnowledgeStream(raw, "external"), profile.eq, profile.epsilon,
            profile.delta_entropy, rescale=config.rescale)
        return _Fusion(profile, evidence.tokens, make_dssp_hook(filtered.tokens, bundle.params),
                       evidence.trace.hidden[layers[i] - 1].copy())

    fused = filter_stage(model, records, vocab, cal, config.lam,
                         {i: max(cal.key_layer, cal.offset_layer, h) for i, h in layers.items()},
                         fuse)
    t2 = time.perf_counter()

    # the fused decode's first token; the layers below the hook are the context forward's
    first_logits = [logits for _, logits in detected]
    for block in _blocks({i: (len(f.tokens), layers[i]) for i, f in fused.items()}):
        layer = layers[block[0]]
        batch = infer(model, [fused[i].tokens for i in block],
                      ForwardOptions(layer, [fused[i].hook for i in block]),
                      (layer, np.stack([fused[i].state for i in block])))
        for row, i in enumerate(block):
            first_logits[i] = batch.logits[row, -1].copy()

    traces = []
    for i, (record, (verdict, _)) in enumerate(zip(records, detected)):
        f = fused.get(i)
        prompt, options = ((record.question, None) if f is None else
                           (f.tokens, ForwardOptions(layers[i], f.hook)))
        answer = generate_from(model, prompt, first_logits[i],
                               max(1, len(record.answer)), options)
        traces.append(PipelineTrace(record.record_id, verdict, None if f is None else f.profile,
                                    answer, forced=config.force_retrieval))
    t3 = time.perf_counter()

    # each record's even share of its window's time in each stage it ran
    shares = {"detect": (t1 - t0) / len(records), "filter": (t2 - t1) / max(1, len(fused)),
              "decode": (t3 - t2) / len(records)}
    for trace in traces:
        trace.timings = {k: t for k, t in shares.items() if k != "filter" or trace.filter}
    return traces


def pipeline_run(record: QARecord, config: RunConfig, bundle: Bundle) -> PipelineTrace:
    """Run one record through detect -> (filter -> fused decode) | plain decode:
    ``run_records`` of the record alone."""
    return run_records([record], config, bundle)[0]


# ---------------------------------------------------------------------------
# evaluation and training-example conversion
# ---------------------------------------------------------------------------

def evaluate(traces, records) -> dict:
    """Exact-match accuracy, flag rate, and per-stage mean times as a JSON doc."""
    traces = list(traces)
    records = list(records)
    if not traces:
        raise ContractViolationError("nothing to evaluate")
    if len(traces) != len(records):
        raise ContractViolationError("traces and records are misaligned")
    for trace, record in zip(traces, records):
        if trace.record_id != record.record_id:
            raise ContractViolationError(
                f"trace {trace.record_id!r} does not match record {record.record_id!r}")
    hits = [t.answer == list(r.answer) for t, r in zip(traces, records)]
    stage_sums: dict[str, list[float]] = {}
    for t in traces:
        for stage, dt in t.timings.items():
            stage_sums.setdefault(stage, []).append(dt)
    return {
        "n_records": len(records),
        "answer_token_accuracy": float(np.mean(hits)),
        "detection_rate": float(np.mean([t.verdict.hallucination for t in traces])),
        "mean_stage_times": {k: float(np.mean(v)) for k, v in sorted(stage_sums.items())},
    }


def make_train_examples(model: TinyTransformer, records, vocab: Vocab,
                        insertion_layer: int) -> list[TrainExample]:
    """Freeze each record's context, raw evidence rows and host pass into a
    training example for ``insertion_layer``; contexts of one length run as one
    full ``(B, n)`` forward per block (``read_evidence``)."""
    records = list(records)

    def example(i: int, evidence: Evidence) -> TrainExample:
        dhat = offset_layer_stream(model, evidence.trace, evidence.span, insertion_layer)
        return TrainExample.from_trace(evidence.tokens, int(records[i].answer[0]), dhat,
                                       evidence.trace, insertion_layer)

    return list(read_evidence(model, records, vocab, dict.fromkeys(range(len(records))),
                              example).values())
