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
(``run_records``).  Stage 2 loops over ``read_evidence``, which checks every
retrieved record when called and then yields its context forward block by block.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
    blocks,
    can_enter,
    check_insertion_layer,
    fused_input,
    generate_from,
    infer,
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


def probe_questions(vocab: Vocab | None) -> list[list[int]]:
    """Canonical probe set: subjects from the front and from the middle of the range.

    Sampling both halves keeps memorised and novel subjects in the sweep, so
    the key and offset layers both leave a visible entropy footprint.
    """
    if vocab is None:
        raise ContractViolationError(
            "checkpoint metadata has no vocabulary to build probe questions from")
    subs = list(vocab.subject_ids)
    k = min(PROBE_SUBJECTS_PER_HALF, len(subs))
    picked = subs[:k] + subs[len(subs) // 2:len(subs) // 2 + k]
    return [make_question(vocab, s) for s in dict.fromkeys(picked)]


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
    where = f"{config.model_checkpoint}.json: meta.vocab"
    vocab = read_record(Vocab | None, meta.get("vocab"), where)
    if vocab is not None and vocab.size > model.config.vocab_size:
        raise ContractViolationError(f"{where}: vocabulary of {vocab.size} symbols exceeds "
                                     f"the host's vocab_size of {model.config.vocab_size}")
    return model, vocab


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
    calibration = calibrate(model, probe_questions(vocab))
    check_insertion_layer(model.config.n_layers, calibration.offset_layer)
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


@dataclass
class PipelineTrace(JsonRecord):
    """What one record went through: verdict, optional filter, answer.  Its
    ``timings`` (stage -> seconds) are wall clock, so they stay out of its JSON form."""
    record_id: str
    verdict: DetectionVerdict
    filter: FilterProfile | None = field(metadata={"none": "skipped"})
    answer: list[int]
    timings: dict[str, float] = field(default_factory=dict, metadata={"json": None})
    forced: bool = False

    def __post_init__(self):
        gated = self.verdict.hallucination or self.forced
        if (self.filter is not None) != gated:
            raise ContractViolationError(
                "filter stage skipped although the verdict or force_retrieval gated it in" if gated
                else "filter stage present although the verdict did not gate it in")


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
    trace: ForwardTrace | None


def read_evidence(model: TinyTransformer, records: list[QARecord], vocab: Vocab | None,
                  stops: dict[int, int | None]) -> Iterator[tuple[int, Evidence]]:
    """The context forward of each ``records[i]`` that ``stops`` names, as ``(i,
    evidence)`` pairs, block by block; it runs up to layer ``stops[i]``'s attention
    pattern (``infer``'s ``stop``; None runs the whole host), which the filter scores
    and the fused block reads.

    Refusals come at the call: every answer, context and evidence is checked before
    any pass.  The answer check is the first refusal of ``dualstream filter``,
    ``train`` and ``grid-search``, so it stays here, although in ``run_records`` it
    repeats ``question_pairs``' check for the records a window retrieves.
    Contexts of one length and stop then run as one ``(B, n)`` ``infer`` per block,
    when the loop reaches it.  An evidence's trace lasts its turn: the iterator sets
    it to None when asked for the next row, so no block's trace is alive while the
    next block runs.
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

    def rows():
        for block in blocks({i: (len(contexts[i]), stops[i]) for i in stops}, BLOCK_RECORDS):
            trace = infer(model, [contexts[i] for i in block], stop=stops[block[0]])
            for row, i in enumerate(block):
                span = (len(records[i].question) + 1, len(contexts[i]))
                evidence = Evidence(contexts[i], span, trace.row(row))
                yield i, evidence
                evidence.trace = None
            del trace
    return rows()


def filter_profile(calibration: Calibration, evidence: Evidence, lam: float) -> FilterProfile:
    """Stage 2: score ``evidence``'s tokens from the key and offset layers' attention."""
    return compute_filter_profile(evidence.trace, calibration, evidence.span,
                                  calibration.entropy_orig, calibration.entropy_offset, lam)


def question_pairs(model: TinyTransformer, records: list[QARecord], vocab: Vocab | None,
                   ) -> list[tuple[list[int], list[int]]]:
    """Each record's checked question and variant tokens, in list order; its answer
    is checked first.  A record without a variant gets one derived from its
    question, which needs the vocabulary."""
    pairs = []
    for record in records:
        validate_tokens(model.config, record.answer)
        variant = record.variant
        if variant is None:
            if vocab is None:
                raise ContractViolationError(
                    "record has no variant and no vocabulary is available to derive one")
            variant = make_variant(list(record.question), {vocab.WH}, {vocab.AUX})
        pairs.append((validate_tokens(model.config, record.question),
                      validate_tokens(model.config, variant)))
    return pairs


def detect_stage(model: TinyTransformer, pairs: list[tuple[list[int], list[int]]],
                 config: RunConfig) -> list[tuple[DetectionVerdict, np.ndarray]]:
    """Stage 1: compare each checked question with its variant (``question_pairs``).

    Questions of one length run with their variants as one ``(2B, n)``
    ``infer`` and one ``logit_lens`` per block.  Also returns each question's
    last-position logits, from which the plain decode draws its first token.
    """
    out: list = [None] * len(pairs)
    for block in blocks({i: len(q) for i, (q, _) in enumerate(pairs)}, BLOCK_RECORDS):
        batch = infer(model, [pairs[i][0] for i in block] + [pairs[i][1] for i in block])
        lens = logit_lens(model, batch.hidden)
        for row, i in enumerate(block):
            profile = divergence_profile(lens[:, row], lens[:, len(block) + row])
            out[i] = (detect(profile, delta=config.delta, aggregation=config.aggregation),
                      batch.logits[row, -1].copy())
    return out


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
    pairs = question_pairs(bundle.model, records, bundle.vocab)
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
    detected = detect_stage(model, pairs, config)
    t1 = time.perf_counter()
    layers = {i: v.insertion_layer
              if v.hallucination and can_enter(model.config.n_layers, v.insertion_layer)
              else cal.offset_layer
              for i, (v, _) in enumerate(detected) if v.hallucination or config.force_retrieval}

    fused = {}
    stops = {i: max(cal.key_layer, cal.offset_layer, h) for i, h in layers.items()}
    for i, evidence in read_evidence(model, records, vocab, stops):
        profile = filter_profile(cal, evidence, config.lam)
        state = evidence.trace.hidden[layers[i] - 1].copy()
        raw = fused_input(model, layers[i], state[slice(*evidence.span)])
        filtered = filter_knowledge(
            KnowledgeStream(raw, "external"), profile.eq, profile.epsilon,
            profile.delta_entropy, rescale=config.rescale)
        fused[i] = _Fusion(profile, evidence.tokens,
                           make_dssp_hook(filtered.tokens, bundle.params), state)
    t2 = time.perf_counter()

    # the fused decode's first token; the layers below the hook are the context forward's
    first_logits = [logits for _, logits in detected]
    for block in blocks({i: (len(fused[i].tokens), layers[i]) for i in layers}, BLOCK_RECORDS):
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
        answer = generate_from(model, prompt, first_logits[i], len(record.answer), options)
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
    """Exact-match accuracy and flag rate as a JSON doc; no wall-clock, so it reproduces."""
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
    return {
        "n_records": len(records),
        "answer_token_accuracy": float(np.mean(hits)),
        "detection_rate": float(np.mean([t.verdict.hallucination for t in traces])),
    }


def make_train_examples(model: TinyTransformer, records, vocab: Vocab,
                        insertion_layer: int) -> list[TrainExample]:
    """Freeze each record's context, raw evidence rows and host pass into a
    training example for ``insertion_layer``; contexts of one length run as one
    full ``(B, n)`` forward per block (``read_evidence``)."""
    check_insertion_layer(model.config.n_layers, insertion_layer)
    records = list(records)
    examples: list = [None] * len(records)
    for i, evidence in read_evidence(model, records, vocab, dict.fromkeys(range(len(records)))):
        dhat = fused_input(model, insertion_layer,
                           evidence.trace.hidden[insertion_layer - 1][slice(*evidence.span)])
        examples[i] = TrainExample.from_trace(evidence.tokens, int(records[i].answer[0]), dhat,
                                              evidence.trace, insertion_layer)
    return examples
