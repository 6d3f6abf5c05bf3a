"""End-to-end orchestration: divergence check, evidence filtering, fused decode.

A run is driven by a ``RunConfig`` naming a host-model checkpoint and a fused
cross-attention checkpoint.  Per checkpoint the pipeline calibrates once — a
layer-pruning sweep over a canonical probe set yields the key/offset layers
and the entropy pair behind the filter gate — then every record flows through
three stages:

1. divergence check between the question and its reworded variant;
2. if flagged (or forced), energy-quotient filtering of the normalised
   evidence rows the fused block will read;
3. greedy decode, with the fused update hooked at the implicated layer when
   stage 2 ran, plain otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import QARecord, Vocab, make_question
from .detector import (
    AGGREGATIONS,
    DetectionVerdict,
    detect,
    divergence_profile,
    make_variant,
)
from .errors import ContractViolationError, json_value, read_field
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
)
from .model import forward  # noqa: F401  -- kept bound here for the benchmark's tracer test
from .training import TrainExample

PROBE_SUBJECTS_PER_HALF = 8

# the JSON kind of each RunConfig annotation
_FIELD_KINDS = {"str": str, "float": float, "int": int, "int | None": int, "bool": bool}


@dataclass
class RunConfig:
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
        for f in dataclasses.fields(self):
            if not (f.type == "int | None" and getattr(self, f.name) is None):
                read_field(vars(self), f.name, _FIELD_KINDS[f.type])
        if self.delta <= 0 or not np.isfinite(self.delta):
            raise ContractViolationError("delta must be finite and > 0")
        if self.aggregation not in AGGREGATIONS:
            raise ContractViolationError(f"aggregation must be one of {AGGREGATIONS}")
        if self.lam <= 0 or not np.isfinite(self.lam):
            raise ContractViolationError("lam must be finite and > 0")
        if self.top_t is not None and self.top_t < 1:
            raise ContractViolationError("top_t must be >= 1")
        if self.rescale not in RESCALE_MODES:
            raise ContractViolationError(f"rescale must be one of {RESCALE_MODES}")
        if not 0.0 < self.mu < 1.0:
            raise ContractViolationError("mu must lie in (0, 1)")
        if self.nu < 0 or not np.isfinite(self.nu):
            raise ContractViolationError("nu must be finite and >= 0")
        if self.seed < 0:
            raise ContractViolationError("seed must be >= 0")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ContractViolationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ContractViolationError(f"unknown config fields: {unknown}")
        return cls(**doc)


def load_config(path) -> RunConfig:
    """Read a JSON config and check that each referenced checkpoint is a file."""
    with open(path, "r", encoding="utf-8") as fh:
        config = RunConfig.from_json(json.load(fh))
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_json(), fh, sort_keys=True, indent=1)
        fh.write("\n")
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


# the fields a ``Vocab`` is built from, which its checkpoint metadata records
_VOCAB_FIELDS = [f.name for f in dataclasses.fields(Vocab) if f.init]


def meta_vocab(meta: dict) -> Vocab | None:
    """Rebuild the vocabulary a checkpoint was written with, if recorded."""
    vocab = read_field(meta, "vocab", dict, None)
    return None if vocab is None else Vocab(**{name: read_field(vocab, name, int)
                                              for name in _VOCAB_FIELDS})


def load_host(config: RunConfig) -> tuple[TinyTransformer, Vocab | None]:
    """Load the host checkpoint and the vocabulary recorded with it."""
    if not config.model_checkpoint:
        raise ContractViolationError("config names no model checkpoint")
    model, meta = load_model(config.model_checkpoint)
    return model, meta_vocab(meta)


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
    return Bundle(model, params, vocab, probe_calibration(model, vocab))


def vocab_meta(vocab: Vocab) -> dict:
    """Checkpoint metadata block that lets a run rebuild the vocabulary."""
    return {"vocab": {name: getattr(vocab, name) for name in _VOCAB_FIELDS}}


# ---------------------------------------------------------------------------
# per-record flow
# ---------------------------------------------------------------------------

@dataclass
class PipelineTrace:
    """What one record went through: verdict, optional filter, answer, timings."""
    record_id: str
    verdict: DetectionVerdict
    filter: FilterProfile | None
    answer: list[int]
    timings: dict[str, float] = field(default_factory=dict)
    forced: bool = False

    def __post_init__(self):
        if self.filter is not None and not (self.verdict.hallucination or self.forced):
            raise ContractViolationError(
                "filter stage present although the verdict did not gate it in")

    def to_json(self) -> dict:
        return {
            "record_id": self.record_id,
            "verdict": self.verdict.to_json(),
            "filter": "skipped" if self.filter is None else self.filter.to_json(),
            "answer": list(self.answer),
            "timings": dict(self.timings),
            "forced": self.forced,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PipelineTrace":
        """Rebuild a trace from its JSON form (timings may have been stripped)."""
        return cls(
            record_id=read_field(doc, "record_id", str),
            verdict=read_field(doc, "verdict", DetectionVerdict.from_json),
            filter=read_field(doc, "filter", lambda f: None if f == "skipped"
                              else FilterProfile.from_json(f)),
            answer=read_field(doc, "answer", lambda a: [json_value(int, t) for t in a]),
            timings=read_field(doc, "timings", lambda t: {
                k: json_value(float, v) for k, v in json_value(dict, t).items()}, {}),
            forced=read_field(doc, "forced", bool, False),
        )


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


def read_evidence(model: TinyTransformer, record: QARecord, vocab: Vocab | None,
                  stop: int | None = None) -> Evidence:
    """The context forward the filter scores and the fused block reads from,
    run up to layer ``stop``'s attention pattern (``infer``'s ``stop``)."""
    if vocab is None:
        raise ContractViolationError(
            "retrieval path needs the checkpoint vocabulary to build context")
    ctx = context_tokens(record, vocab)
    return Evidence(ctx, (len(record.question) + 1, len(ctx)), infer(model, ctx, stop=stop))


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


def detect_stage(model: TinyTransformer, record: QARecord, vocab: Vocab | None,
                 config: RunConfig) -> tuple[DetectionVerdict, np.ndarray]:
    """Stage 1: compare the question with its variant, run as one (2, n) batch.

    Also returns the question's last-position logits, from which the plain
    decode draws its first token.
    """
    pair = infer(model, [list(record.question), variant_tokens(record, vocab)])
    lens = logit_lens(model, pair.hidden)
    profile = divergence_profile(lens[:, 0], lens[:, 1])
    verdict = detect(profile, delta=config.delta, aggregation=config.aggregation)
    return verdict, pair.logits[0, -1]


def filter_stage(model: TinyTransformer, record: QARecord, vocab: Vocab | None,
                 calibration: Calibration, lam: float,
                 stop: int) -> tuple[FilterProfile, Evidence]:
    """Stage 2: score the record's evidence tokens from its context forward.

    The forward stops at layer ``stop``, the deepest layer the caller reads;
    the filter itself reads the key and offset layers' attention.
    """
    evidence = read_evidence(model, record, vocab, stop)
    profile = compute_filter_profile(
        evidence.trace, calibration, evidence.span,
        calibration.entropy_orig, calibration.entropy_offset, lam)
    return profile, evidence


def pipeline_run(record: QARecord, config: RunConfig, bundle: Bundle) -> PipelineTrace:
    """Run one record through detect -> (filter -> fused decode) | plain decode."""
    model, vocab, cal = bundle.model, bundle.vocab, bundle.calibration
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    verdict, first_logits = detect_stage(model, record, vocab, config)
    timings["detect"] = time.perf_counter() - t0

    retrieve = verdict.hallucination or config.force_retrieval
    filter_profile: FilterProfile | None = None
    options = None
    prompt = list(record.question)
    if retrieve:
        t0 = time.perf_counter()
        hook_layer = cal.offset_layer
        if verdict.hallucination and verdict.insertion_layer >= 1:
            hook_layer = verdict.insertion_layer
        filter_profile, evidence = filter_stage(
            model, record, vocab, cal, config.lam,
            max(cal.key_layer, cal.offset_layer, hook_layer))
        raw = offset_layer_stream(model, evidence.trace, evidence.span, hook_layer)
        filtered = filter_knowledge(
            KnowledgeStream(raw, "external"), filter_profile.eq,
            filter_profile.epsilon, filter_profile.delta_entropy,
            rescale=config.rescale)
        options = ForwardOptions(dssp_layer=hook_layer,
                                 dssp_hook=make_dssp_hook(filtered.tokens, bundle.params))
        prompt = evidence.tokens
        timings["filter"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if retrieve:
        # layers below the hook are the context forward's
        resume = (hook_layer, evidence.trace.hidden[hook_layer - 1])
        first_logits = infer(model, prompt, options, resume).logits[-1]
    answer = generate_from(model, prompt, first_logits, max(1, len(record.answer)), options)
    timings["decode"] = time.perf_counter() - t0

    return PipelineTrace(record.record_id, verdict, filter_profile, answer,
                         timings, forced=config.force_retrieval)


def run_records(records, config: RunConfig, bundle: Bundle) -> list[PipelineTrace]:
    """Run a record list against one shared bundle, in order."""
    return [pipeline_run(record, config, bundle) for record in records]


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
    training example for ``insertion_layer``."""
    examples = []
    for record in records:
        evidence = read_evidence(model, record, vocab)
        dhat = offset_layer_stream(model, evidence.trace, evidence.span, insertion_layer)
        examples.append(TrainExample.from_trace(evidence.tokens, int(record.answer[0]), dhat,
                                                evidence.trace, insertion_layer))
    return examples
