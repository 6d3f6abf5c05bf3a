"""Attention-difference knowledge filter.

A layer-pruning sweep over pooled sampled answers classifies layers by how
removal shifts semantic entropy: the layer whose removal hurts most is the
key (knowledge) layer, the one whose removal helps most is the offset (noise)
layer.  External tokens are then scored by attention received at each layer;
a softmax over the negated score difference (the energy quotient) reweights
the external stream, gated by how much skipping the offset layer reduced
entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import semantic_entropy, validate_prob_vector
from .errors import ContractViolationError, LayerStructureError, json_value, read_field
from .fusion import KnowledgeStream
from .model import ForwardOptions, ForwardTrace, TinyTransformer, generate_from, infer

Array = np.ndarray

# entropy must drop by more than this (in bits) before filtering activates
ENTROPY_DROP_THRESHOLD = -0.1
RESCALE_MODES = ("none", "seq_len")
DEFAULT_LAMBDA = 1.0


@dataclass(frozen=True)
class SamplingSpec:
    """How answers are sampled when measuring semantic entropy."""
    n_samples: int = 1
    temperature: float = 0.0
    seed: int = 0
    max_new_tokens: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ContractViolationError("n_samples must be >= 1")
        if self.temperature < 0:
            raise ContractViolationError("temperature must be >= 0")
        if self.max_new_tokens < 1:
            raise ContractViolationError("max_new_tokens must be >= 1")


@dataclass
class PruningSweep:
    """Pooled semantic entropy with each layer skipped, next to the baseline."""
    baseline_entropy: float
    layer_entropies: Array

    def __post_init__(self):
        self.layer_entropies = np.asarray(self.layer_entropies, dtype=np.float64).ravel()
        if self.layer_entropies.size < 1:
            raise ContractViolationError("sweep needs at least one layer")

    @property
    def deltas(self) -> Array:
        """Entropy change caused by removing each layer (skip minus baseline)."""
        return self.layer_entropies - self.baseline_entropy


def _query_seed(seed: int, query_index: int) -> int:
    # keyed by query only, never by layer: a layer whose removal leaves the
    # output distribution untouched then reuses bit-identical sample streams,
    # making its entropy delta exactly zero
    return int(np.random.SeedSequence([seed, query_index]).generate_state(1)[0])


def _pooled_entropy(model: TinyTransformer, queries, first_logits, spec: SamplingSpec,
                    options: ForwardOptions | None) -> float:
    answers: list[tuple[int, ...]] = []
    for qi, (query, first) in enumerate(zip(queries, first_logits)):
        samples = generate_from(
            model, query, first, spec.n_samples, spec.temperature,
            _query_seed(spec.seed, qi), spec.max_new_tokens, options)
        answers.extend(tuple(s) for s in samples)
    return semantic_entropy(answers)


def pruning_sweep(model: TinyTransformer, queries: Sequence[Sequence[int]],
                  spec: SamplingSpec = SamplingSpec()) -> PruningSweep:
    """Measure pooled answer entropy with each layer skipped in turn.

    Queries of one length run as one batch.  Layers below a skipped one are
    the baseline's, so the run that skips layer l resumes from the
    baseline's ``hidden[l - 1]``.
    """
    if len(queries) < 1:
        raise ContractViolationError("pruning sweep needs at least one query")
    n_layers = model.config.n_layers
    runs = [None] + [ForwardOptions(skip_layers=frozenset({l})) for l in range(n_layers)]
    firsts = [[None] * len(queries) for _ in runs]   # last-position logits per run and query
    by_length: dict[int, list[int]] = {}
    for qi, query in enumerate(queries):
        by_length.setdefault(len(query), []).append(qi)
    for group in by_length.values():
        tokens = [queries[qi] for qi in group]
        base = infer(model, tokens)
        for r, options in enumerate(runs):
            if options is None:
                trace = base
            else:
                l = r - 1
                resume = (l, base.hidden[l - 1]) if l else None
                trace = infer(model, tokens, options, resume)
            for row, qi in enumerate(group):
                firsts[r][qi] = trace.logits[row, -1]
    entropies = [_pooled_entropy(model, queries, firsts[r], spec, options)
                 for r, options in enumerate(runs)]
    return PruningSweep(baseline_entropy=entropies[0], layer_entropies=np.array(entropies[1:]))


@dataclass(frozen=True)
class LayerClassification:
    key_layer: int
    offset_layer: int


def classify_layers(sweep: PruningSweep) -> LayerClassification:
    """Key layer = removal hurts most; offset layer = removal helps most."""
    deltas = sweep.deltas
    if deltas.size < 2:
        raise ContractViolationError("need at least two layers to classify")
    if np.all(deltas == deltas[0]):
        raise LayerStructureError("no separable key/offset structure")
    return LayerClassification(
        key_layer=int(np.argmax(deltas)),
        offset_layer=int(np.argmin(deltas)),
    )


def attention_token_scores(trace: ForwardTrace, layer: int,
                           span: tuple[int, int]) -> Array:
    """Mean attention mass each span position receives at one layer.

    The mean runs over heads and all query positions; only key positions are
    restricted to the span.
    """
    if not 0 <= layer < len(trace.attention):
        raise ContractViolationError(f"layer {layer} outside trace")
    pattern = trace.attention[layer]
    n = pattern.shape[-1]
    start, stop = int(span[0]), int(span[1])
    if not (0 <= start < stop <= n):
        raise ContractViolationError(f"span {span} empty or outside sequence of length {n}")
    return pattern[:, :, start:stop].mean(axis=(0, 1))


def energy_quotient(delta_a: Sequence[float], lam: float = DEFAULT_LAMBDA) -> Array:
    """softmax(-lam * delta_a): tokens the key layer favours get the larger share."""
    da = np.asarray(delta_a, dtype=np.float64).ravel()
    if da.size == 0:
        raise ContractViolationError("energy quotient needs at least one token")
    if not np.all(np.isfinite(da)) or not math.isfinite(lam):
        raise ContractViolationError("scores and lam must be finite")
    z = -lam * da
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def entropy_gate(entropy_orig: float, entropy_offset: float) -> tuple[float, float]:
    """Weighting coefficient from the entropy drop caused by skipping the offset layer.

    Returns (epsilon, delta): delta = entropy_offset - entropy_orig;
    epsilon = ln(1 - delta/entropy_orig) when delta < -0.1, else 0.
    """
    if not math.isfinite(entropy_orig) or entropy_orig <= 0:
        raise ContractViolationError("baseline entropy must be finite and > 0")
    if not math.isfinite(entropy_offset):
        raise ContractViolationError("offset entropy must be finite")
    delta = entropy_offset - entropy_orig
    if delta < ENTROPY_DROP_THRESHOLD:
        return math.log1p(-delta / entropy_orig), delta
    return 0.0, delta


@dataclass
class FilterProfile:
    """Everything the filter decided for one query."""
    key_layer: int
    offset_layer: int
    delta_a: Array
    eq: Array
    epsilon: float
    delta_entropy: float

    def __post_init__(self):
        self.delta_a = np.asarray(self.delta_a, dtype=np.float64).ravel()
        self.eq = np.asarray(self.eq, dtype=np.float64).ravel()
        if self.key_layer == self.offset_layer:
            raise ContractViolationError("key and offset layer must differ")
        if self.delta_a.size != self.eq.size:
            raise ContractViolationError("delta_a and eq lengths differ")
        validate_prob_vector(self.eq)
        if self.epsilon < 0:
            raise ContractViolationError("epsilon must be >= 0")
        if self.delta_entropy >= ENTROPY_DROP_THRESHOLD and self.epsilon != 0.0:
            raise ContractViolationError("epsilon must be zero when the gate is inactive")

    def to_json(self) -> dict:
        return {
            "key_layer": self.key_layer,
            "offset_layer": self.offset_layer,
            "delta_a": [float(v) for v in self.delta_a],
            "eq": [float(v) for v in self.eq],
            "epsilon": self.epsilon,
            "delta_entropy": self.delta_entropy,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FilterProfile":
        floats = lambda v: np.array([json_value(float, x) for x in v], dtype=np.float64)
        return cls(
            key_layer=read_field(doc, "key_layer", int),
            offset_layer=read_field(doc, "offset_layer", int),
            delta_a=read_field(doc, "delta_a", floats),
            eq=read_field(doc, "eq", floats),
            epsilon=read_field(doc, "epsilon", float),
            delta_entropy=read_field(doc, "delta_entropy", float),
        )


def compute_filter_profile(trace: ForwardTrace, classification: LayerClassification,
                           span: tuple[int, int], entropy_orig: float,
                           entropy_offset: float, lam: float = DEFAULT_LAMBDA) -> FilterProfile:
    """Score one query's external span and assemble the filter decision."""
    scores_offset = attention_token_scores(trace, classification.offset_layer, span)
    scores_key = attention_token_scores(trace, classification.key_layer, span)
    delta_a = scores_offset - scores_key
    epsilon, delta_entropy = entropy_gate(entropy_orig, entropy_offset)
    return FilterProfile(
        key_layer=classification.key_layer,
        offset_layer=classification.offset_layer,
        delta_a=delta_a,
        eq=energy_quotient(delta_a, lam),
        epsilon=epsilon,
        delta_entropy=delta_entropy,
    )


def filter_knowledge(stream: KnowledgeStream, eq: Sequence[float], epsilon: float,
                     delta_entropy: float, rescale: str = "none") -> KnowledgeStream:
    """Reweight external token rows by epsilon * eq (* token count for seq_len mode).

    When the entropy gate never activated (delta_entropy >= -0.1) the stream
    passes through bit-exact.
    """
    if rescale not in RESCALE_MODES:
        raise ContractViolationError(f"rescale must be one of {RESCALE_MODES}")
    weights = np.asarray(eq, dtype=np.float64).ravel()
    if weights.size != stream.seq_len:
        raise ContractViolationError(
            f"eq length {weights.size} != stream token count {stream.seq_len}")
    validate_prob_vector(weights)
    if epsilon < 0:
        raise ContractViolationError("epsilon must be >= 0")
    if delta_entropy >= ENTROPY_DROP_THRESHOLD:
        return KnowledgeStream(stream.tokens.copy(), stream.origin)
    factor = 1.0 if rescale == "none" else float(stream.seq_len)
    scaled = stream.tokens * (epsilon * factor * weights)[:, None]
    return KnowledgeStream(scaled, stream.origin)
