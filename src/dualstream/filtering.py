"""Attention-difference knowledge filter.

A layer-pruning sweep over the greedy answers to a set of queries classifies
layers by how removal shifts their semantic entropy: the layer whose removal
hurts most is the key (knowledge) layer, the one whose removal helps most is
the offset (noise) layer.  External tokens are then scored by attention received at each layer;
a softmax over the negated score difference (the energy quotient) reweights
the external stream, gated by how much removing the offset layer reduced
entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import row_softmax
from .divergence import semantic_entropy, validate_prob_vector
from .errors import ContractViolationError, JsonRecord, LayerStructureError
from .fusion import KnowledgeStream
from .model import ForwardTrace, TinyTransformer, blocks, embed, infer

Array = np.ndarray

ENTROPY_DROP_THRESHOLD = -0.1
RESCALE_MODES = ("none", "seq_len")
DEFAULT_LAMBDA = 1.0
# Queries per batched pass of the pruning sweep.  A pass holds its queries' whole host
# traces, so without a cap the sweep's memory grows with its query set; passes of 16
# rows would be slower (117-125 ms against 84-86 ms for 64 questions in one pass).
SWEEP_PASS_QUERIES = 256


@dataclass(frozen=True)
class SamplingSpec:
    """How the sweep decodes: greedily, one answer per query; there is nothing to set."""


@dataclass
class PruningSweep:
    """Pooled semantic entropy with each layer removed, next to the baseline."""
    baseline_entropy: float
    layer_entropies: Array

    def __post_init__(self):
        self.layer_entropies = np.asarray(self.layer_entropies, dtype=np.float64).ravel()
        if self.layer_entropies.size < 1:
            raise ContractViolationError("sweep needs at least one layer")

    @property
    def deltas(self) -> Array:
        """Entropy change caused by removing each layer (removed minus baseline)."""
        return self.layer_entropies - self.baseline_entropy


def pruning_sweep(model: TinyTransformer, queries: Sequence[Sequence[int]],
                  spec: SamplingSpec = SamplingSpec()) -> PruningSweep:
    """Measure the semantic entropy of the queries' greedy answers with each
    layer removed in turn.

    Each answer is the argmax of the query's last-position logits.  Queries
    of one length run as one batch per ``SWEEP_PASS_QUERIES`` of them.
    Removing layer l hands the stream entering it straight to layer l + 1, so
    that run resumes at l + 1 from the baseline's stream entering l (the
    embeddings for l = 0).  ``spec`` is the one ``SamplingSpec``; it selects
    nothing.
    """
    if len(queries) < 1:
        raise ContractViolationError("pruning sweep needs at least one query")
    n_layers = model.config.n_layers
    # greedy answer per run (the baseline, then layer r - 1 removed) and query
    answers = [[None] * len(queries) for _ in range(n_layers + 1)]
    for group in blocks({qi: len(query) for qi, query in enumerate(queries)}, SWEEP_PASS_QUERIES):
        tokens = [queries[qi] for qi in group]
        base = infer(model, tokens)
        entering = [embed(model, tokens)] + base.hidden[:-1]
        for r in range(n_layers + 1):
            trace = infer(model, tokens, resume=(r, entering[r - 1])) if r else base
            for row, qi in enumerate(group):
                answers[r][qi] = (int(np.argmax(trace.logits[row, -1])),)
    entropies = [semantic_entropy(run) for run in answers]
    return PruningSweep(baseline_entropy=entropies[0], layer_entropies=np.array(entropies[1:]))


@dataclass(frozen=True)
class Calibration:
    """Key/offset layers and the entropy pair behind the filter gate, read off one sweep."""
    key_layer: int
    offset_layer: int
    entropy_orig: float      # the sweep's baseline entropy
    entropy_offset: float    # the entropy with the offset layer removed


def classify_layers(sweep: PruningSweep) -> Calibration:
    """Key layer = removal hurts most; offset layer = removal helps most."""
    deltas = sweep.deltas
    if deltas.size < 2:
        raise ContractViolationError("need at least two layers to classify")
    if np.all(deltas == deltas[0]):
        raise LayerStructureError("no separable key/offset structure")
    offset_layer = int(np.argmin(deltas))
    return Calibration(key_layer=int(np.argmax(deltas)), offset_layer=offset_layer,
                       entropy_orig=float(sweep.baseline_entropy),
                       entropy_offset=float(sweep.layer_entropies[offset_layer]))


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
    return row_softmax(da, -lam)


def gate_fires(delta_entropy: float) -> bool:
    """Whether the filter reweights the evidence: removing the offset layer must lower
    the entropy by more than ``-ENTROPY_DROP_THRESHOLD`` bits.  The one statement of
    the gate; a non-finite change decides nothing and is refused."""
    if not math.isfinite(delta_entropy):
        raise ContractViolationError(f"entropy change {delta_entropy} is not finite")
    return delta_entropy < ENTROPY_DROP_THRESHOLD


def entropy_gate(entropy_orig: float, entropy_offset: float) -> tuple[float, float]:
    """Weighting coefficient from the entropy drop caused by removing the offset layer.

    Returns (epsilon, delta): delta = entropy_offset - entropy_orig;
    epsilon = ln(1 - delta/entropy_orig) when ``gate_fires(delta)``, else 0.
    """
    if not math.isfinite(entropy_orig) or entropy_orig <= 0:
        raise ContractViolationError("baseline entropy must be finite and > 0")
    if not math.isfinite(entropy_offset):
        raise ContractViolationError("offset entropy must be finite")
    delta = entropy_offset - entropy_orig
    if gate_fires(delta):
        return math.log1p(-delta / entropy_orig), delta
    return 0.0, delta


@dataclass
class FilterProfile(JsonRecord):
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
        if not gate_fires(self.delta_entropy) and self.epsilon != 0.0:
            raise ContractViolationError("epsilon must be zero when the gate is inactive")


def compute_filter_profile(trace: ForwardTrace, calibration: Calibration,
                           span: tuple[int, int], entropy_orig: float,
                           entropy_offset: float, lam: float = DEFAULT_LAMBDA) -> FilterProfile:
    """Score one query's external span and assemble the filter decision."""
    if (entropy_orig, entropy_offset) != (calibration.entropy_orig, calibration.entropy_offset):
        raise ContractViolationError(
            f"entropy pair ({entropy_orig}, {entropy_offset}) is not the calibration's "
            f"({calibration.entropy_orig}, {calibration.entropy_offset})")
    scores_offset = attention_token_scores(trace, calibration.offset_layer, span)
    scores_key = attention_token_scores(trace, calibration.key_layer, span)
    delta_a = scores_offset - scores_key
    epsilon, delta_entropy = entropy_gate(entropy_orig, entropy_offset)
    return FilterProfile(
        key_layer=calibration.key_layer,
        offset_layer=calibration.offset_layer,
        delta_a=delta_a,
        eq=energy_quotient(delta_a, lam),
        epsilon=epsilon,
        delta_entropy=delta_entropy,
    )


def filter_knowledge(stream: KnowledgeStream, eq: Sequence[float], epsilon: float,
                     delta_entropy: float, rescale: str = "none") -> KnowledgeStream:
    """Reweight external token rows by epsilon * eq (* token count for seq_len mode).

    When the gate did not fire (``gate_fires(delta_entropy)`` is false) the stream
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
    if not gate_fires(delta_entropy):
        return KnowledgeStream(stream.tokens.copy(), stream.origin)
    factor = 1.0 if rescale == "none" else float(stream.seq_len)
    scaled = stream.tokens * (epsilon * factor * weights)[:, None]
    return KnowledgeStream(scaled, stream.origin)
