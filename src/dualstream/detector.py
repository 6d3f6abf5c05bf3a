"""Paraphrase-instability detector.

Layer-wise next-token distributions of a query and a meaning-preserving
variant are compared with JSD; the per-layer divergences are aggregated
(``max`` or ``tail_sum`` over the deepest ceil(25%) layers, the default) and
compared against a threshold.  The layer with maximal divergence is where the
fusion module will be inserted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import jsd
from .errors import ContractViolationError, VariantRuleError, json_value, read_field

Array = np.ndarray

DEFAULT_DELTA = 1.0
AGGREGATIONS = ("max", "tail_sum")


@dataclass
class DivergenceProfile:
    """Per-layer JSD values (bits) between paired query profiles."""
    values: Array

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size == 0:
            raise ContractViolationError("divergence profile is empty")
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise ContractViolationError("per-layer JSD outside [0, 1]")


@dataclass
class DetectionVerdict:
    hallucination: bool
    statistic: float
    delta: float
    aggregation: str
    insertion_layer: int
    per_layer: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "hallucination": self.hallucination,
            "statistic": self.statistic,
            "delta": self.delta,
            "aggregation": self.aggregation,
            "insertion_layer": self.insertion_layer,
            "per_layer": list(self.per_layer),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DetectionVerdict":
        return cls(
            hallucination=read_field(doc, "hallucination", bool),
            statistic=read_field(doc, "statistic", float),
            delta=read_field(doc, "delta", float),
            aggregation=read_field(doc, "aggregation", str),
            insertion_layer=read_field(doc, "insertion_layer", int),
            per_layer=read_field(doc, "per_layer",
                                 lambda v: tuple(json_value(float, x) for x in v)),
        )


def divergence_profile(profile_x: Sequence[Array], profile_xhat: Sequence[Array]) -> DivergenceProfile:
    """d_l = jsd(layer-l distribution of x, layer-l distribution of the variant)."""
    if len(profile_x) != len(profile_xhat):
        raise ContractViolationError(
            f"layer counts differ: {len(profile_x)} vs {len(profile_xhat)}")
    values = []
    for px, pv in zip(profile_x, profile_xhat):
        if np.asarray(px).shape != np.asarray(pv).shape:
            raise ContractViolationError("profile vocab dimensions differ")
        values.append(jsd(px, pv))
    return DivergenceProfile(np.array(values))


def default_tail_k(layer_count: int) -> int:
    return max(1, math.ceil(layer_count / 4))


def detect(
    profile: DivergenceProfile,
    delta: float = DEFAULT_DELTA,
    aggregation: str = "tail_sum",
) -> DetectionVerdict:
    """Aggregate a divergence profile into a verdict and an insertion layer."""
    if delta < 0:
        raise ContractViolationError("delta must be >= 0")
    if aggregation not in AGGREGATIONS:
        raise ContractViolationError(f"unknown aggregation {aggregation!r}")
    d = profile.values
    if aggregation == "max":
        statistic = float(d.max())
        tag = "max"
    else:
        k = default_tail_k(d.size)
        statistic = float(d[-k:].sum())
        tag = f"tail_sum({k})"
    return DetectionVerdict(
        hallucination=bool(statistic > delta),
        statistic=statistic,
        delta=float(delta),
        aggregation=tag,
        insertion_layer=int(np.argmax(d)),  # lowest index on ties
        per_layer=tuple(float(v) for v in d),
    )


# ---------------------------------------------------------------------------
# variant construction
# ---------------------------------------------------------------------------

def make_variant(
    tokens: Sequence[int],
    wh_ids: frozenset[int] | set[int],
    aux_ids: frozenset[int] | set[int],
) -> list[int]:
    """Length-preserving question reorder: [wh aux subj rest...] -> [subj aux rest... wh].

    The rule needs the wh-word first and an auxiliary second; anything else
    must ship its variant in the dataset (VariantRuleError says so).
    """
    toks = [int(t) for t in tokens]
    if len(toks) < 3 or toks[0] not in wh_ids or toks[1] not in aux_ids:
        raise VariantRuleError(
            "cleft rule inapplicable (expects wh-word, auxiliary, subject...): "
            "supply variant in dataset")
    variant = [toks[2], toks[1], *toks[3:], toks[0]]
    assert len(variant) == len(toks)
    return variant
