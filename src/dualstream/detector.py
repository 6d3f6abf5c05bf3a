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

from .divergence import jsd_rows
from .errors import ContractViolationError, JsonRecord, VariantRuleError

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
        if not (self.values.min() >= -1e-12 and self.values.max() <= 1.0 + 1e-12):
            raise ContractViolationError("per-layer JSD outside [0, 1]")   # NaN too


@dataclass
class DetectionVerdict(JsonRecord):
    hallucination: bool
    statistic: float
    delta: float
    aggregation: str
    insertion_layer: int
    per_layer: tuple[float, ...]


def divergence_profile(profile_x: Sequence[Array], profile_xhat: Sequence[Array]) -> DivergenceProfile:
    """d_l = jsd(layer-l distribution of x, layer-l distribution of the variant), as one
    row-wise pass over the two ``(L, V)`` arrays."""
    if len(profile_x) != len(profile_xhat):
        raise ContractViolationError(
            f"layer counts differ: {len(profile_x)} vs {len(profile_xhat)}")
    if len(profile_x) == 0:
        raise ContractViolationError("divergence profile is empty")
    try:
        px, pv = np.asarray((profile_x, profile_xhat), dtype=np.float64).reshape(
            2, len(profile_x), -1)
    except ValueError:
        raise ContractViolationError(
            "profile vocab dimensions differ, or entries are not numbers") from None
    return DivergenceProfile(jsd_rows(px, pv))


def default_tail_k(layer_count: int) -> int:
    return max(1, math.ceil(layer_count / 4))


def detect(
    profile: DivergenceProfile,
    delta: float = DEFAULT_DELTA,
    aggregation: str = "tail_sum",
) -> DetectionVerdict:
    """Aggregate a divergence profile into a verdict and an insertion layer."""
    if not delta >= 0:   # NaN too: it would never flag
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
        per_layer=tuple(d.tolist()),
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
