"""Distribution divergences and entropies (base-2 unless stated otherwise).

    kl(p, q)  = sum_i p_i * log2(p_i / q_i)            (+inf on unmatched support)
    jsd(p, q) = kl(p, m)/2 + kl(q, m)/2,  m = (p+q)/2  (bounded in [0, 1])
    entropy(p) = -sum_i p_i * log2(p_i)

Semantic entropy clusters sampled answers by their normalized form and
takes the Shannon entropy of the cluster-mass distribution.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import ContractViolationError

Array = np.ndarray

_SUM_TOL = 1e-9


def validate_prob_vector(p) -> Array:
    """Return p as a float64 1-d array; reject negatives and mass != 1."""
    a = np.asarray(p, dtype=np.float64).ravel()
    if a.size == 0:
        raise ContractViolationError("probability vector is empty")
    if np.any(a < -1e-12) or not np.all(np.isfinite(a)):
        raise ContractViolationError("probability vector has negative or non-finite entries")
    a = np.maximum(a, 0.0)
    total = a.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise ContractViolationError(f"probability mass {total} not within 1e-9 of 1")
    return a


def kl_divergence(p, q) -> float:
    """KL(p || q) in bits; +inf when p puts mass where q has none."""
    pv, qv = validate_prob_vector(p), validate_prob_vector(q)
    if pv.size != qv.size:
        raise ContractViolationError("kl_divergence needs equal-length vectors")
    support = pv > 0.0
    if np.any(qv[support] == 0.0):
        return float("inf")
    val = float(np.sum(pv[support] * np.log2(pv[support] / qv[support])))
    return max(val, 0.0)


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits; symmetric, finite, in [0, 1]."""
    pv, qv = validate_prob_vector(p), validate_prob_vector(q)
    if pv.size != qv.size:
        raise ContractViolationError("jsd needs equal-length vectors")
    m = 0.5 * (pv + qv)
    val = 0.5 * _kl_raw(pv, m) + 0.5 * _kl_raw(qv, m)
    return float(min(max(val, 0.0), 1.0))


def _kl_raw(pv: Array, qv: Array) -> float:
    support = pv > 0.0
    return float(np.sum(pv[support] * np.log2(pv[support] / qv[support])))


def shannon_entropy(p) -> float:
    """Shannon entropy in bits; 0 for a point mass."""
    pv = validate_prob_vector(p)
    support = pv > 0.0
    return float(-np.sum(pv[support] * np.log2(pv[support])))


def normalized_answer(answer) -> object:
    """Semantic-entropy cluster key: whitespace/case-normalized string, or a hashable echo."""
    if isinstance(answer, str):
        return " ".join(answer.split()).casefold()
    if isinstance(answer, (list, tuple, np.ndarray)):
        return tuple(int(t) for t in answer)
    return answer


def semantic_entropy(answers: Sequence) -> float:
    """Entropy (bits) of the cluster distribution over sampled answers.

    Two answers share a cluster when they match exactly after normalization
    (the desk-scale stand-in for bidirectional entailment).
    """
    if len(answers) == 0:
        raise ContractViolationError("semantic_entropy needs at least one answer")
    counts = Counter(normalized_answer(ans) for ans in answers)
    probs = np.asarray(list(counts.values()), dtype=np.float64)
    probs /= probs.sum()
    return shannon_entropy(probs)
