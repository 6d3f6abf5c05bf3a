"""Distribution divergences and entropies (base-2 unless stated otherwise).

    kl(p, q)  = sum_i p_i * log2(p_i / q_i)            (+inf on unmatched support)
    jsd(p, q) = kl(p, m)/2 + kl(q, m)/2,  m = (p+q)/2  (bounded in [0, 1])
    entropy(p) = -sum_i p_i * log2(p_i)

Semantic entropy clusters a set of answers (the calibration sweep's greedy
answers, one per query) by their normalized form and takes the Shannon
entropy of the cluster-mass distribution.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import ContractViolationError

Array = np.ndarray

_SUM_TOL = 1e-9


def validate_prob_vector(p) -> Array:
    """Return p as a new float64 array of vectors over its last axis; reject negatives and a
    vector whose mass is not 1."""
    a = np.asarray(p, dtype=np.float64)
    if a.size == 0:
        raise ContractViolationError("probability vector is empty")
    if not (a.min() >= -1e-12 and a.max() < np.inf):   # NaN fails both
        raise ContractViolationError("probability vector has negative or non-finite entries")
    a = np.maximum(a, 0.0)
    total = np.add.reduce(a, axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > _SUM_TOL
    if off.any():
        raise ContractViolationError(f"probability mass {total[off][0]} not within 1e-9 of 1")
    return a


def kl_divergence(p, q) -> float:
    """KL(p || q) in bits; +inf when p puts mass where q has none."""
    pv, qv = validate_prob_vector(np.ravel(p)), validate_prob_vector(np.ravel(q))
    if pv.size != qv.size:
        raise ContractViolationError("kl_divergence needs equal-length vectors")
    return max(float(_kl_rows(pv[None], qv[None])[0]), 0.0)


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits; symmetric, finite, in [0, 1]."""
    pv, qv = validate_prob_vector(np.ravel(p)), validate_prob_vector(np.ravel(q))
    if pv.size != qv.size:
        raise ContractViolationError("jsd needs equal-length vectors")
    return float(jsd_rows(pv[None], qv[None])[0])


def jsd_rows(p: Array, q: Array) -> Array:
    """``jsd`` of each row pair of two equal-shape float64 ``(L, V)`` arrays, bit for bit."""
    if p.ndim != 2 or p.shape != q.shape:
        raise ContractViolationError(f"jsd_rows needs equal (L, V) arrays: {p.shape}, {q.shape}")
    pq = validate_prob_vector((p, q))   # one pass over both sides' rows
    kl = _kl_rows(pq, 0.5 * (pq[0] + pq[1]))
    val = 0.5 * kl[0] + 0.5 * kl[1]
    val[val < 0.0] = 0.0   # each row's ``min(max(v, 0.0), 1.0)``, which keeps a -0.0
    val[val > 1.0] = 1.0
    return val


def _kl_rows(pv: Array, qv: Array) -> Array:
    """KL(pv || qv) in each row over the last axis, qv broadcast against pv, as one sum
    per row.  An exact zero in pv makes its row's sum NaN (``0 * log2(0)``); such a row
    sums its support alone, as the 1-d pairwise sum of ``pv[pv > 0]`` does."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.add.reduce(pv * np.log2(pv / qv), axis=-1)
        for r in zip(*np.nonzero(np.isnan(out))):
            s, q = pv[r] > 0.0, np.broadcast_to(qv, pv.shape)[r]
            out[r] = np.sum(pv[r][s] * np.log2(pv[r][s] / q[s]))
    return out


def shannon_entropy(p) -> float:
    """Shannon entropy in bits; 0 for a point mass."""
    pv = validate_prob_vector(np.ravel(p))
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
    """Entropy (bits) of the cluster distribution over ``answers``.

    Two answers share a cluster when they match exactly after normalization
    (the desk-scale stand-in for bidirectional entailment).
    """
    if len(answers) == 0:
        raise ContractViolationError("semantic_entropy needs at least one answer")
    counts = Counter(normalized_answer(ans) for ans in answers)
    probs = np.asarray(list(counts.values()), dtype=np.float64)
    probs /= probs.sum()
    return shannon_entropy(probs)
