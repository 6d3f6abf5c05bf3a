"""Divergence module: frozen closed-form values plus randomized properties.

Frozen constants below were derived once with 30-digit arithmetic (mpmath)
from the definitions; they are independent of the implementation under test.
"""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualstream.divergence import (
    jsd,
    jsd_rows,
    kl_divergence,
    semantic_entropy,
    shannon_entropy,
    validate_prob_vector,
)
from dualstream.errors import ContractViolationError

KL_HALF_VS_91 = 0.736965594166206166  # KL([.5,.5] || [.9,.1]) bits
JSD_HALF_VS_POINT = 0.311278124459132864  # JSD([.5,.5], [1,0]) bits


def test_kl_identical_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_onehot_vs_uniform_pair():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_kl_frozen_value():
    assert kl_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(KL_HALF_VS_91, abs=1e-12)


def test_kl_unmatched_support_is_inf():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == float("inf")


def test_kl_nonnegative_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert kl_divergence(p, q) >= 0.0


def test_kl_rejects_bad_mass():
    with pytest.raises(ContractViolationError,
                       match=r"probability mass 1\.1 not within 1e-9 of 1"):
        kl_divergence([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ContractViolationError,
                       match=r"probability mass 0\.8999+ not within 1e-9 of 1"):
        kl_divergence([0.5, 0.5], [0.7, 0.2])


def test_kl_rejects_length_mismatch():
    with pytest.raises(ContractViolationError, match="kl_divergence needs equal-length vectors"):
        kl_divergence([1.0], [0.5, 0.5])


def test_jsd_rejects_a_shape_mismatch():
    with pytest.raises(ContractViolationError, match="jsd needs equal-length vectors"):
        jsd([1.0], [0.5, 0.5])
    with pytest.raises(ContractViolationError,
                       match=r"jsd_rows needs equal \(L, V\) arrays: \(1, 2\), \(2, 2\)"):
        jsd_rows(np.full((1, 2), 0.5), np.full((2, 2), 0.5))
    with pytest.raises(ContractViolationError, match=r"jsd_rows needs equal \(L, V\) arrays"):
        jsd_rows(np.full(2, 0.5), np.full(2, 0.5))


def test_jsd_frozen_value():
    assert jsd([0.5, 0.5], [1.0, 0.0]) == pytest.approx(JSD_HALF_VS_POINT, abs=1e-12)


def test_jsd_disjoint_support_saturates_at_one():
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    p = [0.5, 0.5, 0.0, 0.0]
    q = [0.0, 0.0, 0.25, 0.75]
    assert jsd(p, q) == pytest.approx(1.0, abs=1e-12)


def test_jsd_symmetry_bounds_and_identity():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = rng.dirichlet(np.ones(7))
        q = rng.dirichlet(np.ones(7))
        v = jsd(p, q)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(jsd(q, p), abs=1e-12)
    p = rng.dirichlet(np.ones(7))
    assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)


def test_jsd_finite_even_where_kl_is_not():
    assert np.isfinite(jsd([0.5, 0.5], [1.0, 0.0]))


def test_entropy_frozen_values():
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)
    assert shannon_entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-12)


def test_validate_prob_vector_rejects_negative():
    with pytest.raises(ContractViolationError,
                       match="probability vector has negative or non-finite entries"):
        validate_prob_vector([1.2, -0.2])
    with pytest.raises(ContractViolationError, match="probability vector is empty"):
        validate_prob_vector([])


def test_semantic_entropy_split_4_2_2():
    answers = ["paris"] * 4 + ["rome"] * 2 + ["oslo"] * 2
    assert semantic_entropy(answers) == pytest.approx(1.5, abs=1e-12)


def test_semantic_entropy_all_identical_is_zero():
    assert semantic_entropy(["x", "x", "x"]) == pytest.approx(0.0, abs=1e-12)


def test_semantic_entropy_normalizes_whitespace_and_case():
    answers = ["New  York", "new york", " NEW YORK "]
    assert semantic_entropy(answers) == pytest.approx(0.0, abs=1e-12)


def test_semantic_entropy_token_sequences():
    answers = [[3, 7], (3, 7), [9, 1], [9, 1]]
    assert semantic_entropy(answers) == pytest.approx(1.0, abs=1e-12)


def test_semantic_entropy_empty_rejected():
    with pytest.raises(ContractViolationError, match="semantic_entropy needs at least one answer"):
        semantic_entropy([])


def test_semantic_entropy_matches_manual_cluster_oracle():
    rng = np.random.default_rng(3)
    vocab = ["a", "b", "c", "d"]
    for _ in range(50):
        answers = [vocab[i] for i in rng.integers(0, 4, size=16)]
        _, counts = np.unique(answers, return_counts=True)
        probs = counts / counts.sum()
        assert semantic_entropy(answers) == pytest.approx(shannon_entropy(probs), abs=1e-12)
