"""Planted-decomposition generator and projection-report tests."""
import math

import numpy as np
import pytest

from dualstream.errors import ContractViolationError
from dualstream.synth import (
    SyntheticDecomposition,
    decomposition_report,
    suppression_study,
    suppression_trial,
    synth_streams,
)


def test_streams_deterministic():
    a = synth_streams(16, 5, 3, (2, 3, 4), 0.5, seed=42)
    b = synth_streams(16, 5, 3, (2, 3, 4), 0.5, seed=42)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.basis_shared, b.basis_shared)
    c = synth_streams(16, 5, 3, (2, 3, 4), 0.5, seed=43)
    assert not np.array_equal(a.x, c.x)


def test_components_reconstruct_exactly():
    d = synth_streams(12, 4, 6, (3, 2, 2), 0.2, seed=0)
    assert np.array_equal(d.x, d.shared_x + d.private_x + d.noise_x)
    assert np.array_equal(d.y, d.shared_y + d.private_y + d.noise_y)


def gram_offdiagonal_max(d) -> float:
    """Largest cross-subspace inner product; ~0 when planting is orthogonal."""
    basis = np.concatenate([d.basis_shared, d.basis_private_x, d.basis_private_y], axis=1)
    gram = basis.T @ basis
    off = gram - np.diag(np.diag(gram))
    return float(np.abs(off).max()) if off.size else 0.0


def test_planted_subspaces_orthogonal():
    for seed in range(10):
        d = synth_streams(20, 3, 3, (4, 5, 6), 1.0, seed=seed)
        assert gram_offdiagonal_max(d) <= 1e-9


def test_equal_counts_share_identical_component():
    d = synth_streams(10, 4, 4, (3, 2, 2), 0.1, seed=7)
    assert np.array_equal(d.shared_x, d.shared_y)
    e = synth_streams(10, 4, 5, (3, 2, 2), 0.1, seed=7)
    assert not np.array_equal(e.shared_x[:4], e.shared_y[:4])


def test_zero_noise_stays_in_planted_span():
    d = synth_streams(16, 6, 6, (3, 3, 3), 0.0, seed=3)
    report = decomposition_report(d.x, d)
    assert report["energy_residual"] == pytest.approx(0.0, abs=1e-18)
    assert report["energy_private_y"] == pytest.approx(0.0, abs=1e-18)


def test_zero_private_dims_share_one_subspace():
    d = synth_streams(8, 3, 3, (4, 0, 0), 0.3, seed=5)
    span = d.basis_shared
    for clean in (d.x - d.noise_x, d.y - d.noise_y):
        back = (clean @ span) @ span.T
        assert np.allclose(back, clean, atol=1e-12)


def test_stream_validation():
    with pytest.raises(ContractViolationError,
                       match=r"dimension budget exceeded: 4\+3\+3 > d_model 8"):
        synth_streams(8, 2, 2, (4, 3, 3), 0.1, seed=0)  # 10 > 8
    for d_model in (0, 513):
        with pytest.raises(ContractViolationError,
                           match=rf"d_model must lie in 1\.\.512, got {d_model}"):
            synth_streams(d_model, 2, 2, (2, 2, 2), 0.1, seed=0)
    with pytest.raises(ContractViolationError, match=r"token counts must lie in 1\.\.512"):
        synth_streams(8, 0, 2, (2, 2, 2), 0.1, seed=0)
    with pytest.raises(ContractViolationError, match="noise_scale must be finite and >= 0"):
        synth_streams(8, 2, 2, (2, 2, 2), -0.1, seed=0)
    with pytest.raises(ContractViolationError, match="subspace dims must be >= 0"):
        synth_streams(8, 2, 2, (-1, 2, 2), 0.1, seed=0)


def test_report_rows_inside_shared_span():
    d = synth_streams(12, 4, 4, (3, 3, 3), 0.1, seed=1)
    u = np.random.default_rng(2).normal(size=(5, 3)) @ d.basis_shared.T
    report = decomposition_report(u, d)
    assert report["energy_private_x"] == pytest.approx(0.0, abs=1e-18)
    assert report["energy_private_y"] == pytest.approx(0.0, abs=1e-18)
    assert report["energy_shared"] == pytest.approx(np.linalg.norm(u) ** 2, abs=1e-9)
    assert report["suppression_ratio"] == math.inf  # private energy below floor


def test_report_energies_sum_to_total():
    rng = np.random.default_rng(8)
    d = synth_streams(14, 5, 5, (4, 3, 3), 0.2, seed=8)
    for _ in range(20):
        u = rng.normal(size=(6, 14))
        r = decomposition_report(u, d)
        total = (r["energy_shared"] + r["energy_private_x"]
                 + r["energy_private_y"] + r["energy_residual"])
        assert total == pytest.approx(np.linalg.norm(u) ** 2, abs=1e-9)
        assert min(r["energy_shared"], r["energy_private_x"],
                   r["energy_private_y"], r["energy_residual"]) >= 0


def test_report_dimension_mismatch():
    d = synth_streams(10, 3, 3, (2, 2, 2), 0.1, seed=0)
    with pytest.raises(ContractViolationError,
                       match=r"matrix width \(2, 9\) does not match d_model 10"):
        decomposition_report(np.ones((2, 9)), d)


def test_suppression_trial_repeatable_and_study_counts():
    assert suppression_trial(0) == suppression_trial(0)
    study = suppression_study(10)
    assert study["n_seeds"] == 10
    assert 0 <= study["suppressed"] <= 10
    assert len(study["trials"]) == 10
    assert study["fraction"] == study["suppressed"] / 10
    with pytest.raises(ContractViolationError, match=r"trials must lie in 1\.\.10000, got 0"):
        suppression_study(0)


def test_overflowing_streams_and_energies_are_refused_without_a_warning():
    # tier-1 turns warnings into errors, so a numpy overflow warning would fail here first
    with pytest.raises(ContractViolationError, match="overflows the streams"):
        synth_streams(8, 3, 3, (2, 2, 2), 1e308, seed=0)
    d = synth_streams(8, 3, 3, (2, 2, 2), 0.1, seed=0)
    for u in (np.full((3, 8), 1e160), np.full((3, 8), np.nan)):
        with pytest.raises(ContractViolationError, match="energies are not finite"):
            decomposition_report(u, d)
    with pytest.raises(ContractViolationError, match="energies are not finite"):
        suppression_trial(0, noise_scale=1e160)
    # a zero private energy still reads as an infinite ratio
    assert decomposition_report(d.shared_x, d)["suppression_ratio"] == math.inf
