"""Planted-subspace synthetic streams for the differential-attention study.

Two token matrices X and Y are built from mutually orthogonal subspaces: a
shared subspace both streams occupy, one private subspace each, and isotropic
noise.  Projection energies onto the planted subspaces then quantify how much
shared versus private content an attention output retains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .fusion import differential_attention, self_attention

Array = np.ndarray

# Largest study sizes accepted, checked before anything is allocated.  A trial at
# both size limits peaks at about 40 MB (tracemalloc); the rows of the largest
# study take a few MB.
MAX_D_MODEL = 512
MAX_TOKENS = 512
MAX_TRIALS = 10_000


@dataclass
class SyntheticDecomposition:
    """Planted components (X = shared_x + private_x + noise_x, same for Y)."""
    shared_x: Array
    shared_y: Array
    private_x: Array
    private_y: Array
    noise_x: Array
    noise_y: Array
    basis_shared: Array      # d_model x k_shared, orthonormal columns
    basis_private_x: Array
    basis_private_y: Array

    def __post_init__(self):
        self.x = self.shared_x + self.private_x + self.noise_x
        self.y = self.shared_y + self.private_y + self.noise_y

    @property
    def d_model(self) -> int:
        return int(self.basis_shared.shape[0])


@np.errstate(over="ignore")
def synth_streams(
    d_model: int,
    n_x: int,
    n_y: int,
    dims: tuple[int, int, int],
    noise_scale: float,
    seed: int,
) -> SyntheticDecomposition:
    """Draw a seeded decomposition with orthonormal planted subspaces.

    dims = (shared, private_x, private_y) subspace dimensions.  When the two
    streams have the same token count they receive the identical shared
    component (one coefficient draw); otherwise each gets its own seeded
    coefficients inside the same shared subspace.  A ``noise_scale`` that
    overflows the streams is refused, and so is a size above ``MAX_D_MODEL``
    or ``MAX_TOKENS``.
    """
    k_s, k_px, k_py = (int(k) for k in dims)
    if not 1 <= d_model <= MAX_D_MODEL:
        raise ContractViolationError(f"d_model must lie in 1..{MAX_D_MODEL}, got {d_model}")
    if min(k_s, k_px, k_py) < 0:
        raise ContractViolationError("subspace dims must be >= 0")
    if k_s + k_px + k_py > d_model:
        raise ContractViolationError(
            f"dimension budget exceeded: {k_s}+{k_px}+{k_py} > d_model {d_model}")
    if not (1 <= n_x <= MAX_TOKENS and 1 <= n_y <= MAX_TOKENS):
        raise ContractViolationError(f"token counts must lie in 1..{MAX_TOKENS}")
    if not 0 <= noise_scale < math.inf:
        raise ContractViolationError("noise_scale must be finite and >= 0")

    rng = np.random.default_rng(seed)
    total = k_s + k_px + k_py
    if total > 0:
        q, _ = np.linalg.qr(rng.normal(size=(d_model, total)))
    else:
        q = np.zeros((d_model, 0))
    basis_s = q[:, :k_s]
    basis_px = q[:, k_s:k_s + k_px]
    basis_py = q[:, k_s + k_px:]

    coeff_s_x = rng.normal(size=(n_x, k_s))
    coeff_s_y = coeff_s_x if n_y == n_x else rng.normal(size=(n_y, k_s))
    shared_x = coeff_s_x @ basis_s.T
    shared_y = coeff_s_y @ basis_s.T
    private_x = rng.normal(size=(n_x, k_px)) @ basis_px.T
    private_y = rng.normal(size=(n_y, k_py)) @ basis_py.T
    noise_x = noise_scale * rng.normal(size=(n_x, d_model))
    noise_y = noise_scale * rng.normal(size=(n_y, d_model))
    if not (np.isfinite(noise_x).all() and np.isfinite(noise_y).all()):
        raise ContractViolationError(f"noise_scale {noise_scale} overflows the streams")

    return SyntheticDecomposition(
        shared_x=shared_x, shared_y=shared_y,
        private_x=private_x, private_y=private_y,
        noise_x=noise_x, noise_y=noise_y,
        basis_shared=basis_s, basis_private_x=basis_px, basis_private_y=basis_py,
    )


RATIO_FLOOR = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def decomposition_report(u: Array, decomp: SyntheticDecomposition) -> dict:
    """Squared-Frobenius energies of u's rows projected onto each planted subspace;
    a non-finite energy is refused."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != decomp.d_model:
        raise ContractViolationError(
            f"matrix width {u.shape} does not match d_model {decomp.d_model}")

    def energy(basis: Array) -> float:
        if basis.shape[1] == 0:
            return 0.0
        return float(np.linalg.norm((u @ basis) @ basis.T) ** 2)

    e_s = energy(decomp.basis_shared)
    e_px = energy(decomp.basis_private_x)
    e_py = energy(decomp.basis_private_y)
    planted = np.concatenate(
        [decomp.basis_shared, decomp.basis_private_x, decomp.basis_private_y], axis=1)
    residual = u - (u @ planted) @ planted.T if planted.shape[1] else u
    e_res = float(np.linalg.norm(residual) ** 2)
    if not all(map(math.isfinite, (e_s, e_px, e_py, e_res))):
        raise ContractViolationError("projection energies are not finite")
    ratio = e_s / e_px if e_px > RATIO_FLOOR else math.inf
    return {
        "energy_shared": e_s,
        "energy_private_x": e_px,
        "energy_private_y": e_py,
        "energy_residual": e_res,
        "suppression_ratio": ratio,
    }


@np.errstate(over="ignore", invalid="ignore")
def suppression_trial(
    seed: int,
    d_model: int = 32,
    n_tokens: int = 8,
    dims: tuple[int, int, int] = (4, 4, 4),
    noise_scale: float = 0.1,
) -> tuple[float, float]:
    """One seeded comparison: shared/private energy ratio of the differential
    output versus the plain self-attention baseline.

    Both attentions use the same randomly drawn query/key projections and an
    identity value projection, so the comparison isolates the subtraction.
    Returns (ratio_differential, ratio_self_attention); an attention output
    that overflows ends in ``decomposition_report``'s refusal of its energies.
    """
    decomp = synth_streams(d_model, n_tokens, n_tokens, dims, noise_scale, seed)
    rng = np.random.default_rng([seed, 1])
    wq = rng.normal(0.0, 1.0 / math.sqrt(d_model), size=(d_model, d_model))
    wk = rng.normal(0.0, 1.0 / math.sqrt(d_model), size=(d_model, d_model))
    triple = (wq, wk, np.eye(d_model))

    baseline = self_attention(decomp.x, *triple).value
    diff = differential_attention(decomp.x, decomp.y, triple, triple).value
    ratio_diff = decomposition_report(diff, decomp)["suppression_ratio"]
    ratio_base = decomposition_report(baseline, decomp)["suppression_ratio"]
    return ratio_diff, ratio_base


def suppression_study(n_seeds: int = 100, **kwargs) -> dict:
    """Run seeded trials, 1 to ``MAX_TRIALS``; count how often differencing lowers
    the shared ratio."""
    if not 1 <= n_seeds <= MAX_TRIALS:
        raise ContractViolationError(f"trials must lie in 1..{MAX_TRIALS}, got {n_seeds}")
    wins = 0
    rows = []
    for seed in range(n_seeds):
        ratio_diff, ratio_base = suppression_trial(seed, **kwargs)
        win = ratio_diff < ratio_base
        wins += int(win)
        rows.append({"seed": seed, "ratio_differential": ratio_diff,
                     "ratio_baseline": ratio_base, "suppressed": win})
    return {"n_seeds": n_seeds, "suppressed": wins,
            "fraction": wins / n_seeds, "trials": rows}
