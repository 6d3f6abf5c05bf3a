"""Objective terms, training-loop behaviour, and grid-search tests."""
import math

import numpy as np
import pytest

from dualstream.cli import main
from dualstream.errors import ContractViolationError, TrainingDivergedError
from dualstream.fusion import PARAM_NAMES, DsspParams
from dualstream.model import ModelConfig, TinyTransformer
from dualstream.training import (
    MU_COARSE,
    MU_FINE,
    MU_GRID,
    NU_GRID,
    GridSearchResult,
    Hyperparams,
    TrainExample,
    checkpoint_id,
    conditional_entropy_term,
    grid_search,
    kl_term,
    total_loss,
    train,
)

# frozen high-precision oracles (independent evaluation of the nats formulas)
COND_ENTROPY_HALF_VS_91 = 1.20397280432594
KL_91_VS_HALF = 0.368064207168497


def small_setup(seed=1, d_model=4):
    cfg = ModelConfig(n_layers=2, n_heads=1, d_model=d_model, d_ff=8,
                      vocab_size=9, max_seq=8, seed=seed)
    model = TinyTransformer.random(cfg)
    params = DsspParams.init_random(d_model, d_ff=6, top_t=2, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    dataset = [
        TrainExample(tokens=(1, 2, 3), answer_id=5, dhat=rng.normal(size=(3, d_model))),
        TrainExample(tokens=(4, 5), answer_id=2, dhat=rng.normal(size=(2, d_model))),
        TrainExample(tokens=(6, 7, 8, 1), answer_id=7, dhat=rng.normal(size=(4, d_model))),
    ]
    return model, params, dataset


# ---------------------------------------------------------------------------
# loss components
# ---------------------------------------------------------------------------

def test_hyperparams_defaults_and_validation():
    h = Hyperparams()
    assert (h.mu, h.nu, h.lr, h.epochs, h.warmup_ratio) == (0.55, 0.1, 4e-5, 7, 0.1)
    Hyperparams(lr=0.0)  # no-op runs allowed
    with pytest.raises(ContractViolationError):
        Hyperparams(mu=-0.1)
    with pytest.raises(ContractViolationError):
        Hyperparams(lr=-1e-6)
    with pytest.raises(ContractViolationError):
        Hyperparams(warmup_ratio=1.5)
    with pytest.raises(ContractViolationError):
        Hyperparams(epochs=0)


def test_conditional_entropy_matches_shannon_when_equal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw = rng.uniform(0.01, 1.0, size=6)
        p = raw / raw.sum()
        h = conditional_entropy_term(p, p)
        assert h == pytest.approx(float(-(p * np.log(p)).sum()), abs=1e-12)


def test_conditional_entropy_one_hot_base():
    p_aug = np.array([0.2, 0.5, 0.3])
    assert conditional_entropy_term([0.0, 1.0, 0.0], p_aug) == pytest.approx(
        -math.log(0.5), abs=1e-12)


def test_conditional_entropy_frozen_value():
    h = conditional_entropy_term([0.5, 0.5], [0.9, 0.1])
    assert h == pytest.approx(COND_ENTROPY_HALF_VS_91, abs=1e-12)
    assert h == pytest.approx(1.2040, abs=1e-4)


def test_conditional_entropy_gibbs_inequality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.uniform(0.01, 1, size=5)
        b = rng.uniform(0.01, 1, size=5)
        p, q = a / a.sum(), b / b.sum()
        assert conditional_entropy_term(p, q) >= conditional_entropy_term(p, p) - 1e-12


def test_kl_term_basics():
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    assert kl_term(p, p) == pytest.approx(0.0, abs=1e-15)
    assert kl_term(p, q) == pytest.approx(KL_91_VS_HALF, abs=1e-12)
    assert kl_term(p, q) == pytest.approx(0.3681, abs=1e-4)
    assert kl_term(p, q) != pytest.approx(kl_term(q, p), abs=1e-3)  # direction matters
    # clamped: zero support in either argument stays finite
    assert math.isfinite(kl_term([1.0, 0.0], [0.5, 0.5]))
    assert math.isfinite(kl_term([0.5, 0.5], [1.0, 0.0]))


def test_loss_term_length_mismatch():
    with pytest.raises(ContractViolationError):
        conditional_entropy_term([0.5, 0.5], [1.0])
    with pytest.raises(ContractViolationError):
        kl_term([1.0], [0.5, 0.5])


def test_total_loss_weighted_sum():
    assert total_loss(1.7, 9.0, 4.0, 0.0, 0.0) == 1.7
    assert total_loss(1.0, 2.0, 3.0, 0.5, 0.1) == pytest.approx(2.3, abs=1e-12)
    with pytest.raises(ContractViolationError):
        total_loss(math.inf, 0.0, 0.0, 0.5, 0.1)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_zero_lr_leaves_params_bit_identical():
    model, params, dataset = small_setup()
    before = {name: getattr(params, name).copy() for name in PARAM_NAMES}
    initial_id = checkpoint_id(params)
    report = train(model, params, dataset, Hyperparams(lr=0.0, epochs=2),
                   insertion_layer=1)
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(params, name), before[name]), name
    assert report.checkpoint_id == initial_id
    assert len(report.steps) == 2 * len(dataset)


def test_train_step_totals_decompose():
    model, params, dataset = small_setup(seed=5)
    hyper = Hyperparams(mu=0.3, nu=0.2, lr=1e-3, epochs=2, batch=2, seed=8)
    report = train(model, params, dataset, hyper, insertion_layer=0)
    assert len(report.steps) == 2 * math.ceil(len(dataset) / 2)
    for s in report.steps:
        assert s.total == pytest.approx(
            s.ce + hyper.mu * s.h_term + hyper.nu * s.kl_term, abs=1e-9)


def test_train_reduces_epoch_mean_loss():
    model, params, dataset = small_setup(seed=3)
    hyper = Hyperparams(lr=0.05, epochs=3, seed=0)
    report = train(model, params, dataset, hyper, insertion_layer=1)
    means = report.epoch_mean_losses()
    assert len(means) == 3
    assert means[1] <= means[0] or means[2] <= means[1]


def test_train_deterministic_given_seed():
    model_a, params_a, data_a = small_setup(seed=9)
    model_b, params_b, data_b = small_setup(seed=9)
    hyper = Hyperparams(lr=0.01, epochs=2, seed=4)
    rep_a = train(model_a, params_a, data_a, hyper, insertion_layer=0)
    rep_b = train(model_b, params_b, data_b, hyper, insertion_layer=0)
    assert [s.total for s in rep_a.steps] == [s.total for s in rep_b.steps]
    assert rep_a.checkpoint_id == rep_b.checkpoint_id
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(params_a, name), getattr(params_b, name))


def test_train_host_frozen_by_default():
    model, params, dataset = small_setup(seed=11)
    host_before = {k: v.copy() for k, v in model.weights.items()}
    train(model, params, dataset, Hyperparams(lr=0.02, epochs=1), insertion_layer=1)
    for name, arr in model.weights.items():
        assert np.array_equal(arr, host_before[name]), name
    assert any(
        not np.array_equal(getattr(params, n), DsspParams.init_random(4, d_ff=6, top_t=2, seed=12).__getattribute__(n))
        for n in PARAM_NAMES)


def test_train_update_host_moves_host_weights():
    model, params, dataset = small_setup(seed=13)
    host_before = {k: v.copy() for k, v in model.weights.items()}
    train(model, params, dataset, Hyperparams(lr=0.01, epochs=1),
          insertion_layer=1, update_host=True)
    moved = [n for n, arr in model.weights.items()
             if not np.array_equal(arr, host_before[n])]
    assert "tok_emb" in moved


def test_train_warmup_schedule():
    model, params, dataset = small_setup(seed=7)
    # 3 examples, batch 1, 5 epochs -> 15 steps; warmup over ceil(0.2*15)=3
    hyper = Hyperparams(lr=0.003, epochs=5, warmup_ratio=0.2, seed=1)
    report = train(model, params, dataset, hyper, insertion_layer=0)
    lrs = [s.lr for s in report.steps]
    assert lrs[:3] == pytest.approx([0.001, 0.002, 0.003])
    assert all(lr == pytest.approx(0.003) for lr in lrs[3:])


def test_train_aborts_on_divergence_with_step_index():
    model, params, dataset = small_setup(seed=2)
    params.w_o[0, 0] = np.nan  # state left behind by an exploded update
    with pytest.raises(TrainingDivergedError) as exc:
        train(model, params, dataset, Hyperparams(lr=1e-3, epochs=4),
              insertion_layer=1)
    assert exc.value.step == 0
    assert "step 0" in str(exc.value)


def test_train_input_validation():
    model, params, dataset = small_setup()
    with pytest.raises(ContractViolationError):
        train(model, params, [], Hyperparams(), insertion_layer=0)
    with pytest.raises(ContractViolationError):
        train(model, params, dataset, Hyperparams(), insertion_layer=5)
    with pytest.raises(ContractViolationError):
        TrainExample(tokens=(), answer_id=1, dhat=np.ones((1, 4)))
    with pytest.raises(ContractViolationError):
        TrainExample(tokens=(1,), answer_id=1, dhat=np.ones(4))


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_definition():
    assert NU_GRID == tuple(round(0.05 + 0.01 * k, 2) for k in range(11))
    assert len(NU_GRID) == 11
    assert MU_COARSE == (0.4, 0.5, 0.6, 0.7)
    assert MU_FINE[0] == 0.5 and MU_FINE[-1] == 0.6 and len(MU_FINE) == 11
    assert len(MU_GRID) == 13  # coarse + fine with overlaps collapsed
    assert MU_GRID[:4] == MU_COARSE  # coarse enumerated first


def test_grid_search_planted_quadratic():
    calls = []

    def objective(mu, nu):
        calls.append((mu, nu))
        return (mu - 0.55) ** 2 + (nu - 0.10) ** 2

    result = grid_search(objective)
    assert (result.mu_star, result.nu_star) == (0.55, 0.10)
    assert result.best_value == pytest.approx(0.0, abs=1e-15)
    assert len(calls) == 143
    assert len(set(calls)) == 143
    assert len(result.table) == 143


def test_grid_search_excludes_failures():
    def objective(mu, nu):
        if mu == 0.55:
            raise RuntimeError("boom")
        if nu == 0.10:
            return math.nan
        return (mu - 0.55) ** 2 + (nu - 0.10) ** 2

    result = grid_search(objective)
    assert result.mu_star != 0.55 and result.nu_star != 0.10
    missing = [p for p in result.table if p.value is None]
    assert len(missing) == 11 + 12  # the mu=0.55 row and the remaining nu=0.10 column
    assert any("boom" in p.note for p in missing)
    assert any(p.note == "non-finite" for p in missing)


def test_grid_search_tie_breaks_lexicographically():
    result = grid_search(lambda mu, nu: 1.0)
    assert (result.mu_star, result.nu_star) == (0.4, 0.05)


def test_grid_search_all_failures_rejected():
    def objective(mu, nu):
        raise ValueError("nope")

    with pytest.raises(ContractViolationError):
        grid_search(objective)


def test_grid_search_csv(tmp_path):
    # the grid table's CSV form is written by the CLI, from the demo objective
    assert main(["grid-search", "--csv", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,nu,value,note"
    assert len(lines) == 1 + 143
    assert lines[1].startswith("0.4,0.05,")
