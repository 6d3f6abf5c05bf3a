"""Objective terms, training-loop behaviour, and grid-search tests."""
import dataclasses
import math
import re

import numpy as np
import pytest

from dualstream import autodiff as ad
from dualstream import fusion, pipeline, training
from dualstream import model as model_module
from dualstream.autodiff import GradTape, Tensor, backward
from dualstream.cli import main
from dualstream.errors import ContractViolationError, TrainingDivergedError
from dualstream.fixtures import (
    OFFSET_LAYER,
    build_fixture_model,
    build_training_init,
    fixture_dataset,
)
from dualstream.fusion import PARAM_NAMES, TRAINED_NAMES, DsspParams, dssp_update, make_dssp_hook
from dualstream.model import (
    ForwardOptions,
    ModelConfig,
    forward,
    fused_input,
    fused_logits,
    infer,
)
from dualstream.pipeline import make_train_examples
from dualstream.training import (
    CLAMP,
    MU_COARSE,
    MU_FINE,
    MU_GRID,
    NU_GRID,
    WARMUP_RATIO,
    GridSearchResult,
    Hyperparams,
    TrainExample,
    checkpoint_id,
    grid_search,
    train,
)
from random_host import random_host
import taped_fusion
from taped_host import taped_logits

# frozen high-precision oracles (independent evaluation of the nats formulas)
COND_ENTROPY_HALF_VS_91 = 1.20397280432594
KL_91_VS_HALF = 0.368064207168497


# ---------------------------------------------------------------------------
# reference loss components (plain floats, natural log, 1e-12 clamping); the
# training loop builds the same terms on the tape
# ---------------------------------------------------------------------------

def _pair(p, q):
    a = np.asarray(p, dtype=np.float64).ravel()
    b = np.asarray(q, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ContractViolationError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ContractViolationError("empty distribution")
    return a, b


def conditional_entropy_term(p_base, p_aug) -> float:
    """Cross-entropy of the fused prediction under the base prediction (nats)."""
    base, aug = _pair(p_base, p_aug)
    return float(-(base * np.log(np.maximum(aug, CLAMP))).sum())


def kl_term(p_aug, p_base) -> float:
    """KL(fused || base) in nats; direction fixed, zero iff identical."""
    aug, base = _pair(p_aug, p_base)
    logs = np.log(np.maximum(aug, CLAMP)) - np.log(np.maximum(base, CLAMP))
    return float((aug * logs).sum())


def total_loss(ce: float, h: float, kl: float, mu: float, nu: float) -> float:
    for name, v in (("ce", ce), ("h", h), ("kl", kl), ("mu", mu), ("nu", nu)):
        if not math.isfinite(v):
            raise ContractViolationError(f"{name} must be finite")
    return ce + mu * h + nu * kl


def small_setup(seed=1, d_model=4):
    """A random two-layer host and fusion block, and three examples with random
    evidence rows for insertion at layer 1."""
    cfg = ModelConfig(n_layers=2, n_heads=1, d_model=d_model, d_ff=8,
                      vocab_size=9, max_seq=8, seed=seed)
    model = random_host(cfg)
    params = DsspParams.init_random(d_model, d_ff=6, top_t=2, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    dataset = [
        TrainExample.from_trace(tokens, answer, rng.normal(size=(len(tokens), d_model)),
                                infer(model, list(tokens)), 1)
        for tokens, answer in (((1, 2, 3), 5), ((4, 5), 2), ((6, 7, 8, 1), 7))
    ]
    return model, params, dataset


# ---------------------------------------------------------------------------
# loss components
# ---------------------------------------------------------------------------

def test_hyperparams_defaults_and_validation():
    assert [f.name for f in dataclasses.fields(Hyperparams)] == ["mu", "nu", "lr", "epochs", "seed"]
    h = Hyperparams()
    assert (h.mu, h.nu, h.lr, h.epochs, WARMUP_RATIO) == (0.55, 0.1, 4e-5, 7, 0.1)
    Hyperparams(lr=0.0)  # no-op runs allowed
    with pytest.raises(ContractViolationError, match="mu and nu must be finite and >= 0"):
        Hyperparams(mu=-0.1)
    with pytest.raises(ContractViolationError, match="lr must be finite and >= 0"):
        Hyperparams(lr=-1e-6)
    with pytest.raises(ContractViolationError, match="epochs must be >= 1"):
        Hyperparams(epochs=0)
    for field in ("mu", "nu", "lr"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractViolationError, match=field):
                Hyperparams(**{field: bad})


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
    with pytest.raises(ContractViolationError, match="length mismatch: 2 vs 1"):
        conditional_entropy_term([0.5, 0.5], [1.0])
    with pytest.raises(ContractViolationError, match="length mismatch: 1 vs 2"):
        kl_term([1.0], [0.5, 0.5])


def test_total_loss_weighted_sum():
    assert total_loss(1.7, 9.0, 4.0, 0.0, 0.0) == 1.7
    assert total_loss(1.0, 2.0, 3.0, 0.5, 0.1) == pytest.approx(2.3, abs=1e-12)
    with pytest.raises(ContractViolationError, match="ce must be finite"):
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
    hyper = Hyperparams(mu=0.3, nu=0.2, lr=1e-3, epochs=2, seed=8)
    report = train(model, params, dataset, hyper, insertion_layer=1)
    assert len(report.steps) == 2 * len(dataset)
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
    rep_a = train(model_a, params_a, data_a, hyper, insertion_layer=1)
    rep_b = train(model_b, params_b, data_b, hyper, insertion_layer=1)
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


# ---------------------------------------------------------------------------
# the training step against its references, on the planted fixture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_examples():
    model, layout = build_fixture_model()
    records = fixture_dataset(8, noise_rate=0.0, seed=0)
    return model, build_training_init(layout), make_train_examples(
        model, records, layout.vocab, OFFSET_LAYER)


def answer_loss_gradients(model, params, ex, resume=None, oracle=None):
    """Logits and fusion-leaf gradients of the answer's cross-entropy, one taped pass:
    ``fused_logits`` from ``resume`` (``ex.resume`` when None), or with ``oracle``
    "constant" or "taped" the oracle ``taped_logits`` from ``resume`` (the embeddings
    when None) with the host weights constant or taped, and the fusion block taped op by
    op."""
    tape = GradTape()
    leaves = params.leaves(tape)
    if oracle is None:
        logits = fused_logits(model, ex.tokens, ex.resume if resume is None else resume,
                              lambda xn: dssp_update(xn, ex.dhat, params, leaves))
    else:
        host = {n: Tensor(a, tape) for n, a in model.weights.items()} if oracle == "taped" else None
        _, logits = taped_logits(model, ex.tokens, OFFSET_LAYER,
                                 taped_fusion.make_dssp_hook(ex.dhat, params, leaves),
                                 weight_tensors=host, resume=resume)
    last = ad.take_rows(logits, [len(ex.tokens) - 1])
    logp = ad.log_clamped(ad.softmax_rows(last, 1.0))
    grads = backward(tape, ad.scale(ad.pick(logp, 0, ex.answer_id), -1.0))
    if oracle != "taped":
        assert set(grads) <= set(leaves.values())   # constants get no adjoint
    return logits.value, [grads.get(leaves[n]) for n in PARAM_NAMES]


def assert_same_gradients(got, want):
    for name, g, w in zip(PARAM_NAMES, got, want):
        assert (g is None) == (w is None), name
        assert g is None or np.array_equal(g, w), name


def test_resumed_taped_forward_equals_the_full_one(fixture_examples):
    """The oracle resumed at any layer up to the hook, and ``fused_logits`` resumed at
    the hook, equal the oracle's full pass."""
    model, params, examples = fixture_examples
    for ex in examples:
        hidden = infer(model, list(ex.tokens)).hidden
        logits, grads = answer_loss_gradients(model, params, ex, oracle="constant")
        runs = [(None, None)] + [("constant", (k, hidden[k - 1]))
                                 for k in range(1, OFFSET_LAYER + 1)]
        for oracle, resume in runs:
            got_logits, got_grads = answer_loss_gradients(model, params, ex, resume, oracle)
            assert np.array_equal(got_logits, logits)
            assert_same_gradients(got_grads, grads)
    ex = examples[0]
    with pytest.raises(ContractViolationError, match="resume state has shape"):
        answer_loss_gradients(model, params, ex, resume=(OFFSET_LAYER, hidden[0][1:]))
    with pytest.raises(ContractViolationError, match="hooked layer below the resume layer"):
        forward(model, ex.tokens, ForwardOptions(OFFSET_LAYER, make_dssp_hook(ex.dhat, params)),
                resume=(OFFSET_LAYER + 1, hidden[OFFSET_LAYER]))


def test_fusion_gradients_do_not_depend_on_pruned_host_adjoints(fixture_examples):
    """The fusion block's and the frozen tail's one record each give the fusion gradients
    of the block and the host taped op by op, whether the oracle's host weights are
    constants or taped."""
    model, params, examples = fixture_examples
    for ex in examples:
        logits, grads = answer_loss_gradients(model, params, ex)
        for oracle in ("constant", "taped"):
            taped_logits, taped_grads = answer_loss_gradients(model, params, ex, oracle=oracle)
            assert np.array_equal(logits, taped_logits)
            assert_same_gradients(grads, taped_grads)


def test_a_training_step_tapes_the_frozen_tail_as_one_record(fixture_examples, monkeypatch):
    """A step records 17 records: one for the fusion block, on the trained leaves, one
    for the frozen tail, from the block's output to the logits, and the loss's 15."""
    model, init, examples = fixture_examples
    tapes, marks = [], []

    class LoggingTape(GradTape):
        def __init__(self):
            super().__init__()
            self.log = []
            tapes.append(self)

        def record(self, out, inputs, vjp):
            super().record(out, inputs, vjp)
            self.log.append((out, inputs))

    def marking(make, name):
        def wrapped(*args, **kwargs):
            result = make(*args, **kwargs)
            marks.append((name, len(tapes[-1].log), result))
            return result
        return wrapped

    monkeypatch.setattr(training, "GradTape", LoggingTape)
    monkeypatch.setattr(training, "dssp_update", marking(dssp_update, "block"))
    monkeypatch.setattr(training, "fused_logits", marking(fused_logits, "logits"))
    train(model, init.copy(), examples[:1], Hyperparams(epochs=1), insertion_layer=OFFSET_LAYER)

    (tape,) = tapes
    (_, after_block, block_out), (_, after_logits, logits) = marks
    assert (after_block, after_logits, len(tape.log)) == (1, 2, 17)
    (block, leaves), (tail, tail_inputs) = tape.log[:2]
    assert block is block_out and len(leaves) == len(TRAINED_NAMES)
    assert not {id(leaf) for leaf in leaves} & {id(out) for out, _ in tape.log}
    assert tail is logits and tail_inputs == (block_out,)
    assert len(tape) == 0                  # the step's backward replayed them all


def test_train_chooses_each_examples_shared_rows_once_per_call(fixture_examples, monkeypatch):
    """Each example's top-T shared rows are chosen once per ``train`` call, from the bits
    its fused block receives: choosing them at every step from the block's own input
    gives the same losses and checkpoint."""
    model, init, examples = fixture_examples
    calls = []
    choose = fusion.shared_rows
    counting = lambda *args: calls.append(args) or choose(*args)
    monkeypatch.setattr(fusion, "shared_rows", counting)
    monkeypatch.setattr(training, "shared_rows", counting)
    hyper = Hyperparams(epochs=2)
    once = train(model, init.copy(), examples[:3], hyper, insertion_layer=OFFSET_LAYER)
    assert len(once.steps) == 6 and len(calls) == 3
    calls.clear()
    monkeypatch.setattr(training, "dssp_update", lambda xn, dhat, params, leaves, shared:
                        dssp_update(xn, dhat, params, leaves))
    every_step = train(model, init.copy(), examples[:3], hyper, insertion_layer=OFFSET_LAYER)
    assert len(calls) == 3 + 6             # the unused up-front choices, then one per step
    assert once.steps == every_step.steps and once.checkpoint_id == every_step.checkpoint_id


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_step_zero_losses_match_the_reference_formulas(fixture_examples):
    model, init, examples = fixture_examples
    hyper = Hyperparams(epochs=1)
    for ex in examples[:3]:
        params = init.copy()
        p_base = softmax(infer(model, list(ex.tokens)).logits[-1])
        opts = ForwardOptions(dssp_layer=OFFSET_LAYER, dssp_hook=make_dssp_hook(ex.dhat, params))
        p_aug = softmax(infer(model, list(ex.tokens), opts).logits[-1])
        ce = -math.log(max(p_aug[ex.answer_id], CLAMP))
        h, kl = conditional_entropy_term(p_base, p_aug), kl_term(p_aug, p_base)
        step = train(model, params, [ex], hyper, insertion_layer=OFFSET_LAYER).steps[0]
        assert (step.ce, step.h_term, step.kl_term, step.total) == pytest.approx(
            (ce, h, kl, total_loss(ce, h, kl, hyper.mu, hyper.nu)), rel=1e-12)


def test_train_runs_no_host_inference(fixture_examples, monkeypatch):
    model, init, examples = fixture_examples
    calls = []

    def counting_infer(*args, **kwargs):
        calls.append(args)
        return infer(*args, **kwargs)

    for module in (model_module, pipeline, training):
        monkeypatch.setattr(module, "infer", counting_infer, raising=False)
    report = train(model, init.copy(), examples, Hyperparams(epochs=1),
                   insertion_layer=OFFSET_LAYER)
    assert len(report.steps) == len(examples)
    assert calls == []


def test_train_rejects_examples_built_for_another_layer(fixture_examples):
    model, init, examples = fixture_examples
    assert OFFSET_LAYER == 3
    with pytest.raises(ContractViolationError, match="insertion layer 1"):
        train(model, init.copy(), examples[:1], Hyperparams(epochs=1), insertion_layer=1)


def test_train_warmup_schedule():
    model, params, dataset = small_setup(seed=7)
    # 3 examples, one per step, 7 epochs -> 21 steps; warmup over ceil(0.1*21)=3
    hyper = Hyperparams(lr=0.003, epochs=7, seed=1)
    report = train(model, params, dataset, hyper, insertion_layer=1)
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
    with pytest.raises(ContractViolationError, match="dataset must be non-empty"):
        train(model, params, [], Hyperparams(), insertion_layer=1)
    with pytest.raises(ContractViolationError, match=r"insertion layer 5 outside 1\.\.1"):
        train(model, params, dataset, Hyperparams(), insertion_layer=5)
    short = dataclasses.replace(dataset[0], resume=(1, dataset[0].resume[1][:2]))
    with pytest.raises(ContractViolationError,
                       match=re.escape("resume state has shape (2, 4), expected (3, 4)")):
        train(model, params, [short], Hyperparams(), insertion_layer=1)
    base = np.full(9, 1 / 9)
    resume = (1, np.zeros((1, 4)))
    with pytest.raises(ContractViolationError, match="example needs at least one token"):
        TrainExample(tokens=(), answer_id=1, dhat=np.ones((1, 4)), base=base, resume=resume)
    with pytest.raises(ContractViolationError, match="dhat must be a non-empty 2-d matrix"):
        TrainExample(tokens=(1,), answer_id=1, dhat=np.ones(4), base=base, resume=resume)
    with pytest.raises(ContractViolationError, match="base must be a 1-d distribution"):
        TrainExample(tokens=(1,), answer_id=1, dhat=np.ones((1, 4)), base=base[None],
                     resume=resume)


def test_train_rejects_insertion_at_layer_0():
    """The fused block reads the stream entering its layer, ``hidden[k - 1]``,
    so fusion enters at layer 1 or above, even given a layer-0 resume state."""
    model, params, dataset = small_setup()
    ex = dataset[0]
    w = model.weights
    embedded = w["tok_emb"][list(ex.tokens)] + w["pos_emb"][:len(ex.tokens)]
    layer0 = dataclasses.replace(ex, resume=(0, embedded))
    with pytest.raises(ContractViolationError, match=r"insertion layer 0 outside 1\.\.1"):
        train(model, params, [layer0], Hyperparams(epochs=1), insertion_layer=0)


@pytest.mark.parametrize("layer", [0, 2, 3])
def test_from_trace_rejects_an_insertion_layer_outside_the_trace(layer):
    """Layer 2 is the two-layer host's depth: ``train`` refuses it, so ``from_trace``
    does too, rather than build an example no run can use."""
    model, _, dataset = small_setup()
    ex = dataset[0]
    with pytest.raises(ContractViolationError, match=rf"insertion layer {layer} outside 1\.\.1"):
        TrainExample.from_trace(ex.tokens, ex.answer_id, ex.dhat,
                                infer(model, list(ex.tokens)), layer)


@pytest.mark.parametrize("layer", [0, 2, 3])
def test_train_from_trace_and_fused_input_refuse_a_layer_with_one_message(layer):
    model, params, dataset = small_setup()
    ex = dataset[0]
    trace = infer(model, list(ex.tokens))
    refused = re.escape(f"insertion layer {layer} outside 1..1")
    with pytest.raises(ContractViolationError, match=refused):
        train(model, params, dataset, Hyperparams(epochs=1), insertion_layer=layer)
    with pytest.raises(ContractViolationError, match=refused):
        TrainExample.from_trace(ex.tokens, ex.answer_id, ex.dhat, trace, layer)
    with pytest.raises(ContractViolationError, match=refused):
        fused_input(model, layer, trace.hidden[0])


def test_from_trace_rejects_a_stopped_trace():
    model, _, dataset = small_setup()
    ex = dataset[0]
    with pytest.raises(ContractViolationError, match="logits"):
        TrainExample.from_trace(ex.tokens, ex.answer_id, ex.dhat,
                                infer(model, list(ex.tokens), stop=1), 1)


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

    with pytest.raises(ContractViolationError, match="objective failed on every grid point"):
        grid_search(objective)


def test_grid_search_csv(tmp_path):
    # the grid table's CSV form is written by the CLI, from the demo objective
    assert main(["grid-search", "--csv", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,nu,value,note"
    assert len(lines) == 1 + 143
    assert lines[1].startswith("0.4,0.05,")
