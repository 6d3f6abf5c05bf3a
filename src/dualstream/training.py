"""Fusion-module training: composite objective, SGD loop, and grid search.

The objective in nats is

    loss = cross_entropy(answer | fused) + mu * H(base, fused) + nu * KL(fused || base)

where the base distribution comes from the host model without fusion and the
fused one from the same model with the mixed-attention hook installed.  By
default only the fusion parameters train; the host stays frozen, so the base
distributions are precomputed once.
"""
from __future__ import annotations

import hashlib
import io
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, backward
from .errors import ContractViolationError, TrainingDivergedError
from .fusion import PARAM_NAMES, DsspParams, make_dssp_hook, save_dssp_params
from .model import ForwardOptions, TinyTransformer, forward, infer

Array = np.ndarray

CLAMP = 1e-12


@dataclass(frozen=True)
class Hyperparams:
    mu: float = 0.55
    nu: float = 0.1
    lr: float = 4e-5
    epochs: int = 7
    warmup_ratio: float = 0.1
    batch: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0:
            raise ContractViolationError("mu and nu must be >= 0")
        # lr = 0 is allowed so a no-op run can serve as a determinism probe
        if self.lr < 0:
            raise ContractViolationError("lr must be >= 0")
        if self.epochs < 1 or self.batch < 1:
            raise ContractViolationError("epochs and batch must be >= 1")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ContractViolationError("warmup_ratio must lie in [0, 1]")


# ---------------------------------------------------------------------------
# loss components (plain floats, natural log, 1e-12 clamping)
# ---------------------------------------------------------------------------

def _pair(p, q) -> tuple[Array, Array]:
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


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TrainExample:
    """One supervised case: prompt tokens, gold next token, external stream."""
    tokens: tuple[int, ...]
    answer_id: int
    dhat: Array

    def __post_init__(self):
        self.tokens = tuple(int(t) for t in self.tokens)
        self.dhat = np.asarray(self.dhat, dtype=np.float64)
        if len(self.tokens) < 1:
            raise ContractViolationError("example needs at least one token")
        if self.dhat.ndim != 2 or self.dhat.shape[0] < 1:
            raise ContractViolationError("dhat must be a non-empty 2-d matrix")


@dataclass(frozen=True)
class TrainStep:
    step: int
    epoch: int
    lr: float
    ce: float
    h_term: float
    kl_term: float
    total: float


@dataclass
class TrainReport:
    steps: list[TrainStep]
    epochs: int
    checkpoint_id: str
    wall_time: float

    def epoch_mean_losses(self) -> list[float]:
        sums = [0.0] * self.epochs
        counts = [0] * self.epochs
        for s in self.steps:
            sums[s.epoch] += s.total
            counts[s.epoch] += 1
        return [s / c for s, c in zip(sums, counts)]


def checkpoint_id(params: DsspParams) -> str:
    """sha256 of the checkpoint ``save_dssp_params`` writes for ``params``."""
    buf = io.BytesIO()
    save_dssp_params(buf, params)
    return hashlib.sha256(buf.getvalue()).hexdigest()


def _base_distribution(model: TinyTransformer, tokens: Sequence[int]) -> Array:
    z = infer(model, list(tokens)).logits[-1]
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def train(
    model: TinyTransformer,
    params: DsspParams,
    dataset: Sequence[TrainExample],
    hyper: Hyperparams = Hyperparams(),
    *,
    insertion_layer: int,
    update_host: bool = False,
) -> TrainReport:
    """SGD over the fusion parameters with linear warmup then constant lr.

    The host model is frozen unless update_host is set, in which case its
    weights join the gradient step and the base distributions are recomputed
    every step.  Aborts on the first non-finite loss.
    """
    if len(dataset) == 0:
        raise ContractViolationError("dataset must be non-empty")
    if not 0 <= insertion_layer < model.config.n_layers:
        raise ContractViolationError(f"insertion layer {insertion_layer} outside model")
    t0 = time.perf_counter()

    rng = np.random.default_rng(hyper.seed)
    steps_per_epoch = math.ceil(len(dataset) / hyper.batch)
    total_steps = hyper.epochs * steps_per_epoch
    warmup_steps = math.ceil(hyper.warmup_ratio * total_steps)

    base_cache = None
    if not update_host:
        base_cache = [_base_distribution(model, ex.tokens) for ex in dataset]

    steps: list[TrainStep] = []
    step = 0
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), hyper.batch):
            batch = [int(i) for i in order[lo:lo + hyper.batch]]
            lr_t = hyper.lr * (step + 1) / warmup_steps if step < warmup_steps else hyper.lr

            tape = GradTape()
            leaves = params.leaves(tape)
            host_leaves = None
            if update_host:
                host_leaves = {name: Tensor(arr, tape) for name, arr in model.weights.items()}

            loss_nodes = []
            ce_sum = h_sum = kl_sum = 0.0
            for i in batch:
                ex = dataset[i]
                p_base = _base_distribution(model, ex.tokens) if update_host else base_cache[i]
                hook = make_dssp_hook(ex.dhat, params, leaves)
                opts = ForwardOptions(dssp_layer=insertion_layer, dssp_hook=hook)
                trace = forward(model, list(ex.tokens), opts, weight_tensors=host_leaves)

                last = ad.take_rows(trace.logits_node, [len(ex.tokens) - 1])
                p_aug = ad.softmax_rows(last, 1.0)
                logp = ad.log_clamped(p_aug)
                ce_node = ad.scale(ad.pick(logp, 0, ex.answer_id), -1.0)
                h_node = ad.scale(
                    ad.sum_all(ad.mul(Tensor(p_base.reshape(1, -1)), logp)), -1.0)
                log_base = np.log(np.maximum(p_base, CLAMP)).reshape(1, -1)
                kl_node = ad.sum_all(ad.mul(p_aug, ad.sub(logp, Tensor(log_base))))
                loss_nodes.append(ad.add(
                    ce_node,
                    ad.add(ad.scale(h_node, hyper.mu), ad.scale(kl_node, hyper.nu))))
                ce_sum += ce_node.item()
                h_sum += h_node.item()
                kl_sum += kl_node.item()

            acc = loss_nodes[0]
            for node in loss_nodes[1:]:
                acc = ad.add(acc, node)
            batch_loss = ad.scale(acc, 1.0 / len(batch))

            total_val = batch_loss.item()
            if not math.isfinite(total_val):
                raise TrainingDivergedError(step)

            grads = backward(tape, batch_loss)
            updates = {
                name: grads[leaves[name]] for name in PARAM_NAMES if leaves[name] in grads
            }
            params.apply_updates(updates, lr_t)
            if update_host:
                for name, leaf in host_leaves.items():
                    if leaf in grads:
                        model.weights[name] = model.weights[name] - lr_t * grads[leaf]

            steps.append(TrainStep(
                step=step, epoch=epoch, lr=lr_t,
                ce=ce_sum / len(batch), h_term=h_sum / len(batch),
                kl_term=kl_sum / len(batch), total=total_val))
            step += 1

    return TrainReport(
        steps=steps,
        epochs=hyper.epochs,
        checkpoint_id=checkpoint_id(params),
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# grid search over (mu, nu)
# ---------------------------------------------------------------------------

NU_GRID = tuple(round(0.05 + 0.01 * k, 2) for k in range(11))
MU_COARSE = (0.4, 0.5, 0.6, 0.7)
MU_FINE = tuple(round(0.50 + 0.01 * k, 2) for k in range(11))
MU_GRID = tuple(dict.fromkeys(MU_COARSE + MU_FINE))  # coarse first, then fine


@dataclass(frozen=True)
class GridPoint:
    mu: float
    nu: float
    value: float | None
    note: str = ""


@dataclass
class GridSearchResult:
    mu_star: float
    nu_star: float
    best_value: float
    table: list[GridPoint]


def grid_search(objective: Callable[[float, float], float]) -> GridSearchResult:
    """Evaluate the coarse-then-fine (mu, nu) grid and return its argmin.

    Failed or non-finite evaluations are recorded as missing and excluded;
    ties break toward the lexicographically smallest (mu, nu).
    """
    table: list[GridPoint] = []
    for mu in MU_GRID:
        for nu in NU_GRID:
            try:
                value = float(objective(mu, nu))
            except Exception as exc:  # record the failure, keep sweeping
                table.append(GridPoint(mu, nu, None, note=f"error: {exc}"))
                continue
            if not math.isfinite(value):
                table.append(GridPoint(mu, nu, None, note="non-finite"))
                continue
            table.append(GridPoint(mu, nu, value))
    evaluated = [p for p in table if p.value is not None]
    if not evaluated:
        raise ContractViolationError("objective failed on every grid point")
    best = min(evaluated, key=lambda p: (p.value, p.mu, p.nu))
    return GridSearchResult(
        mu_star=best.mu, nu_star=best.nu, best_value=best.value, table=table)
