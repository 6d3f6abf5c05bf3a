"""Fusion-module training: composite objective, SGD loop, and grid search.

The objective in nats is

    loss = cross_entropy(answer | fused) + mu * H(base, fused) + nu * KL(fused || base)

where the base distribution comes from the host model without fusion and the
fused one from the same model with the mixed-attention hook installed.  Only
the fusion parameters train; the host is always frozen, so each example
carries the base distribution and the residual stream entering the insertion
layer from the host pass that built it, and each step's ``fused_logits``
resumes there.  A step's tape holds one record for the fused block, one for
the frozen host tail from the block's output to the logits, and the loss's;
no host weight is on it.  The block's top-T shared-token choice reads only the
frozen stream entering it and ``w_share``, which gets no gradient, so ``train``
makes each example's choice once, before its first step.
"""
from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor, backward
from .errors import ContractViolationError, TrainingDivergedError, field_types, read_field
from .fusion import PARAM_NAMES, DsspParams, dssp_update, save_dssp_params, shared_rows
from .model import ForwardTrace, TinyTransformer, check_insertion_layer, fused_input, fused_logits
from .model import forward  # noqa: F401  -- kept bound here for the benchmark's tracer test

Array = np.ndarray

CLAMP = 1e-12
WARMUP_RATIO = 0.1   # share of all steps over which lr ramps up linearly


@dataclass(frozen=True)
class Hyperparams:
    mu: float = 0.55
    nu: float = 0.1
    lr: float = 4e-5
    epochs: int = 7
    seed: int = 0

    def __post_init__(self):
        for name, kind in field_types(Hyperparams).items():
            read_field(vars(self), name, kind)
        if not (0 <= self.mu < math.inf and 0 <= self.nu < math.inf):
            raise ContractViolationError("mu and nu must be finite and >= 0")
        # lr = 0 is allowed so a no-op run can serve as a determinism probe
        if not 0 <= self.lr < math.inf:
            raise ContractViolationError("lr must be finite and >= 0")
        if self.epochs < 1:
            raise ContractViolationError("epochs must be >= 1")
        if self.seed < 0:
            raise ContractViolationError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TrainExample:
    """One supervised case: prompt tokens, gold next token, external stream,
    and what the frozen host gives for the prompt: ``base``, its next-token
    distribution at the last position, and ``resume``, ``(k, hidden[k-1])``
    for the insertion layer ``k >= 1``."""
    tokens: tuple[int, ...]
    answer_id: int
    dhat: Array
    base: Array
    resume: tuple[int, Array]

    def __post_init__(self):
        self.tokens = tuple(int(t) for t in self.tokens)
        self.dhat = np.asarray(self.dhat, dtype=np.float64)
        self.base = np.asarray(self.base, dtype=np.float64)
        if len(self.tokens) < 1:
            raise ContractViolationError("example needs at least one token")
        if self.dhat.ndim != 2 or self.dhat.shape[0] < 1:
            raise ContractViolationError("dhat must be a non-empty 2-d matrix")
        if self.base.ndim != 1:
            raise ContractViolationError("base must be a 1-d distribution")

    @classmethod
    def from_trace(cls, tokens: Sequence[int], answer_id: int, dhat: Array,
                   trace: ForwardTrace, insertion_layer: int) -> "TrainExample":
        """The example for ``insertion_layer``, its host fields read off ``trace``,
        the host's full forward over ``tokens``; owns copies, not views of the trace."""
        if trace.logits is None:
            raise ContractViolationError("trace stopped before the logits; the example needs them")
        check_insertion_layer(len(trace.hidden), insertion_layer)
        return cls(tokens, answer_id, dhat, ad.row_softmax(trace.logits[-1], 1.0),
                   (insertion_layer, trace.hidden[insertion_layer - 1].copy()))


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


# a diverging run overflows: the loss and update checks end it, not numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: TinyTransformer,
    params: DsspParams,
    dataset: Sequence[TrainExample],
    hyper: Hyperparams = Hyperparams(),
    *,
    insertion_layer: int,
) -> TrainReport:
    """SGD over the fusion parameters, one example per step, with linear
    warmup over ``WARMUP_RATIO`` of the steps then constant lr.

    The host model stays frozen: each example's ``base`` and ``resume``,
    which must be for ``insertion_layer``, and its shared rows serve every
    step, which tapes the fused block as one record, the host above it as
    one record, and the loss.  Aborts on the first non-finite loss or
    updated parameter.
    """
    if len(dataset) == 0:
        raise ContractViolationError("dataset must be non-empty")
    check_insertion_layer(model.config.n_layers, insertion_layer)
    for ex in dataset:
        if ex.resume[0] != insertion_layer:
            raise ContractViolationError(
                f"example resumes at layer {ex.resume[0]}, not the insertion layer {insertion_layer}")
        if np.shape(ex.resume[1]) != (len(ex.tokens), model.config.d_model):
            raise ContractViolationError(
                f"resume state has shape {np.shape(ex.resume[1])}, "
                f"expected {(len(ex.tokens), model.config.d_model)}")
    # the fused block reads the frozen resume state, so its shared rows serve every step
    shared = [shared_rows(fused_input(model, insertion_layer, ex.resume[1]), ex.dhat,
                          params.w_share, params.top_t) for ex in dataset]

    rng = np.random.default_rng(hyper.seed)
    warmup_steps = math.ceil(WARMUP_RATIO * (hyper.epochs * len(dataset)))

    steps: list[TrainStep] = []
    step = 0
    for epoch in range(hyper.epochs):
        for i in rng.permutation(len(dataset)):
            ex = dataset[i]
            lr_t = hyper.lr * (step + 1) / warmup_steps if step < warmup_steps else hyper.lr

            tape = GradTape()
            leaves = params.leaves(tape)
            logits = fused_logits(model, ex.tokens, ex.resume, lambda xn: dssp_update(
                xn, ex.dhat, params, leaves, shared=shared[i]))

            p_base = ex.base.reshape(1, -1)
            last = ad.take_rows(logits, [len(ex.tokens) - 1])
            p_aug = ad.softmax_rows(last, 1.0)
            logp = ad.log_clamped(p_aug)
            ce_node = ad.scale(ad.pick(logp, 0, ex.answer_id), -1.0)
            h_node = ad.scale(ad.sum_all(ad.mul(Tensor(p_base), logp)), -1.0)
            log_base = Tensor(np.log(np.maximum(p_base, CLAMP)))
            kl_node = ad.sum_all(ad.mul(p_aug, ad.sub(logp, log_base)))
            loss = ad.add(ce_node, ad.add(ad.scale(h_node, hyper.mu),
                                          ad.scale(kl_node, hyper.nu)))

            total_val = loss.item()
            if not math.isfinite(total_val):
                raise TrainingDivergedError(step, "loss")

            grads = backward(tape, loss)
            updates = {
                name: grads[leaves[name]] for name in PARAM_NAMES if leaves[name] in grads
            }
            params.apply_updates(updates, lr_t)
            if not all(np.isfinite(getattr(params, name)).all() for name in updates):
                raise TrainingDivergedError(step, "update")

            steps.append(TrainStep(
                step=step, epoch=epoch, lr=lr_t, ce=ce_node.item(),
                h_term=h_node.item(), kl_term=kl_node.item(), total=total_val))
            step += 1

    return TrainReport(steps=steps, epochs=hyper.epochs, checkpoint_id=checkpoint_id(params))


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
