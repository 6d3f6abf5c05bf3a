"""A small decoder-only transformer exposing per-layer states and attention.

Pre-norm blocks, causal masking, learned positional embeddings, and a
weight-tied unembedding.  One plain-numpy host block computes every pass.
``infer`` runs it over a sequence or a batch of them, can resume from a
cached hidden state and can stop at layer ``k``, after that layer's
attention pattern, for a caller that reads nothing above it; every inference
caller (detection, the pruning sweep, filtering, decoding) runs on it.
``forward`` is ``infer`` of one sequence.  Only ``fused_logits``, the
training pass, tapes: above the fused block's taped output, the frozen tail
is one record with a hand-written adjoint, so the fusion parameters get their
gradients without a record per host op.  The oracle all three are held to,
bit for bit, is the host taped op by op, in the tests.

A hooked layer has its self-attention output replaced by the array the hook
maps its normed stream to (in a batch, each row's by its own hook) and
records an identity attention pattern in the trace, so trace shapes never
depend on options.  Removing a layer needs no option: the stream entering it
goes straight to the next one, which is a resume at the next layer.
"""
from __future__ import annotations

import contextvars
import dataclasses
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (
    ContractViolationError,
    JsonRecord,
    field_types,
    read_field,
    read_json,
    read_record,
    write_json,
)
from .tensorstore import expect_tensors, load_tensors, save_tensors

Array = np.ndarray


@dataclass(frozen=True)
class ModelConfig(JsonRecord):
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq: int
    seed: int = 0

    def __post_init__(self):
        for name, kind in field_types(ModelConfig).items():
            value, least = read_field(vars(self), name, kind), 0 if name == "seed" else 1
            if value < least:
                raise ContractViolationError(f"{name} must be >= {least}, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ContractViolationError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


Hook = Callable[[Array], Array]


@dataclass
class ForwardOptions:
    """Fusion-hook placement for a forward pass: ``dssp_hook`` is one hook for every
    row, or a sequence of hooks, one per row of a ``(B, n)`` batch.  When ``infer``
    splits a batch into row parts, a hook may run on a worker thread, at the same
    time as other rows' hooks, in the caller's context; a pass the hook starts
    runs serially."""
    dssp_layer: int | None = None
    dssp_hook: Hook | Sequence[Hook] | None = None

    def validate(self, n_layers: int) -> None:
        if (self.dssp_layer is None) != (self.dssp_hook is None):
            raise ContractViolationError("dssp_layer and dssp_hook must be set together")
        if self.dssp_layer is not None and not 0 <= self.dssp_layer < n_layers:
            raise ContractViolationError(f"hook layer {self.dssp_layer} outside model")

    def row_hooks(self, rows: int) -> list[Hook]:
        """The hook of each of ``rows`` rows."""
        if callable(self.dssp_hook):
            return [self.dssp_hook] * rows
        hooks = list(self.dssp_hook)
        if len(hooks) != rows:
            raise ContractViolationError(f"{len(hooks)} hooks for a batch of {rows} rows")
        return hooks


@dataclass
class ForwardTrace:
    hidden: list[Array]        # residual stream after each block, seq x d_model
    attention: list[Array]     # per layer: (n_heads, seq, seq), rows stochastic
    logits: Array | None       # seq x vocab; None for an ``infer`` stopped early

    def row(self, i: int) -> "ForwardTrace":
        """Row ``i`` of a batched trace, its arrays views of the batch's."""
        return ForwardTrace([h[i] for h in self.hidden], [a[i] for a in self.attention],
                            None if self.logits is None else self.logits[i])


class TinyTransformer:
    """Immutable-weight toy decoder; weights live in a flat name->array dict.

    Every weight is held as float64, whatever dtype the caller passed: the
    values an autodiff ``Tensor`` of it holds.
    ``qkv[l]`` holds layer ``l``'s read-only ``(n_heads, d_model, d_head)`` Q,
    K and V stacks, and the per-head ``weights`` entries are contiguous views
    of them; ``unembed`` is a contiguous ``tok_emb.T``.  Rebinding a Q/K/V
    entry or ``tok_emb`` after construction is unsupported.
    """

    def __init__(self, config: ModelConfig, weights: dict[str, Array]):
        self.config = config
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        self.qkv: list[tuple[Array, ...]] = []
        for l in range(config.n_layers):
            names = [[f"l{l}.attn.{p}.h{h}" for h in range(config.n_heads)]
                     for p in ("wq", "wk", "wv")]
            self.qkv.append(tuple(np.stack([self.weights[n] for n in part]) for part in names))
            for part, stack in zip(names, self.qkv[-1]):
                stack.flags.writeable = False
                self.weights.update(zip(part, stack))
        self.unembed = np.ascontiguousarray(self.weights["tok_emb"].T)


def weight_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Name and shape of every host weight, in checkpoint order."""
    d, dh, dff = config.d_model, config.d_head, config.d_ff
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_seq, d),
              "lnf.gain": (1, d), "lnf.bias": (1, d)}
    for l in range(config.n_layers):
        for h in range(config.n_heads):
            for part in ("wq", "wk", "wv"):
                shapes[f"l{l}.attn.{part}.h{h}"] = (d, dh)
        shapes.update({f"l{l}.attn.wo": (d, d), f"l{l}.attn.bo": (1, d),
                       f"l{l}.ffn.w1": (d, dff), f"l{l}.ffn.b1": (1, dff),
                       f"l{l}.ffn.w2": (dff, d), f"l{l}.ffn.b2": (1, d)})
        for ln in ("ln1", "ln2"):
            shapes.update({f"l{l}.{ln}.gain": (1, d), f"l{l}.{ln}.bias": (1, d)})
    return shapes


@functools.cache
def _causal_mask(n: int) -> Array:
    mask = np.zeros((n, n))
    mask[np.triu_indices(n, k=1)] = -np.inf
    mask.flags.writeable = False
    return mask


def validate_tokens(config: ModelConfig, tokens: Sequence[int]) -> list[int]:
    toks = []
    for t in tokens:   # a float, bool or string id is refused, never truncated
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise ContractViolationError(f"token id {t!r} is not an integer")
        toks.append(int(t))
    if len(toks) == 0:
        raise ContractViolationError("empty token sequence")
    if len(toks) > config.max_seq:
        raise ContractViolationError(f"sequence length {len(toks)} exceeds max_seq {config.max_seq}")
    for t in toks:
        if not 0 <= t < config.vocab_size:
            raise ContractViolationError(f"token id {t} outside vocab of {config.vocab_size}")
    return toks


def _resume_state(cfg: ModelConfig, opts: ForwardOptions, resume: tuple[int, Array],
                  shape: tuple[int, ...]) -> tuple[int, Array]:
    """Checked ``(k, h)`` of a ``resume`` argument; ``h`` must have ``shape``."""
    start = int(resume[0])
    x = np.asarray(resume[1], dtype=np.float64)
    if not 0 <= start <= cfg.n_layers:
        raise ContractViolationError(f"resume layer {start} outside 0..{cfg.n_layers}")
    if x.shape != shape:
        raise ContractViolationError(f"resume state has shape {x.shape}, expected {shape}")
    if opts.dssp_layer is not None and opts.dssp_layer < start:
        raise ContractViolationError("hooked layer below the resume layer")
    return start, x


# ---------------------------------------------------------------------------
# the host pass
# ---------------------------------------------------------------------------
#
# One numpy block serves ``infer``, ``forward`` and ``fused_logits``.  It
# repeats the arithmetic of the host taped op by op (kept in the tests as the
# oracle), so the two agree bit for bit, and it shares that arithmetic with the
# fused block through ``autodiff``: a layer's heads are one ``attend`` over
# their (B, H, n, d_head) stack, and one ``attention_vjp`` in the tail's
# adjoint.  That holds only while every matmul keeps the shapes and memory
# layout of its taped counterpart: numpy runs a stacked matmul as one BLAS call
# per 2-d slice, but BLAS picks its kernel from the slice shape, so packing
# heads into one projection or batching (1, d) rows into one (B, d) matmul
# changes the rounding.  So the per-head Q/K/V weights are views of one stack
# per layer (``TinyTransformer.qkv``), and every layer norm standardizes with
# the tape's own kernel, ``autodiff.normalize``.

def layer_norm(x: Array, gain: Array, bias: Array) -> Array:
    """``autodiff.layer_norm`` in plain numpy, over the last axis, bit for bit."""
    return ad.normalize(x)[0] * gain + bias


def _tokens(config: ModelConfig, tokens) -> Array:
    """``(n,)`` or ``(B, n)`` tokens as a validated integer array of that shape."""
    try:
        ndim = np.ndim(tokens)
    except ValueError:
        raise ContractViolationError("batched token rows must share one length") from None
    if ndim not in (1, 2):
        raise ContractViolationError(f"tokens must be (n,) or (B, n), got {ndim} dimensions")
    rows = [tokens] if ndim == 1 else list(tokens)
    if not rows:
        raise ContractViolationError("empty token batch")
    toks = np.array([validate_tokens(config, r) for r in rows], dtype=np.int64)
    return toks[0] if ndim == 1 else toks


def embed(model: TinyTransformer, tokens) -> Array:
    """The stream entering layer 0 of ``(n,)`` or ``(B, n)`` tokens: token plus position
    embeddings, shaped ``(n, d_model)`` or ``(B, n, d_model)``."""
    toks = _tokens(model.config, tokens)
    return model.weights["tok_emb"][toks] + model.weights["pos_emb"][:toks.shape[-1]]


def infer(
    model: TinyTransformer,
    tokens,
    options: ForwardOptions | None = None,
    resume: tuple[int, Array] | None = None,
    stop: int | None = None,
) -> ForwardTrace:
    """The host over a sequence or a (B, n) batch of them, in plain numpy.

    Returns the hidden states, attention patterns and logits, with a leading
    batch axis when ``tokens`` is 2-d.  Each row rounds as it does alone: a
    batched matmul is one BLAS call per 2-d slice, of the unbatched shape.  A
    hooked layer calls each row's hook (``ForwardOptions.row_hooks``) on that
    row's ``(n, d)`` normed stream, and its output must be an ``(n, d)`` array.
    A batch of at least ``2 * PART_ROWS`` rows runs as contiguous row parts on
    every core the process may run on (``_run_parts``), with the same bits; every
    argument is checked on the whole batch first, and a part's error is raised
    once every part is done, the first in row order.  A pass started inside a
    part (by a hook) runs serially.

    ``resume=(k, h)`` starts at layer ``k`` from ``h``, the residual stream
    entering it (``hidden[k - 1]`` of an earlier trace of the same tokens);
    the trace then starts at layer ``k`` too: ``hidden[i]`` and
    ``attention[i]`` belong to layer ``k + i``.  A hooked layer must lie at
    or above ``k``.

    ``stop=s`` runs the blocks below layer ``s`` and then only layer ``s``'s
    attention pattern (layer norm, Q, K, masked softmax), for callers that
    read nothing above it: the trace holds ``hidden`` up to layer ``s - 1``,
    ``attention`` up to layer ``s`` and no logits.  Each array equals the
    matching entry of the full trace bit for bit.  ``s`` must lie in
    ``k..n_layers - 1``, and a hooked layer below ``s``.
    """
    return _host_pass(model, _tokens(model.config, tokens), options, resume, stop)


def _host_pass(model, toks, options, resume, stop, saved: list | None = None) -> ForwardTrace:
    """``infer`` of ``toks``, tokens already validated.  When ``saved`` is a list, it
    receives ``(l, attn, ffn)`` for each layer ``l`` run and last the final norm's
    ``(xhat, inv)``: the activations the tail's adjoint reads (``_tail_vjp``), for the
    one sequence of ``toks``."""
    cfg = model.config
    opts = options or ForwardOptions()
    opts.validate(cfg.n_layers)
    single = toks.ndim == 1
    toks = np.atleast_2d(toks)
    b, n = toks.shape
    d = cfg.d_model
    w = model.weights

    start = 0
    if resume is None:
        x = w["tok_emb"][toks] + w["pos_emb"][:n]   # ``embed``, without checking again
    else:
        start, x = _resume_state(cfg, opts, resume, (n, d) if single else (b, n, d))
        x = x.reshape(b, n, d)
    if stop is not None:
        if not start <= stop < cfg.n_layers:
            raise ContractViolationError(
                f"stop layer {stop} outside {start}..{cfg.n_layers - 1}")
        if opts.dssp_layer is not None and opts.dssp_layer >= stop:
            raise ContractViolationError("hooked layer at or above the stop layer")

    hooks = None if opts.dssp_layer is None else opts.row_hooks(b)

    run = functools.partial(_layers, model, start, stop, opts.dssp_layer, saved=saved)
    workers = _workers() if b >= 2 * PART_ROWS and not _in_part.get() else 0
    if not workers:
        trace = run(x, hooks)
    else:
        cuts = _part_cuts(b, 1 + workers)
        parts = _run_parts(lambda lo, hi: run(x[lo:hi], None if hooks is None else hooks[lo:hi]),
                           list(zip(cuts, cuts[1:])), workers)
        trace = ForwardTrace(
            [np.concatenate(h) for h in zip(*(p.hidden for p in parts))],
            [np.concatenate(a) for a in zip(*(p.attention for p in parts))],
            None if stop is not None else np.concatenate([p.logits for p in parts]))
    return trace.row(0) if single else trace


def _layers(model, start, stop, hook_layer, x, hooks, saved) -> ForwardTrace:
    """The blocks of ``_host_pass`` from layer ``start`` on the ``(B, n, d)`` stream
    ``x`` entering it, already checked; ``hooks`` holds each row's hook."""
    cfg = model.config
    w = model.weights
    b, n, d = x.shape
    # every head's causal attention of normed rows, one matmul per row and head
    attend_heads = lambda xn, wq, wk, wv=None: ad.attend(
        xn[:, None], xn[:, None], wq, wk, wv, cfg.d_head, _causal_mask(n))
    hidden: list[Array] = []
    attention: list[Array] = []
    for l in range(start, cfg.n_layers if stop is None else stop):
        xhat, inv = ad.normalize(x)
        xn = xhat * w[f"l{l}.ln1.gain"] + w[f"l{l}.ln1.bias"]
        attn = None
        if hook_layer == l:
            outs = [hook(row) for hook, row in zip(hooks, xn)]
            if any(not isinstance(o, np.ndarray) or o.shape != (n, d) for o in outs):
                raise ContractViolationError("hook must return an array shaped like its input")
            attn_out = np.stack(outs)
            attention.append(np.broadcast_to(np.eye(n), (b, cfg.n_heads, n, n)).copy())
        else:
            out, (q, kt, pattern, v, scale) = attend_heads(xn, *model.qkv[l])
            attention.append(pattern)
            merged = out.transpose(0, 2, 1, 3).reshape(b, n, d)
            attn_out = merged @ w[f"l{l}.attn.wo"] + w[f"l{l}.attn.bo"]
            if saved is not None:
                attn = (xhat[0], inv[0], (q[0], kt[0], pattern[0], v[0], scale))
        x = x + attn_out
        xhat, inv = ad.normalize(x)
        yn = xhat * w[f"l{l}.ln2.gain"] + w[f"l{l}.ln2.bias"]
        h1 = yn @ w[f"l{l}.ffn.w1"] + w[f"l{l}.ffn.b1"]
        relu = h1 > 0.0
        x = x + ((h1 * relu) @ w[f"l{l}.ffn.w2"] + w[f"l{l}.ffn.b2"])
        if saved is not None:
            saved.append((l, attn, (xhat[0], inv[0], relu[0])))
        hidden.append(x)

    logits = None
    if stop is None:
        xhat, inv = ad.normalize(x)
        logits = (xhat * w["lnf.gain"] + w["lnf.bias"]) @ model.unembed
        if saved is not None:
            saved.append((xhat[0], inv[0]))
    else:
        xn = layer_norm(x, w[f"l{stop}.ln1.gain"], w[f"l{stop}.ln1.bias"])
        attention.append(attend_heads(xn, *model.qkv[stop][:2])[1][2])
    return ForwardTrace(hidden, attention, logits)


def blocks(keys: dict, cap: int) -> list[list]:
    """The rows that share a batched pass: the keys of ``keys`` (row -> its pass's shape)
    grouped by shape, in order of first appearance, in blocks of at most ``cap``."""
    groups: dict = {}
    for i, key in keys.items():
        groups.setdefault(key, []).append(i)
    return [g[j:j + cap] for g in groups.values() for j in range(0, len(g), cap)]


# ---------------------------------------------------------------------------
# row parts: a large batch on every core the process may run on
# ---------------------------------------------------------------------------
#
# The rows of a batch are independent, and each rounds as it does alone, so a
# batch of at least 2 * PART_ROWS rows is cut into contiguous parts that run at
# once: part 0 on the calling thread, every other part on a worker thread, one
# per extra core in the process's CPU affinity mask.  numpy leaves the GIL
# inside BLAS and its array loops, so the parts overlap.  A pass that starts
# inside a part (a hook's own ``infer``) runs serially: it would otherwise wait
# for a worker that may be running the part it was called from.

# Fewest rows in a part.  A single sequence and the (2, n) detection pair of one
# record never split, nor does any batch of fewer than 2 * PART_ROWS rows.
PART_ROWS = 8

_pool: tuple[int, int, ThreadPoolExecutor] | None = None    # (pid, threads, pool)
_in_part = contextvars.ContextVar("in_part", default=False)


def _workers() -> int:
    """Worker threads a split pass may use: one per core beyond the caller's."""
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(
        os.cpu_count() or 1)
    return len(cores) - 1


def _part_cuts(rows: int, most: int) -> list[int]:
    """The row bounds of at most ``most`` parts of a ``rows``-row batch, each of at
    least ``PART_ROWS`` rows and as even as ``np.array_split`` makes them."""
    parts = min(most, rows // PART_ROWS)
    return [i * (rows // parts) + min(i, rows % parts) for i in range(parts + 1)]


def _run_parts(run: Callable[[int, int], ForwardTrace], parts: list[tuple[int, int]],
               workers: int) -> list[ForwardTrace]:
    """``run(lo, hi)`` of each part, part 0 on this thread and each other one on one
    of ``workers`` threads, in the caller's context (numpy's error state included).
    Every part finishes before any error is raised: the first part's, in row order."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        # a forked child inherits the parent's pool but none of its threads
        _pool = (os.getpid(), workers, ThreadPoolExecutor(workers, "host-part"))
    flag = _in_part.set(True)    # for part 0 here and in the context copies the others run in
    futures = [_pool[2].submit(contextvars.copy_context().run, run, *part) for part in parts[1:]]
    try:
        first = run(*parts[0])
    finally:
        wait(futures)
        _in_part.reset(flag)
    return [first] + [f.result() for f in futures]


def forward(
    model: TinyTransformer,
    tokens: Sequence[int],
    options: ForwardOptions | None = None,
    resume: tuple[int, Array] | None = None,
) -> ForwardTrace:
    """``infer`` of one sequence."""
    toks = np.array(validate_tokens(model.config, tokens), dtype=np.int64)
    return _host_pass(model, toks, options, resume, None)


# ---------------------------------------------------------------------------
# the fused block: where it enters, what it reads, and the training pass through it
# ---------------------------------------------------------------------------

def can_enter(n_layers: int, layer: int) -> bool:
    """Whether the fused block can enter ``layer``: it reads ``hidden[layer - 1]``."""
    return 1 <= layer < n_layers


def check_insertion_layer(n_layers: int, layer: int) -> None:
    """Refuse a layer the fused block cannot enter (``can_enter``)."""
    if not can_enter(n_layers, layer):
        raise ContractViolationError(f"insertion layer {layer} outside 1..{n_layers - 1}")


def fused_input(model: TinyTransformer, layer: int, h: Array) -> Array:
    """What the fused block at ``layer`` reads of ``h``, rows of the stream entering
    it: the layer's first norm of them, bit for bit what ``_layers`` hands a hook."""
    check_insertion_layer(model.config.n_layers, layer)
    w = model.weights
    return layer_norm(np.asarray(h, dtype=np.float64), w[f"l{layer}.ln1.gain"],
                      w[f"l{layer}.ln1.bias"])


def fused_logits(model: TinyTransformer, tokens: Sequence[int], resume: tuple[int, Array],
                 block: Callable[[Array], Tensor]) -> Tensor:
    """The logits of one sequence with layer ``k``'s attention output set to
    ``block(xn)``, on ``block``'s tape, for ``resume = (k, h)``.

    The pass starts at layer ``k`` from ``h``, the stream entering it, and
    ``xn`` is that layer's first norm of it.  Everything from layer ``k``'s
    residual add to the unembedding -- its FFN, every block above it, the
    final norm and the logits -- is the frozen tail, and goes on the tape as
    one record, whose adjoint is ``block``'s output's only (``_tail_vjp``).
    """
    taped: list[Tensor] = []

    def hook(xn: Array) -> Array:
        taped.append(block(xn))
        return taped[0].value

    saved: list = []
    toks = np.array(validate_tokens(model.config, tokens), dtype=np.int64)
    trace = _host_pass(model, toks, ForwardOptions(resume[0], hook), resume, None, saved)
    *layers, final = saved
    return ad.emit(trace.logits, (taped[0],), functools.partial(_tail_vjp, model, layers, final))


def _tail_vjp(model: TinyTransformer, layers: list, final: tuple, g: Array) -> tuple[Array]:
    """The fused block output's adjoint, given ``g``, the logits' adjoint.

    ``backward`` over the tail taped op by op, host weights constant, gives
    the same bits: this replays its adjoints in its order.  At each residual
    add the stream's adjoint is the residual one with the layer norm's added
    to it; in attention, one ``attention_vjp`` takes every head, and the heads,
    from the last down, each add their V, K, then Q adjoint to the stream's.
    """
    w = model.weights
    g = ad.normalize_vjp((g @ model.unembed.T) * w["lnf.gain"], *final)
    for l, attn, (xhat, inv, relu) in reversed(layers):
        gh = (g @ w[f"l{l}.ffn.w2"].T) * relu
        g = g + ad.normalize_vjp((gh @ w[f"l{l}.ffn.w1"].T) * w[f"l{l}.ln2.gain"], xhat, inv)
        if attn is None:      # the hooked layer, the first run: g is the block output's adjoint
            break
        xhat, inv, heads = attn
        wq, wk, wv = model.qkv[l]
        # the (H, n, d_head) stack of head adjoints: views of one product's column blocks
        gq, gk, gv = ad.attention_vjp(
            (g @ w[f"l{l}.attn.wo"].T).reshape(len(g), len(wq), -1).swapaxes(0, 1), *heads)
        gxn = None
        for h in reversed(range(len(wq))):
            for part in (gv[h] @ wv[h].T, gk[h] @ wk[h].T, gq[h] @ wq[h].T):
                gxn = part if gxn is None else gxn + part
        g = g + ad.normalize_vjp(gxn * w[f"l{l}.ln1.gain"], xhat, inv)
    return (g,)


def logit_lens(model: TinyTransformer, hidden: Sequence[Array]) -> Array:
    """Next-token distribution at the last position of each hidden state.

    ``hidden`` holds ``L`` states shaped ``(..., n, d)``, one sequence or a
    batch; the result is ``(L, ..., vocab)``.  The last positions are
    stacked into one ``(L, ..., 1, d)`` array that takes the final layer
    norm, the tied unembedding and the softmax in one pass each.  A stacked
    matmul is one BLAS call per ``(1, d)`` slice, the kernel a lone row gets,
    so each distribution equals the one-row readout bit for bit; merging the
    rows into one ``(B, d)`` matmul would round differently.
    """
    w = model.weights
    last = np.stack([h[..., -1:, :] for h in hidden])
    return ad.row_softmax(layer_norm(last, w["lnf.gain"], w["lnf.bias"]) @ w["tok_emb"].T,
                          1.0)[..., 0, :]


def layer_distributions(model: TinyTransformer, tokens: Sequence[int]) -> list[Array]:
    """Logit-lens profile: per-layer next-token distribution at the last position."""
    return list(logit_lens(model, infer(model, tokens).hidden))


def generate(
    model: TinyTransformer,
    prompt: Sequence[int],
    n_samples: int,
    temperature: float,
    seed: int,
    max_new_tokens: int = 1,
    options: ForwardOptions | None = None,
) -> list[list[int]]:
    """The greedy answer to ``prompt``, as a list holding that one answer.

    Decoding is greedy only, so ``n_samples`` must be 1 and ``temperature``
    0; ``seed`` selects nothing.
    """
    if n_samples != 1 or temperature != 0:
        raise ContractViolationError("decoding is greedy: n_samples must be 1, temperature 0")
    return [generate_from(model, prompt, infer(model, prompt, options).logits[-1],
                          max_new_tokens, options)]


def generate_from(
    model: TinyTransformer,
    prompt: Sequence[int],
    first_logits: Array,
    max_new_tokens: int = 1,
    options: ForwardOptions | None = None,
) -> list[int]:
    """Greedy answer from the prompt's last-position logits, already computed.

    Each token is the argmax of its logits (the lowest index on ties); each
    token after the first re-runs the whole prefix through ``infer``.
    """
    if max_new_tokens < 1:
        raise ContractViolationError("max_new_tokens must be >= 1")
    seq = validate_tokens(model.config, prompt)
    if len(seq) + max_new_tokens > model.config.max_seq:
        raise ContractViolationError("prompt plus max_new_tokens exceeds max_seq")
    logits = first_logits
    for step in range(max_new_tokens):
        if step:
            logits = infer(model, seq, options).logits[-1]
        seq.append(int(np.argmax(logits)))
    return seq[-max_new_tokens:]


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------

@dataclass
class _Sidecar(JsonRecord):
    """The JSON file beside a host checkpoint: its config and free-form ``meta``."""
    config: ModelConfig
    meta: dict = dataclasses.field(default_factory=dict)


def save_model(model: TinyTransformer, bin_path, dtype: str = "f32",
               meta: dict | None = None) -> None:
    """Write the weights to ``bin_path`` and the config and ``meta`` to ``<bin_path>.json``."""
    save_tensors(bin_path, model.weights, dtype=dtype)
    write_json(str(bin_path) + ".json", _Sidecar(model.config, meta or {}).to_json())


def load_model(bin_path) -> tuple[TinyTransformer, dict]:
    """Load a checkpoint: the sidecar ``<bin_path>.json``, whose refusal names it, and
    exactly the finite weights of ``weight_shapes``; an error names the field or tensor."""
    json_path = str(bin_path) + ".json"
    sidecar = read_record(_Sidecar, read_json(json_path), json_path)
    config = sidecar.config
    weights = load_tensors(bin_path)
    # the schema has a tensor per head and layer: refuse one larger than the file before building it
    if config.n_layers * config.n_heads > len(weights):
        raise ContractViolationError(f"config n_layers x n_heads exceeds the {len(weights)} "
                                     f"tensors of host checkpoint {bin_path}")
    expect_tensors(weights, weight_shapes(config), "host checkpoint")
    return TinyTransformer(config, weights), sidecar.meta
