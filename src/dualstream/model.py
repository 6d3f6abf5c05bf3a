"""A small decoder-only transformer exposing per-layer states and attention.

Pre-norm blocks, causal masking, learned positional embeddings, and a
weight-tied unembedding.  Two forward passes compute the same numbers:
``forward`` runs on the autodiff kernels, so a fusion hook carrying taped
parameters makes the path from the hook to the logits differentiable; it
serves training and is the reference.  ``infer`` is plain numpy, takes token
batches, can resume from a cached hidden state and can stop at layer ``k``,
after that layer's attention pattern, for a caller that reads nothing above
it; every inference caller (detection, the pruning sweep, filtering,
decoding) runs on it.

Layer removal (``skip_layers``) is identity pass-through of the whole block;
a hooked layer has its self-attention output replaced by the hook's output.
Skipped and hooked layers record identity attention patterns in the trace so
trace shapes never depend on options.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolationError, read_field
from .tensorstore import expect_tensors, load_tensors, save_tensors

Array = np.ndarray


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq: int
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.name != "seed" and getattr(self, f.name) < 1:
                raise ContractViolationError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.d_model % self.n_heads != 0:
            raise ContractViolationError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class ForwardOptions:
    """Layer removal and fusion-hook placement for a single forward pass."""
    skip_layers: frozenset[int] = frozenset()
    dssp_layer: int | None = None
    dssp_hook: Callable[[Tensor], Tensor] | None = None

    def validate(self, n_layers: int) -> None:
        for l in self.skip_layers:
            if not 0 <= l < n_layers:
                raise ContractViolationError(f"skip layer {l} outside 0..{n_layers - 1}")
        if (self.dssp_layer is None) != (self.dssp_hook is None):
            raise ContractViolationError("dssp_layer and dssp_hook must be set together")
        if self.dssp_layer is not None:
            if not 0 <= self.dssp_layer < n_layers:
                raise ContractViolationError(f"hook layer {self.dssp_layer} outside model")
            if self.dssp_layer in self.skip_layers:
                raise ContractViolationError("hook layer cannot also be skipped")

    @property
    def altered_layers(self) -> frozenset[int]:
        """The skipped layers and the hooked one."""
        return self.skip_layers | ({self.dssp_layer} - {None})


@dataclass
class ForwardTrace:
    hidden: list[Array]        # residual stream after each block, seq x d_model
    attention: list[Array]     # per layer: (n_heads, seq, seq), rows stochastic
    logits: Array | None       # seq x vocab; None for an ``infer`` stopped early
    logits_node: Tensor | None = None  # present when a tape was active


class TinyTransformer:
    """Immutable-weight toy decoder; weights live in a flat name->array dict.

    Every weight is held as float64, whatever dtype the caller passed, so
    ``infer`` reads the values ``forward`` lifts into its tensors.
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

    @classmethod
    def random(cls, config: ModelConfig) -> "TinyTransformer":
        rng = np.random.default_rng(config.seed)
        std = {"tok_emb": 0.5, "pos_emb": 0.1}
        proj = 0.3 / np.sqrt(config.d_model)
        w: dict[str, Array] = {}
        for name, shape in weight_shapes(config).items():
            if name.endswith("gain"):
                w[name] = np.ones(shape)
            elif name.endswith(("bias", "bo", "b1", "b2")):
                w[name] = np.zeros(shape)
            else:
                w[name] = rng.normal(0.0, std.get(name, proj), size=shape)
        return cls(config, w)


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


def _validate_tokens(config: ModelConfig, tokens: Sequence[int]) -> list[int]:
    toks = [int(t) for t in tokens]
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
    if any(l < start for l in opts.altered_layers):
        raise ContractViolationError("skipped or hooked layer below the resume layer")
    return start, x


def forward(
    model: TinyTransformer,
    tokens: Sequence[int],
    options: ForwardOptions | None = None,
    weight_tensors: dict[str, Tensor] | None = None,
    resume: tuple[int, Array] | None = None,
) -> ForwardTrace:
    """Run the decoder over ``tokens`` on the tape and return the full trace.

    Host weights enter as constants, so nothing is recorded unless the fusion
    hook introduces a tape; from there on the graph is differentiable.
    ``weight_tensors`` replaces host weights by the given tensors.  Training
    never passes it (the host is always frozen); it builds the unpruned
    reference graph, host weights taped, that the tests compare the pruned
    fusion gradients against.
    ``resume=(k, h)`` means what it means for ``infer``: start at layer ``k``
    from the constant residual stream ``h`` entering it, with a trace that
    starts at layer ``k`` too.
    """
    cfg = model.config
    opts = options or ForwardOptions()
    opts.validate(cfg.n_layers)
    toks = _validate_tokens(cfg, tokens)
    n = len(toks)

    def W(name: str) -> Tensor:
        if weight_tensors is not None and name in weight_tensors:
            return weight_tensors[name]
        return Tensor(model.weights[name])

    emb = W("tok_emb")
    start = 0
    if resume is None:
        x = ad.add(ad.take_rows(emb, toks), ad.take_rows(W("pos_emb"), list(range(n))))
    else:
        start, h = _resume_state(cfg, opts, resume, (n, cfg.d_model))
        x = Tensor(h)
    mask = Tensor(_causal_mask(n))
    eye_stack = np.broadcast_to(np.eye(n), (cfg.n_heads, n, n)).copy()

    hidden: list[Array] = []
    attention: list[Array] = []
    for l in range(start, cfg.n_layers):
        if l in opts.skip_layers:
            hidden.append(x.value.copy())
            attention.append(eye_stack)
            continue
        xn = ad.layer_norm(x, W(f"l{l}.ln1.gain"), W(f"l{l}.ln1.bias"))
        if opts.dssp_layer == l:
            attn_out = opts.dssp_hook(xn)
            if not isinstance(attn_out, Tensor) or attn_out.value.shape != xn.value.shape:
                raise ContractViolationError("hook must return a Tensor shaped like its input")
            attention.append(eye_stack)
        else:
            head_outs = []
            pattern = np.empty((cfg.n_heads, n, n))
            for h in range(cfg.n_heads):
                q = ad.matmul(xn, W(f"l{l}.attn.wq.h{h}"))
                k = ad.matmul(xn, W(f"l{l}.attn.wk.h{h}"))
                v = ad.matmul(xn, W(f"l{l}.attn.wv.h{h}"))
                scores = ad.add(ad.matmul(q, ad.transpose(k)), mask)
                attn = ad.softmax_rows(scores, 1.0 / np.sqrt(cfg.d_head))
                pattern[h] = attn.value
                head_outs.append(ad.matmul(attn, v))
            merged = head_outs[0] if cfg.n_heads == 1 else ad.concat_cols(head_outs)
            attn_out = ad.add(ad.matmul(merged, W(f"l{l}.attn.wo")), W(f"l{l}.attn.bo"))
            attention.append(pattern)
        x = ad.add(x, attn_out)
        yn = ad.layer_norm(x, W(f"l{l}.ln2.gain"), W(f"l{l}.ln2.bias"))
        h1 = ad.relu(ad.add(ad.matmul(yn, W(f"l{l}.ffn.w1")), W(f"l{l}.ffn.b1")))
        ffn_out = ad.add(ad.matmul(h1, W(f"l{l}.ffn.w2")), W(f"l{l}.ffn.b2"))
        x = ad.add(x, ffn_out)
        hidden.append(x.value.copy())

    final = ad.layer_norm(x, W("lnf.gain"), W("lnf.bias"))
    logits = ad.matmul(final, ad.transpose(emb))
    return ForwardTrace(
        hidden=hidden,
        attention=attention,
        logits=logits.value.copy(),
        logits_node=logits if logits.tape is not None else None,
    )


# ---------------------------------------------------------------------------
# tape-free inference
# ---------------------------------------------------------------------------
#
# ``infer`` repeats ``forward``'s arithmetic operation for operation, so the
# two agree bit for bit.  That holds only while every matmul keeps the shapes
# and memory layout of its ``forward`` counterpart: numpy runs a stacked
# matmul as one BLAS call per 2-d slice, but BLAS picks its kernel from the
# slice shape, so packing heads into one projection or batching (1, d) rows
# into one (B, d) matmul changes the rounding.  So ``forward``'s per-head Q/K/V
# weights are views of ``infer``'s stacks (``TinyTransformer.qkv``), and both
# layer norms take their means as ``add.reduce / d``, as ``ndarray.mean`` does.

def layer_norm(x: Array, gain: Array, bias: Array) -> Array:
    """``autodiff.layer_norm`` in plain numpy, over the last axis, bit for bit."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + ad.LN_EPS)
    return xc * inv * gain + bias


def _softmax(z: Array) -> Array:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention_pattern(xn: Array, wq: Array, wk: Array, mask: Array, scale: float) -> Array:
    """Causal softmax pattern of normed ``(B, n, d)`` rows, one matmul per row and head."""
    q, k = xn[:, None] @ wq, xn[:, None] @ wk
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    return _softmax((q @ kt + mask) * scale)


def _token_batch(config: ModelConfig, tokens) -> tuple[Array, bool]:
    """Validated (B, n) token array, and whether the caller passed one sequence."""
    try:
        ndim = np.ndim(tokens)
    except ValueError:
        raise ContractViolationError("batched token rows must share one length") from None
    if ndim not in (1, 2):
        raise ContractViolationError(f"tokens must be (n,) or (B, n), got {ndim} dimensions")
    rows = [tokens] if ndim == 1 else list(tokens)
    if not rows:
        raise ContractViolationError("empty token batch")
    return np.array([_validate_tokens(config, r) for r in rows], dtype=np.int64), ndim == 1


def infer(
    model: TinyTransformer,
    tokens,
    options: ForwardOptions | None = None,
    resume: tuple[int, Array] | None = None,
    stop: int | None = None,
) -> ForwardTrace:
    """``forward`` in plain numpy, for a sequence or a (B, n) batch of them.

    Returns the hidden states, attention patterns and logits ``forward``
    returns, bit for bit, with a leading batch axis when ``tokens`` is 2-d.
    Nothing is recorded, so a taped fusion hook gets no gradients here.

    ``resume=(k, h)`` starts at layer ``k`` from ``h``, the residual stream
    entering it (``hidden[k - 1]`` of an earlier trace of the same tokens);
    the trace then starts at layer ``k`` too: ``hidden[i]`` and
    ``attention[i]`` belong to layer ``k + i``.  Skipped and hooked layers
    must lie at or above ``k``.

    ``stop=s`` runs the blocks below layer ``s`` and then only layer ``s``'s
    attention pattern (layer norm, Q, K, masked softmax), for callers that
    read nothing above it: the trace holds ``hidden`` up to layer ``s - 1``,
    ``attention`` up to layer ``s`` and no logits.  Each array equals the
    matching entry of the full trace bit for bit.  ``s`` must lie in
    ``k..n_layers - 1``, and skipped and hooked layers below ``s``.
    """
    cfg = model.config
    opts = options or ForwardOptions()
    opts.validate(cfg.n_layers)
    toks, single = _token_batch(cfg, tokens)
    b, n = toks.shape
    d, heads = cfg.d_model, cfg.n_heads
    w = model.weights

    start = 0
    if resume is None:
        x = w["tok_emb"][toks] + w["pos_emb"][:n]
    else:
        start, x = _resume_state(cfg, opts, resume, (n, d) if single else (b, n, d))
        x = x.reshape(b, n, d)
    if stop is not None:
        if not start <= stop < cfg.n_layers:
            raise ContractViolationError(
                f"stop layer {stop} outside {start}..{cfg.n_layers - 1}")
        if any(l >= stop for l in opts.altered_layers):
            raise ContractViolationError("skipped or hooked layer at or above the stop layer")
    mask = _causal_mask(n)
    eye = np.broadcast_to(np.eye(n), (b, heads, n, n))
    scale = 1.0 / np.sqrt(cfg.d_head)

    hidden: list[Array] = []
    attention: list[Array] = []
    for l in range(start, cfg.n_layers if stop is None else stop):
        if l in opts.skip_layers:
            hidden.append(x)
            attention.append(eye.copy())
            continue
        xn = layer_norm(x, w[f"l{l}.ln1.gain"], w[f"l{l}.ln1.bias"])
        if opts.dssp_layer == l:
            outs = [opts.dssp_hook(Tensor(row)) for row in xn]
            if any(not isinstance(o, Tensor) or o.value.shape != (n, d) for o in outs):
                raise ContractViolationError("hook must return a Tensor shaped like its input")
            attn_out = np.stack([o.value for o in outs])
            attention.append(eye.copy())
        else:
            wq, wk, wv = model.qkv[l]
            pattern = _attention_pattern(xn, wq, wk, mask, scale)
            attention.append(pattern)
            merged = (pattern @ (xn[:, None] @ wv)).transpose(0, 2, 1, 3).reshape(b, n, d)
            attn_out = merged @ w[f"l{l}.attn.wo"] + w[f"l{l}.attn.bo"]
        x = x + attn_out
        yn = layer_norm(x, w[f"l{l}.ln2.gain"], w[f"l{l}.ln2.bias"])
        h1 = yn @ w[f"l{l}.ffn.w1"] + w[f"l{l}.ffn.b1"]
        h1 = h1 * (h1 > 0.0)
        x = x + (h1 @ w[f"l{l}.ffn.w2"] + w[f"l{l}.ffn.b2"])
        hidden.append(x)

    logits = None
    if stop is None:
        logits = layer_norm(x, w["lnf.gain"], w["lnf.bias"]) @ model.unembed
    else:
        xn = layer_norm(x, w[f"l{stop}.ln1.gain"], w[f"l{stop}.ln1.bias"])
        attention.append(_attention_pattern(xn, *model.qkv[stop][:2], mask, scale))
    if single:
        return ForwardTrace([h[0] for h in hidden], [a[0] for a in attention],
                            None if logits is None else logits[0])
    return ForwardTrace(hidden, attention, logits)


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
    return _softmax(layer_norm(last, w["lnf.gain"], w["lnf.bias"]) @ w["tok_emb"].T)[..., 0, :]


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
    seq = _validate_tokens(model.config, prompt)
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

def save_model(model: TinyTransformer, bin_path, dtype: str = "f32",
               meta: dict | None = None) -> None:
    """Write the weights to ``bin_path`` and the config and ``meta`` to ``<bin_path>.json``."""
    save_tensors(bin_path, model.weights, dtype=dtype)
    doc = {"config": dataclasses.asdict(model.config), "meta": meta or {}}
    with open(str(bin_path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(bin_path) -> tuple[TinyTransformer, dict]:
    """Load a checkpoint: every ``ModelConfig`` field in the sidecar ``<bin_path>.json``,
    and exactly the finite weights of ``weight_shapes``; an error names the field or tensor."""
    json_path = str(bin_path) + ".json"
    with open(json_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ContractViolationError(
            f"model sidecar {json_path}: expected a JSON object, got {type(doc).__name__}")
    config = read_field(doc, "config", lambda c: ModelConfig(
        **{f.name: read_field(c, f.name, int) for f in dataclasses.fields(ModelConfig)}))
    meta = read_field(doc, "meta", dict, {})
    weights = load_tensors(bin_path)
    # the schema has a tensor per head and layer: refuse one larger than the file before building it
    if config.n_layers * config.n_heads > len(weights):
        raise ContractViolationError(f"config n_layers x n_heads exceeds the {len(weights)} "
                                     f"tensors of host checkpoint {bin_path}")
    expect_tensors(weights, weight_shapes(config), "host checkpoint")
    return TinyTransformer(config, weights), meta
