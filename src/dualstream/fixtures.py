"""Hand-planted six-layer host model with recoverable internal structure.

The fixture model is a block-structured transformer whose weights are written
directly (no training).  Embedding dimensions are reserved per word family
(subject / object / junk identity codes, class markers, positional phases),
and each layer implements one legible mechanism:

* layer 0 -- tagger: every position attends the question's subject token and
  receives its identity code plus a weak "blank" default answer;
* layer 1 -- recall (the planted key layer): a feed-forward associative
  memory maps the identity codes of the first half of the subjects (the
  "known" facts) to their gold object codes, and its attention head lights up
  tokens whose subject code matches the question's, which is the signal the
  knowledge filter reads;
* layer 2 -- mixer: each document token attends its left neighbour, moving
  object codes from evidence positions onto the adjacent subject tokens;
* layer 3 -- scrambler (the planted offset layer): reads the question
  subject's position and identity and writes junk-token logit patterns whose
  region flips with word order, so unknown subjects produce order-dependent
  deep-layer answers while known subjects stay pinned to their recalled fact;
* layer 4 -- damper: suppresses the subject-identity echo at the readout by
  writing a negative subject-class marker, so that without the scrambler the
  model falls back to the shared "blank" answer instead of parroting the
  subject (this is what makes removing the scrambler an entropy drop);
* layer 5 -- exactly inert (zero value/output weights), so removing it is a
  bit-exact no-op.

A question about a memorised subject is answered from recall and is stable
under the question/variant reorder; a question about an unmemorised subject
lands in order-dependent junk, which is precisely the deep-layer divergence
the detector flags and the fusion stage repairs from documents.

Two conventions keep the planted attention contrasts sharp under layer
normalisation.  Every token row carries the same large ballast in a dedicated
fill dimension, so bare rows are never amplified relative to written-to rows
and readout logits see the fill identically for every candidate.  Positions
are encoded as three cosine phases 120 degrees apart, which sum to zero in
every row; the mixer's one-step rotation then survives the mean subtraction
inside layer norm, and the 24-position period exceeds any context length so
no two positions alias.
"""
from __future__ import annotations

import math

import numpy as np

from .dataset import Vocab, make_conflict_dataset, QARecord
from .fusion import DsspParams, param_shapes
from .model import ModelConfig, TinyTransformer, weight_shapes

Array = np.ndarray

N_LAYERS = 6
N_HEADS = 2
KEY_LAYER = 1       # recall: removing it makes memorised answers scatter
OFFSET_LAYER = 3    # scrambler: removing it collapses unknowns onto "blank"
MAX_SEQ = 24
FFN_WIDTH = 64

# --- planted scale constants ----------------------------------------------
# Post-layer-norm, a unit embedding dimension reads out at roughly 2.0 (the
# ballast pins every row norm near sqrt(42)); the write constants below are
# calibrated against that scale.
FILL_AMP = 6.0         # shared ballast amplitude (every token, same value)
PHASE_AMP = 1.2        # amplitude of the three positional phase dims
MARK_AMP = 0.6         # amplitude of the question-zone / position-3 markers
SHIFT_PERIOD = 24      # positions per full phase turn (> max context length)
MARKER_QK = 5.0        # query/key scale of the marker-affinity heads
MATCH_QK = 2.0         # query/key scale of the subject-match head (layer 1)
SHIFT_QK = 13.0        # query/key scale of the relative-shift head (layer 2)
COPY_WRITE = 0.60      # subject-code copy amplitude (tagger value path)
DEFAULT_WRITE = 0.65   # "blank" default-answer amplitude (tagger value path)
RECALL_THRESH = 1.5    # post-norm activation threshold of the recall memory
RECALL_CAP = 0.6       # activation clip width (makes recall strength uniform)
RECALL_WRITE = 13.3    # object-code amplitude written by a recalled fact
MIX_WRITE = 0.60       # object-code amplitude moved onto subject tokens
TILT_WRITE = 0.90      # per-subject junk tilt (scrambler value path)
BUMP_WRITE = 0.55      # junk-region bump written from the constant marker
FLIP_WRITE = 1.10      # region flip written from the position-3 marker
DAMP_WRITE = 1.40      # negative subject-marker write (readout echo damper)
READOUT_GAIN = 2.0     # final layer-norm gain (readout sharpness)

# fusion parameters
COPIER_TOP_T = 64
TRAIN_INIT_NOISE = 0.005     # seeded jitter applied to the training warm start
TRAIN_INIT_OVERDRIVE = 2.5   # write-strength overshoot of the warm start
TRAIN_INIT_SPUR = 2.0        # spurious blank-answer write of the warm start


def fixture_vocab() -> Vocab:
    """Vocabulary sized for the planted model (few objects, many junk words)."""
    return Vocab(n_subjects=64, n_objects=4, n_junk=80)


def known_subjects(vocab: Vocab) -> list[int]:
    """The memorised half of the subjects (recall units exist for these)."""
    return list(vocab.subject_ids)[: vocab.n_subjects // 2]


class FixtureLayout:
    """Embedding-dimension map for the planted model."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab
        self.c0 = 0          # constant marker carried by every token
        self.m_subj = 1      # subject-class marker
        self.m_obj = 2       # object-class marker
        self.fill = 3        # norm ballast (same amplitude in every token)
        self.sid0 = 4
        self.obj0 = self.sid0 + vocab.n_subjects
        self.blank_dim = self.obj0 + vocab.n_objects
        self.junk0 = self.blank_dim + 1
        self.phase0 = self.junk0 + vocab.n_junk   # three-phase position ramp
        self.qzone = self.phase0 + 3     # question-zone marker (positions 0..3)
        self.p3 = self.qzone + 1         # position-3 marker
        used = self.p3 + 1
        self.d_model = used + (-used) % N_HEADS

    def sid_dim(self, subject: int) -> int:
        return self.sid0 + (subject - self.vocab.subject_ids[0])

    def obj_dim(self, obj: int) -> int:
        return self.obj0 + (obj - self.vocab.object_ids[0])

    def junk_dim(self, j: int) -> int:
        return self.junk0 + j

    @property
    def half_junk(self) -> int:
        return self.vocab.n_junk // 2

    def junk_a_of(self, subject_index: int) -> int:
        """Per-subject junk target inside region A (variant word order)."""
        return (7 * subject_index + 3) % self.half_junk

    def junk_b_of(self, subject_index: int) -> int:
        """Per-subject junk target inside region B (question word order)."""
        return self.half_junk + (11 * subject_index + 5) % self.half_junk


def _token_embeddings(layout: FixtureLayout) -> Array:
    v = layout.vocab
    emb = np.zeros((v.size, layout.d_model))
    emb[:, layout.c0] = 1.0
    emb[:, layout.fill] = FILL_AMP
    emb[v.BLANK, layout.blank_dim] = 1.0
    for s in v.subject_ids:
        emb[s, layout.m_subj] = 1.0
        emb[s, layout.sid_dim(s)] = 1.0
    for o in v.object_ids:
        emb[o, layout.m_obj] = 1.0
        emb[o, layout.obj_dim(o)] = 1.0
    for j_index, j in enumerate(v.junk_ids):
        emb[j, layout.junk_dim(j_index)] = 1.0
    return emb


def _phase(p: int, i: int) -> float:
    omega = 2.0 * math.pi / SHIFT_PERIOD
    return math.cos(omega * p + 2.0 * math.pi * i / 3.0)


def _position_embeddings(layout: FixtureLayout) -> Array:
    pos = np.zeros((MAX_SEQ, layout.d_model))
    for p in range(MAX_SEQ):
        for i in range(3):
            pos[p, layout.phase0 + i] = PHASE_AMP * _phase(p, i)
        if p <= 3:
            pos[p, layout.qzone] = MARK_AMP
        if p == 3:
            pos[p, layout.p3] = MARK_AMP
    return pos


def _empty_weights(config: ModelConfig) -> dict[str, Array]:
    w = {name: np.ones(shape) if name.endswith("gain") else np.zeros(shape)
         for name, shape in weight_shapes(config).items()}
    w["lnf.gain"] = np.full((1, config.d_model), READOUT_GAIN)
    return w


def _marker_affinity_head(w: dict, layout: FixtureLayout, layer: int, head: int) -> None:
    """Pattern: every position attends the question's subject token.

    Queries come from the constant marker; keys score the subject-class
    marker plus the question-zone marker, so the question's subject outranks
    document subjects and plain question words.
    """
    w[f"l{layer}.attn.wq.h{head}"][layout.c0, 0] = MARKER_QK
    w[f"l{layer}.attn.wk.h{head}"][layout.m_subj, 0] = MARKER_QK
    w[f"l{layer}.attn.wk.h{head}"][layout.qzone, 0] = MARKER_QK


def build_fixture_model() -> tuple[TinyTransformer, FixtureLayout]:
    vocab = fixture_vocab()
    layout = FixtureLayout(vocab)
    config = ModelConfig(
        n_layers=N_LAYERS, n_heads=N_HEADS, d_model=layout.d_model,
        d_ff=FFN_WIDTH, vocab_size=vocab.size, max_seq=MAX_SEQ, seed=0,
    )
    w = _empty_weights(config)
    w["tok_emb"] = _token_embeddings(layout)
    w["pos_emb"] = _position_embeddings(layout)

    # ---- layer 0: tagger ---------------------------------------------------
    _marker_affinity_head(w, layout, layer=0, head=0)
    wv = w["l0.attn.wv.h0"]
    wo = w["l0.attn.wo"]
    for i in range(vocab.n_subjects):
        wv[layout.sid0 + i, i] = 1.0
        wo[i, layout.sid0 + i] = COPY_WRITE
    wv[layout.m_subj, vocab.n_subjects] = 1.0
    wo[vocab.n_subjects, layout.blank_dim] = DEFAULT_WRITE

    # ---- layer 1: recall (key layer) --------------------------------------
    # attention head: subject-code match (pattern only, zero value path)
    wq = w["l1.attn.wq.h0"]
    wk = w["l1.attn.wk.h0"]
    for i in range(vocab.n_subjects):
        wq[layout.sid0 + i, i] = MATCH_QK
        wk[layout.sid0 + i, i] = MATCH_QK
    # feed-forward associative memory over the known half, with a clipped
    # activation (relu(a - t) - relu(a - t - cap)) so recall strength does not
    # depend on how many copies of the code a row carries
    known = known_subjects(vocab)
    w1, b1 = w["l1.ffn.w1"], w["l1.ffn.b1"]
    w2 = w["l1.ffn.w2"]
    for u, s in enumerate(known):
        sid = layout.sid_dim(s)
        gold_dim = layout.obj_dim(vocab.gold_object(s))
        w1[sid, 2 * u] = 1.0
        b1[0, 2 * u] = -RECALL_THRESH
        w2[2 * u, gold_dim] = RECALL_WRITE
        w1[sid, 2 * u + 1] = 1.0
        b1[0, 2 * u + 1] = -(RECALL_THRESH + RECALL_CAP)
        w2[2 * u + 1, gold_dim] = -RECALL_WRITE

    # ---- layer 2: mixer (object codes move one position right) ------------
    # the query ramp is rotated back one position, so the score peaks at
    # key position = query position - 1; in the three-phase basis the
    # rotation is cos(w)*c_i + sin(w)*(c_{i-1} - c_{i+1})/sqrt(3)
    omega = 2.0 * math.pi / SHIFT_PERIOD
    wq = w["l2.attn.wq.h0"]
    wk = w["l2.attn.wk.h0"]
    for i in range(3):
        wq[layout.phase0 + i, i] = SHIFT_QK * math.cos(omega)
        wq[layout.phase0 + (i - 1) % 3, i] = SHIFT_QK * math.sin(omega) / math.sqrt(3.0)
        wq[layout.phase0 + (i + 1) % 3, i] = -SHIFT_QK * math.sin(omega) / math.sqrt(3.0)
        wk[layout.phase0 + i, i] = SHIFT_QK
    wv = w["l2.attn.wv.h0"]
    wo = w["l2.attn.wo"]
    for i in range(vocab.n_objects):
        wv[layout.obj0 + i, i] = 1.0
        wo[i, layout.obj0 + i] = MIX_WRITE

    # ---- layer 3: scrambler (offset layer) ---------------------------------
    _marker_affinity_head(w, layout, layer=3, head=0)
    wv = w["l3.attn.wv.h0"]
    wo = w["l3.attn.wo"]
    for i in range(vocab.n_subjects):
        wv[layout.sid0 + i, i] = 1.0
        wo[i, layout.junk_dim(layout.junk_a_of(i))] += TILT_WRITE
        wo[i, layout.junk_dim(layout.junk_b_of(i))] += TILT_WRITE
    col_c0, col_p3 = vocab.n_subjects, vocab.n_subjects + 1
    wv[layout.c0, col_c0] = 1.0
    wv[layout.p3, col_p3] = 1.0
    for j in range(layout.half_junk):          # region A bump from the constant
        wo[col_c0, layout.junk_dim(j)] = BUMP_WRITE
    for j in range(layout.half_junk):          # position-3 marker flips A -> B
        wo[col_p3, layout.junk_dim(j)] = -FLIP_WRITE
        wo[col_p3, layout.junk_dim(layout.half_junk + j)] = FLIP_WRITE

    # ---- layer 4: echo damper ----------------------------------------------
    _marker_affinity_head(w, layout, layer=4, head=0)
    w["l4.attn.wv.h0"][layout.c0, 0] = 1.0
    w["l4.attn.wo"][0, layout.m_subj] = -DAMP_WRITE

    # layer 5 stays exactly inert: zero value/output/ffn weights mean the
    # whole block contributes nothing and skipping it is bit-exact
    return TinyTransformer(config, w), layout


# ---------------------------------------------------------------------------
# fusion parameters
# ---------------------------------------------------------------------------

def build_copier_params(layout: FixtureLayout) -> DsspParams:
    """Fusion block that averages the object evidence of the external rows.

    Queries and keys are zero, so the cross-attention over the external
    stream is uniform: the update direction is the mean object code of the
    (possibly reweighted) document rows.  Filtering scales document rows
    before the mean, so whichever rows survive dominate the direction, and
    the final normalisation amplifies that direction to a fixed write
    strength which the host readout decodes.
    """
    arrays = {name: np.ones(shape) if name == "ln_gain" else np.zeros(shape)
              for name, shape in param_shapes(layout.d_model, 2 * layout.vocab.n_objects).items()}

    for i in range(layout.vocab.n_objects):
        dim = layout.obj0 + i
        arrays["wv_c"][dim, dim] = 1.0
        # signed pass-through of the object block: relu(u) - relu(-u) = u
        arrays["w_f"][dim, 2 * i] = 1.0
        arrays["w_f"][dim, 2 * i + 1] = -1.0
        arrays["w_o"][2 * i, dim] = 1.0
        arrays["w_o"][2 * i + 1, dim] = -1.0
    return DsspParams(top_t=COPIER_TOP_T, **arrays)


def build_training_init(layout: FixtureLayout, seed: int = 0) -> DsspParams:
    """Miscalibrated warm start for the fusion-training demonstration.

    The returned parameters are the evidence copier with two planted
    defects: the output bias confidently writes the blank-answer direction
    (a strong, uninformative prediction that every record contradicts), and
    the output normalisation gain overshoots the useful write strength.
    Attention projections carry seeded jitter so runs are seed-dependent
    but reproducible.  Early training is dominated by unlearning the
    spurious write — the answer term and both regularizers pull the same
    way — which is what makes the composite loss fall steeply even at the
    small published learning rate.
    """
    params = build_copier_params(layout)
    rng = np.random.default_rng(seed)
    for name in ("w_share", "wq_s", "wk_s", "wv_s", "wq_c", "wk_c"):
        arr = getattr(params, name)
        setattr(params, name, arr + TRAIN_INIT_NOISE * rng.standard_normal(arr.shape))
    params.b_o[0, layout.blank_dim] = TRAIN_INIT_SPUR
    params.ln_gain = params.ln_gain * TRAIN_INIT_OVERDRIVE
    return params


# ---------------------------------------------------------------------------
# fixture corpus
# ---------------------------------------------------------------------------

def fixture_dataset(n_records: int = 64, noise_rate: float = 1.0,
                    seed: int = 0) -> list[QARecord]:
    return make_conflict_dataset(n_records, fixture_vocab(), noise_rate, seed)
