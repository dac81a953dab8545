"""Paragraph-vector training over token documents.

Four architectures share one update machinery. At a token position with
sampled context half-width c (uniform in [1, window]):

* ``cbow``: hidden h = mean of input rows of the context tokens; the
  current token is the prediction target. Positions with no context are
  skipped. The document vector is not used.
* ``sg``: for each context token, h = input row of the current token and
  the context token is the target (one update per context token).
* ``dm``: h = mean of the document row and the context input rows; the
  current token is the target. With no context h is the document row
  alone, so single-token documents still train.
* ``dbow``: h = document row; every token of the document is a target in
  turn. Input word rows are never read or written.

Both objectives score h against a set of output rows with 0/1 labels,
with loss -sum_r log s(+-o_r.h) (+ for label 1, - for label 0). An SGD
step computes g_r = (label_r - s(o_r.h)) * alpha, moves each row o_r by
g_r * h and h by sum_r g_r * o_r. The objectives differ only in the rows:

* negative sampling: the target's row (label 1) and n noise rows (label
  0) drawn from the cumulative count^0.75 table through its guide table
  (a draw equal to the target is skipped; ``_negative_steps`` is that
  rule, for one step or many);
* hierarchical softmax: the inner nodes of the target's Huffman path,
  each labelled 1 - its code bit.

SGD applies the analytic gradients: output rows get their own gradient
terms; each row contributing to h receives grad_h scaled by
1/(number of contributors), the exact chain-rule share of the mean. The
learning rate decays linearly from alpha0 toward alpha_min = alpha0 / 10000
over the total scheduled token count (document granularity).

Training steps lanes in lockstep (``_train_lanes``). ``_batches`` cuts
each epoch's document permutation into batches of ``_LANES`` documents,
fewer once a batch holds ``_BATCH_TOKENS`` tokens, and a batch is planned
in bulk (``_plan``): the window widths of all its documents in one draw,
then every step's context, contributor count and scored rows, from the
same random stream (all the noise draws in one call). A plan gives every
step the objective's K slots of output rows (1 + n under negative
sampling, the longest Huffman path under hierarchical softmax) with the
count k of those it scores; the rest hold row 0 with label 0. Every
reader works on all K slots: a slot past k takes learning rate 0
(``_slot_rates``), so it moves no row, and is left out of the probe's
loss. So the SGD is that over each step's k rows, and every step of a
model has the same shape. ``_hidden`` builds the steps' h from the plan,
for the lanes a step at a time and for ``loss_estimate`` a chunk at a
time. ``_train_lanes`` cuts the batch's steps into lanes of equal length,
at most ``_LANES`` of them plus one shorter piece per document (a long
document gives several lanes, which share its row of D), longest first,
and ``_step_lanes`` runs them. Its step p runs the p-th step of every lane
that has one, in one gradient call: it reads D, W and O as step p - 1 left
them, then adds all of its updates, repeated rows summed in lane order,
one ``np.add.at`` per matrix over the flat indices of the elements it
writes (``_add_rows``; a padded slot adds +-0 to row 0 of O). So each lane
sees its own earlier steps but not the other lanes' step p, a synchronous
form of HogBatch minibatching (Ji et al. 2016), and training stays
bit-deterministic for a fixed seed. One lane is the sequential walk. A
context slot outside the window reads a row of -0.0 appended to W, which
changes no sum (or one of +0.0, so that an empty context sums to +0.0),
and the context sums of a step are one gather and one sum over its slots.

Inference is that training step for one lane on a frozen model:
``infer_docs`` trains a fresh document row with W and O left unwritten,
on the same learning-rate schedule (``_alpha``), and plans its passes in
the batches ``_batches`` cuts. With W and O frozen, there and in
``loss_estimate``, a chunk of steps is gathered at once
(``_Plan.chunks``). Inference gathers the chunk's context sums and
output rows; its loop carries the document row, which every step
changes, and so builds h itself. ``loss_estimate`` has no such row to
carry: it scores a chunk's steps at once.

The tests keep two references, each matched bit for bit: a per-position
loop that draws and steps one target at a time (one lane; the probe and
inference draw a batch's widths at once), and a lockstep loop (lanes).
Training runs on a single thread; ``workers`` must be 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_integer
from .tokenizer import (
    TokenizedDoc,
    TokenizerConfig,
    Vocabulary,
    guide_table,
    subsample_filter,
    subsample_keep_probs,
)

__all__ = [
    "ARCHITECTURES",
    "DOC_ARCHITECTURES",
    "OBJECTIVES",
    "MAX_NEGATIVE",
    "TrainConfig",
    "EmbeddingModel",
    "init_model",
    "train",
    "objective_gradient",
    "loss_estimate",
    "infer_docs",
]

ARCHITECTURES = ("dm", "dbow", "cbow", "sg")
#: The architectures that train document vectors (cbow and sg leave D as drawn).
DOC_ARCHITECTURES = ("dm", "dbow")
OBJECTIVES = ("ns", "hs")

#: Sigmoid inputs are clamped here; s(30) is 1 within float32 resolution.
_MAX_EXP = 30.0
# The step's float32 constants, as (read-only) arrays: numpy takes those
# fastest.
_CLIP_LO, _CLIP_HI, _ONE = (np.array(v, dtype=np.float32)
                            for v in (-_MAX_EXP, _MAX_EXP, 1.0))
for _const in (_CLIP_LO, _CLIP_HI, _ONE):
    _const.setflags(write=False)

#: The largest integer settings a model file holds (u32 counts, a u64 seed).
_U32_MAX, _U64_MAX = 2**32 - 1, 2**64 - 1

#: The most noise rows a negative-sampling step draws. A plan holds 1 + n
#: output rows per step, so the u32 field of a model file alone would let
#: a file ask training or inference for terabytes.
MAX_NEGATIVE = 256

#: Lanes trained in lockstep (``_train_lanes``), and the most documents a
#: batch of them holds; 1 trains documents one by one.
_LANES = 64

#: Tokens that close a batch before it holds ``_LANES`` documents; bounds
#: the memory of its plan to about that of the longest document's.
_BATCH_TOKENS = 1 << 12

#: Floats a reader with W and O frozen gathers at once (context rows and
#: output rows of a chunk of steps, ``_Plan.chunks``): inference and the
#: loss probe, which also holds the chunk's output rows in float64. Bounds
#: their transient memory for long documents.
_GATHER_CELLS = 1 << 15


@dataclass(frozen=True)
class TrainConfig:
    architecture: str = "dm"
    dim: int = 250
    window: int = 5
    objective: str = "ns"
    negative: int = 5
    subsample_t: float = 0.0
    epochs: int = 20
    alpha0: float = 0.025
    seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")
        check_integer("dim", self.dim, 1, _U32_MAX)
        check_integer("window", self.window, 1, _U32_MAX)
        check_integer("negative sample count", self.negative,
                      1 if self.objective == "ns" else 0, MAX_NEGATIVE)
        if not 0 <= self.subsample_t < math.inf:
            raise ConfigError("subsample_t must be finite and nonnegative")
        check_integer("epochs", self.epochs, 1, _U32_MAX)
        if not 0 < self.alpha0 <= 1.0:
            raise ConfigError("alpha0 must be in (0, 1]")
        check_integer("seed", self.seed, 0, _U64_MAX)
        if self.workers != 1:
            raise ConfigError("workers must be 1 (training is single-threaded)")

    @property
    def alpha_min(self) -> float:
        """The learning rate that training and inference decay toward."""
        return self.alpha0 / 10_000.0


@dataclass
class EmbeddingModel:
    """Document matrix D, input word matrix W, output parameters O.

    O has one row per token under negative sampling and one per Huffman
    inner node (V - 1 rows) under hierarchical softmax.
    """

    D: np.ndarray
    W: np.ndarray
    O: np.ndarray
    vocab: Vocabulary
    config: TrainConfig
    doc_ids: list[str] | None = None
    tokenizer: TokenizerConfig | None = None

    @property
    def n_docs(self) -> int:
        return self.D.shape[0]

    @property
    def dim(self) -> int:
        return self.D.shape[1]


def init_model(
    vocab: Vocabulary,
    n_docs: int,
    cfg: TrainConfig,
    doc_ids: list[str] | None = None,
    tokenizer: TokenizerConfig | None = None,
) -> EmbeddingModel:
    """Fresh model: D and W uniform in [-0.5/dim, 0.5/dim), O all zeros.

    Deterministic for a fixed cfg.seed (D is drawn before W).
    """
    V = len(vocab)
    if V < 1:
        raise DataError("vocabulary is empty")
    if cfg.objective == "hs" and V < 2:
        raise DataError("hierarchical softmax needs a vocabulary of >= 2 tokens")
    check_integer("n_docs", n_docs)
    if n_docs < 1:
        raise DataError("need at least one document")
    rng = np.random.default_rng(cfg.seed)
    D = _uniform_rows(rng, n_docs, cfg.dim)
    W = _uniform_rows(rng, V, cfg.dim)
    O = np.zeros((V if cfg.objective == "ns" else V - 1, cfg.dim), dtype=np.float32)
    return EmbeddingModel(D, W, O, vocab, cfg, doc_ids, tokenizer)


def _uniform_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n float32 rows uniform in [-0.5/dim, 0.5/dim): the draws of one
    (n, dim) call, made 2^16 at a time, so no float64 copy of the rows is
    held. Rows too many for numpy or the machine are a ``ConfigError``."""
    bound = 0.5 / dim
    try:
        M = np.empty((n, dim), dtype=np.float32)
    except (ValueError, MemoryError):
        raise ConfigError(f"cannot allocate {n} rows of dim {dim}") from None
    for part in np.split(M.reshape(-1), range(1 << 16, n * dim, 1 << 16)):
        part[...] = rng.uniform(-bound, bound, part.size)
    return M


def _negative_steps(table, n, targets, rng, guide=None):
    """The rows scored at each of ``targets`` under negative sampling.

    Returns ``(rows, k)``: step s scores ``rows[s, :k[s]]`` of its (1 + n)
    row slots, its target and then the noise rows drawn from the cumulative
    ``table``. One ``rng.random`` call draws n for every step, in step
    order, and a draw equal to its step's target is skipped (as word2vec
    does), so a step can score fewer rows: its kept draws come first, in
    draw order, and its unused slots hold row 0. A uniform u draws
    ``searchsorted(table, u, 'right')``, looked up in the guide table of
    ``table`` (``tokenizer.guide_table``; derived when ``guide`` is None)
    and searched for only where its bucket holds a table entry.
    """
    if guide is None:
        guide = guide_table(table)
    u = rng.random((len(targets), n))
    draws = guide.take((u * len(guide)).astype(np.intp))  # exact: len is 2**m
    search = draws < 0
    draws[search] = np.searchsorted(table, u[search], side="right")
    keep = draws != targets[:, None]
    kept = keep.sum(axis=1)
    rows = np.zeros((len(targets), 1 + n), dtype=np.intp)
    rows[:, 0] = targets
    rows[:, 1:][np.arange(n) < kept[:, None]] = draws[keep]
    return rows, 1 + kept


class _Objective:
    """The output objective (rows and 0/1 labels, see above) bound to O."""

    def __init__(self, O: np.ndarray, vocab: Vocabulary, cfg: TrainConfig):
        self.O = O
        self.hs = cfg.objective == "hs"
        if self.hs:
            huffman = vocab.huffman
            self.paths, self.path_labels, self.path_lengths = (
                huffman.path_table, huffman.target_table, huffman.lengths)
        else:
            self.table, self.guide, self.n = vocab.sampling_table, vocab.guide, cfg.negative

    def scored_steps(self, targets, rng):
        """The output rows scored at each of ``targets`` in turn, their labels
        and their counts.

        Returns ``(rows, labels, k)``: step s scores ``rows[s, :k[s]]`` with
        the float32 labels ``labels[s, :k[s]]``. Every step has K slots, the
        most rows the objective scores: 1 + n under negative sampling, the
        longest Huffman path under hierarchical softmax. Unused slots hold
        row 0 with label 0. Noise rows are drawn from ``rng`` by
        ``_negative_steps``.
        """
        if self.hs:
            return (self.paths[targets], self.path_labels[targets],
                    self.path_lengths[targets])
        rows, k = _negative_steps(self.table, self.n, targets, rng, self.guide)
        labels = np.zeros(rows.shape, dtype=np.float32)
        labels[:, 0] = 1.0  # each step's first row is its target
        return rows, labels, k

    @staticmethod
    def gradient(h, vecs, labels, alpha):
        """``(g, e)`` at h over the rows ``vecs`` of a step's K slots.

        g = (labels - s(vecs @ h)) * alpha and e = g @ vecs = -alpha * grad_h,
        with s(x) = 1 / (1 + exp(-clip(x, -30, 30))) in float32, computed
        in place on the scores; ``alpha`` is float32 and per slot, 0 in a
        slot the step does not score (``_slot_rates``), whose g is then 0.
        One step has h of shape (d,), ``vecs`` (K, d), labels and alpha
        (K,). Lanes stack A steps: h (A, d), ``vecs`` (A, K, d), labels and
        alpha (A, K). Each lane's products are those of its own step, bit
        for bit (one BLAS gemv per lane either way).
        """
        if vecs.ndim == 2:
            g = vecs.dot(h)
        else:
            g = np.matmul(vecs, h[:, :, None])[:, :, 0]
        np.maximum(g, _CLIP_LO, out=g)
        np.minimum(g, _CLIP_HI, out=g)
        np.negative(g, out=g)
        np.exp(g, out=g)
        g += _ONE
        np.reciprocal(g, out=g)  # 1 / x, correctly rounded
        np.subtract(labels, g, out=g)
        g *= alpha
        if vecs.ndim == 2:
            return g, g.dot(vecs)
        return g, np.matmul(g[:, None, :], vecs)[:, 0, :]


def _loss_terms(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log s(+-x) per row: +x where the label is 1, -x where it is 0."""
    return np.logaddexp(0.0, (1.0 - 2.0 * labels) * x)


class _Plan(NamedTuple):
    """One pass over some documents, drawn before it runs (see ``_plan``).

    Step s belongs to document ``doc[s]``. It has the objective's K slots
    of output rows ``rows[s]``, with labels alike, and scores the first
    ``k[s]`` (see ``_Objective.scored_steps``); the others hold row 0 and
    label 0, and its readers give them rate 0 (``_slot_rates``). Its hidden
    vector h is made from its contributing rows (``_hidden``): the document
    row (dbow), the word row ``words[s]`` (sg), or the mean of the context
    word rows ``ctx[s]`` (cbow) and of those and the document row (dm),
    ``n[s]`` (float32) rows in all. A context slot outside the window holds
    a row that readers append to W (``_with_sentinel``): -1, the -0.0 row,
    or -2, the +0.0 row, in an empty context. The steps of each document
    are consecutive and in order.
    """

    doc: np.ndarray
    words: np.ndarray | None
    ctx: np.ndarray | None
    n: np.ndarray | None
    rows: np.ndarray
    labels: np.ndarray
    k: np.ndarray

    def chunks(self, d):
        """``(s0, s1)`` step ranges for a reader with W and O frozen, each
        gathering about ``_GATHER_CELLS`` floats of context and output rows
        of width d."""
        width = (0 if self.ctx is None else self.ctx.shape[1]) + self.rows.shape[1] + 1
        step = max(1, _GATHER_CELLS // (width * d))
        S = len(self.k)
        return [(s0, min(S, s0 + step)) for s0 in range(0, S, step)]


def _slot_rates(alphas, p):
    """Each step's float32 learning rate in each of its K slots: its
    document's rate ``alphas[p.doc[s]]`` in the first k, which it scores,
    and 0 in the rest, so that those move no row."""
    live = np.arange(p.rows.shape[1]) < p.k[:, None]
    return np.asarray(alphas, dtype=np.float32)[p.doc, None] * live


def _plan(arch, docs, window, obj, rng):
    """Draw one pass over each token array in ``docs``: the window widths,
    then every step's rows.

    ``rng`` is consumed as a position loop over one document that drew at
    each step would consume it: the widths first (not for dbow), then each
    step's negative samples (``_Objective.scored_steps``). Several documents
    take all their widths in one call, then all their steps' samples in
    one, in document order. Positions with no context are no cbow step; sg
    has one step per (position, context position) pair.
    """
    lengths = [len(t) for t in docs]
    # positions as intp, the index type gathers take fastest, with each
    # one's document and that document's bounds
    toks = np.concatenate(docs, dtype=np.intp)
    doc = np.repeat(np.arange(len(docs)), lengths)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)[:, None]
    end = start + np.repeat(lengths, lengths)[:, None]
    words = ctx = n = None
    targets = toks
    if arch != "dbow":
        cs = rng.integers(1, window + 1, size=len(toks))
        w = min(window, max(lengths) - 1)  # wider offsets never land in a document
        offs = np.concatenate((np.arange(-w, 0), np.arange(1, w + 1)))
        at = np.arange(len(toks))[:, None] + offs
        valid = (np.abs(offs) <= cs[:, None]) & (at >= start) & (at < end)
        count = valid.sum(axis=1)
        ctx = np.where(valid, toks.take(at, mode="clip"),
                       np.where(count > 0, -1, -2)[:, None])
        if arch == "cbow":  # positions with no context are skipped
            has = count > 0
            ctx, count, targets, doc = ctx[has], count[has], toks[has], doc[has]
        if arch == "sg":
            pos, slot = np.nonzero(valid)
            words, targets, doc = toks[pos], ctx[pos, slot], doc[pos]
            ctx = None
        else:
            n = (count + (arch == "dm")).astype(np.float32)
    return _Plan(doc, words, ctx, n, *obj.scored_steps(targets, rng))


def _with_sentinel(W):
    """W's rows, then a row of +0.0 (-2) and one of -0.0 (-1), which the
    context slots outside the window read (``_Plan``)."""
    Wx = np.empty((len(W) + 2, W.shape[1]), dtype=W.dtype)
    Wx[:-2] = W
    Wx[-2] = 0.0
    Wx[-1] = -0.0
    return Wx


def _context_sums(Wx, ctx):
    """``W[c[c >= 0]].sum(axis=0)`` for each row c of ``ctx``, bit for bit,
    given Wx = ``_with_sentinel(W)``.

    The gathered rows are summed slot by slot: the -0.0 that a slot outside
    the window reads changes no sum, and an empty context sums the +0.0 of
    its slots.
    """
    if Wx.shape[1] == 1:  # numpy sums 8 or more one-element rows pairwise
        return np.array([Wx[c[c >= 0]].sum(axis=0) for c in ctx],
                        dtype=Wx.dtype).reshape(len(ctx), 1)
    return Wx.take(ctx.T, axis=0).sum(axis=0)


def _hidden(arch, D, Wx, p, tag, s0, s1):
    """The hidden vectors h (float32) of the plan's steps s0..s1-1, step s
    reading the row D[tag[s]]: the word row (sg), the document row (dbow),
    or the mean of the context word rows (cbow) and of those and the
    document row (dm). Wx is ``_with_sentinel(W)``."""
    if p.words is not None:
        return Wx.take(p.words[s0:s1], axis=0)
    if p.ctx is None:
        return D.take(tag[s0:s1], axis=0)
    h = _context_sums(Wx, p.ctx[s0:s1])
    if arch == "dm":
        h += D.take(tag[s0:s1], axis=0)
    h /= p.n[s0:s1, None]
    return h


def _train_lanes(arch, D, Wx, obj, docs, tags, alphas, window, rng):
    """One training pass over each token array in ``docs``, in lockstep.

    Document i updates the row D[tags[i]] at learning rate ``alphas[i]``.
    The passes are planned together (``_plan``), S steps in all, and each
    document's steps are cut into lanes of L = ceil(S / ``_LANES``) steps
    (the last one shorter). Lanes are sorted by step count, longest first
    (ties in document, then step order), and ``_step_lanes`` runs them.
    """
    p = _plan(arch, docs, window, obj, rng)
    S = len(p.doc)
    if S == 0:
        return
    # the lanes, by their first step, then in step-major order: step 0 of
    # every lane, then step 1 of those that have one, ...
    L = -(-S // _LANES)
    counts = np.bincount(p.doc, minlength=len(docs))
    pieces = -(-counts // L)
    lane_doc = np.repeat(np.arange(len(docs)), pieces)
    piece = L * (np.arange(len(lane_doc)) - np.repeat(np.cumsum(pieces) - pieces, pieces))
    first = (np.cumsum(counts) - counts)[lane_doc] + piece
    length = np.minimum(L, counts[lane_doc] - piece)
    lanes = np.argsort(-length, kind="stable")
    depth = np.arange(length[lanes[0]])[:, None]
    active = depth < length[lanes]
    order = (first[lanes] + depth)[active]
    bounds = [0, *np.cumsum(active.sum(axis=1)).tolist()]

    fields = list(p)
    del p  # each of the plan's arrays is freed as its reordered copy is made
    for i, a in enumerate(fields):
        fields[i] = None if a is None else a[order]
    p = _Plan(*fields)
    _step_lanes(arch, D, Wx, obj, p, bounds, np.asarray(tags, dtype=np.intp)[p.doc],
                _slot_rates(alphas, p))


def _step_lanes(arch, D, Wx, obj, p, bounds, tag, rates):
    """Run a step-major plan's lanes in lockstep: step i runs plan steps
    bounds[i]..bounds[i + 1]-1, which read D, W and O as step i - 1 left
    them and then add their writes, each row's in lane order, as
    ``np.add.at`` sums them. Plan step s scores its slots at the rates
    ``rates[s]`` and reads and writes D[tag[s]]; W is the first V rows of
    Wx = ``_with_sentinel(W)``."""
    rows, labels = p.rows, p.labels
    last = np.subtract(bounds[1:], 1)  # each step's last lane
    O, gradient = obj.O, obj.gradient
    K, d = rows.shape[1], O.shape[1]
    # each matrix's writes go to its flat view (``train`` keeps D, Wx and O
    # C-contiguous), row r starting at element r * d (``_add_rows``); every
    # slot writes O, a padded one adding +-0 to row 0
    writes = [(O, rows.reshape(-1) * d, [K * b for b in bounds])]
    if p.ctx is not None:
        valid = p.ctx >= 0
        width = valid.sum(axis=1)
        writes.append((Wx, p.ctx[valid] * d, [0, *np.cumsum(width)[last].tolist()]))
    elif p.words is not None:
        writes.append((Wx, p.words * d, bounds))
    if arch in DOC_ARCHITECTURES:
        writes.append((D, tag * d, bounds))
    writes = [(M.reshape(-1), starts, cuts) for M, starts, cuts in writes]
    cols = np.tile(np.arange(d), max(max(np.diff(cuts)) for _, _, cuts in writes))
    for s, (b0, b1) in enumerate(zip(bounds, bounds[1:])):
        h = _hidden(arch, D, Wx, p, tag, b0, b1)
        g, e = gradient(h, O.take(rows[b0:b1], axis=0), labels[b0:b1], rates[b0:b1])
        vals = [g[:, :, None] * h[:, None, :]]
        if p.ctx is not None:
            e = e / p.n[b0:b1, None]
            vals.append(np.repeat(e, width[b0:b1], axis=0))
        elif p.words is not None:
            vals.append(e)
        if arch in DOC_ARCHITECTURES:
            vals.append(e)
        for (flat, at, cuts), v in zip(writes, vals):
            _add_rows(flat, at[cuts[s] : cuts[s + 1]], cols, v)


def _add_rows(flat, at, cols, vals):
    """M[ids] += vals as ``np.add.at(M, ids, vals)`` adds them, bit for bit,
    given M's flat view, ``at`` = ids * d and ``cols`` = arange(d) repeated
    at least len(ids) times: each element's values in entry order, on
    numpy's fast path for 1-D indices."""
    d = vals.shape[-1]
    np.add.at(flat, at.repeat(d) + cols[: len(at) * d], vals.ravel())


def _check_docs(model: EmbeddingModel, docs: Sequence[TokenizedDoc]) -> None:
    if not docs:
        raise DataError("no documents to train on")
    V = len(model.vocab)
    for doc in docs:
        if len(doc.tokens) == 0:
            raise DataError(f"document with tag {doc.doc_tag} is empty")
        if doc.doc_tag < 0 or doc.doc_tag >= model.n_docs:
            raise DataError(f"doc_tag {doc.doc_tag} out of range [0, {model.n_docs})")
        if int(doc.tokens.max()) >= V or int(doc.tokens.min()) < 0:
            raise DataError(f"document {doc.doc_tag} has token ids outside [0, {V})")


def _batches(items):
    """The batches of ``(tokens, ...)`` items that training, the loss probe
    and inference plan at once, as columns: ``_LANES`` items, or fewer once
    they hold ``_BATCH_TOKENS`` tokens. An item is pulled only when its
    batch needs it, after the batches before it have run."""
    batch, held = [], 0
    for item in items:
        batch.append(item)
        held += len(item[0])
        if len(batch) == _LANES or held >= _BATCH_TOKENS:
            yield tuple(zip(*batch))
            batch, held = [], 0
    if batch:
        yield tuple(zip(*batch))


def _alpha(cfg, processed, total):
    """The learning rate once ``processed`` of ``total`` scheduled tokens
    are done: alpha0 decaying linearly toward alpha_min."""
    return cfg.alpha0 + (cfg.alpha_min - cfg.alpha0) * min(1.0, processed / total)


def train(model: EmbeddingModel, docs: Sequence[TokenizedDoc]) -> EmbeddingModel:
    """Run model.config.epochs SGD passes over ``docs``, updating the model
    in place.

    Document order is reshuffled per epoch from the seeded generator and
    cut into batches (``_batches``), each trained in lockstep
    (``_train_lanes``); documents that subsampling empties are left out.
    """
    cfg = model.config
    _check_docs(model, docs)

    # the lanes write through flat views, which only a C-contiguous matrix
    # has: others train as C-contiguous copies, and W in the first rows of
    # ``_with_sentinel(W)``, copied back at the end
    D, O = (np.ascontiguousarray(M) for M in (model.D, model.O))
    Wx = _with_sentinel(model.W)
    obj = _Objective(O, model.vocab, cfg)
    keep = (subsample_keep_probs(model.vocab, cfg.subsample_t)
            if cfg.subsample_t > 0 else None)
    tokens = sum(len(d.tokens) for d in docs)
    total = cfg.epochs * tokens
    rng = np.random.default_rng([cfg.seed, 1])

    def epoch(processed):
        """The epoch's documents, subsampled, with their tags and rates."""
        for di in rng.permutation(len(docs)).tolist():
            doc = docs[di]
            alpha = _alpha(cfg, processed, total)
            processed += len(doc.tokens)
            toks = doc.tokens if keep is None else subsample_filter(doc.tokens, keep, rng)
            if len(toks):
                yield toks, doc.doc_tag, alpha

    for e in range(cfg.epochs):
        for batch in _batches(epoch(e * tokens)):
            _train_lanes(cfg.architecture, D, Wx, obj, *batch, cfg.window, rng)
    for M, trained in ((model.D, D), (model.W, Wx[:-2]), (model.O, O)):
        if trained is not M:
            M[...] = trained
    return model


def objective_gradient(
    h: np.ndarray,
    target: int,
    model: EmbeddingModel,
    rng: np.random.Generator | None = None,
    negatives: np.ndarray | None = None,
) -> tuple[float, np.ndarray, dict[int, np.ndarray]]:
    """Loss and analytic gradients of the objective at (h, target).

    Returns ``(loss, grad_h, row_grads)`` in float64, where ``row_grads``
    maps output-row index to the loss gradient with respect to that row
    (an SGD step subtracts alpha times these). The rows and labels are
    the ones training scores (``_Objective.scored_steps``, cut to the
    step's k); only those rows are read, in float64.
    Negative-sampling draws come from ``rng`` unless ``negatives`` are
    supplied pre-drawn; the result is pure given the generator state.
    """
    h = np.asarray(h, dtype=np.float64)
    obj = _Objective(model.O, model.vocab, model.config)
    if obj.hs or negatives is None:
        if not obj.hs and rng is None:
            raise ConfigError("negative sampling needs rng or pre-drawn negatives")
        rows, labels, k = obj.scored_steps(np.array([target]), rng)
        rows, labels = rows[0, : k[0]], labels[0, : k[0]]
    else:  # the target's row, then the given noise rows
        rows = np.append(target, negatives).astype(np.intp)
        labels = (np.arange(len(rows)) == 0).astype(np.float32)
    vecs = model.O[rows].astype(np.float64)
    x = vecs @ h
    coeff = 1.0 / (1.0 + np.exp(-x)) - labels  # d loss / d x
    row_grads: dict[int, np.ndarray] = {}
    for r, c in zip(rows.tolist(), coeff):
        grad = c * h
        row_grads[r] = row_grads[r] + grad if r in row_grads else grad
    return float(_loss_terms(x, labels).sum()), coeff @ vecs, row_grads


def loss_estimate(
    model: EmbeddingModel, docs: Sequence[TokenizedDoc], probe_seed: int = 0
) -> float:
    """Mean objective loss per update over ``docs`` without any updates.

    Documents are walked in the given order, in the batches training cuts
    (``_batches``); window widths and negative draws come from a generator
    seeded with ``probe_seed``, so repeated calls on an unchanged model
    return the identical value. Each batch is planned at once (``_plan``)
    and scored a chunk at a time (``_Plan.chunks``): one stacked float64
    matmul over the steps' K slots and one row-wise sum with the terms past
    each step's k zeroed, which give each step the bits of its own gemv
    and sum over K slots. While O is all zero (an untrained model) every
    scored row costs ln 2 whatever the (finite) h, so no h is built: a
    step's loss is that row-wise sum for its k, from a table of the K + 1
    counts. The step losses are then added in walk order.
    """
    check_integer("probe_seed", probe_seed)
    _check_docs(model, docs)
    cfg, D, O = model.config, model.D, model.O
    Wx = _with_sentinel(model.W)
    obj = _Objective(O, model.vocab, cfg)
    rng = np.random.default_rng([probe_seed, 5])
    untrained = not O.any()

    def step_losses(p, tags):
        """The plan's step losses, a chunk at a time."""
        K = p.rows.shape[1]
        if untrained:  # x = 0 in every slot; row k of ``live`` scores k slots
            live = np.arange(K) < np.arange(K + 1)[:, None]
            yield (_loss_terms(np.zeros(K), np.zeros(K)) * live).sum(axis=1)[p.k]
            return
        tag = np.asarray(tags, dtype=np.intp)[p.doc]
        live = _slot_rates([1.0] * len(tags), p)  # 1 in the scored slots, else 0
        for s0, s1 in p.chunks(model.dim):
            h = _hidden(cfg.architecture, D, Wx, p, tag, s0, s1).astype(np.float64)
            x = np.matmul(O.take(p.rows[s0:s1], axis=0).astype(np.float64),
                          h[:, :, None])[:, :, 0]
            yield (_loss_terms(x, p.labels[s0:s1]) * live[s0:s1]).sum(axis=1)

    total, count = 0.0, 0
    for toks, tags in _batches((doc.tokens, doc.doc_tag) for doc in docs):
        p = _plan(cfg.architecture, toks, cfg.window, obj, rng)
        for losses in step_losses(p, tags):
            for loss in losses.tolist():
                total += loss
        count += len(p.k)
    if count == 0:
        raise DataError("no scoreable positions in the probe documents")
    return total / count


def infer_docs(
    model: EmbeddingModel,
    token_lists: Sequence[Sequence[int] | np.ndarray],
    infer_epochs: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Learn one new document vector from the given token documents.

    The vector is a fresh document row trained by the training step of
    one lane with W and O frozen, for ``infer_epochs`` passes over the
    token lists (default: twice the training epochs) at the training
    learning-rate schedule (``_alpha``). The passes are planned in
    training's batches (``_batches``) and walked in order, a chunk at a time.
    Out-of-vocabulary ids are dropped; a token list that is not flat, or
    holds ids that are not integers (bools among them), is a ``DataError``;
    ``infer_epochs`` below 1 or a negative ``seed`` is a ``ConfigError``.
    Several documents (one sequence's phase readings) share the one vector.
    Only document architectures (dm, dbow) support inference.
    """
    cfg = model.config
    if cfg.architecture not in DOC_ARCHITECTURES:
        raise ConfigError(
            f"architecture {cfg.architecture!r} has no document pathway to infer with"
        )
    if infer_epochs is None:
        infer_epochs = 2 * cfg.epochs
    check_integer("infer_epochs", infer_epochs, 1)
    check_integer("seed", seed)
    V = len(model.vocab)
    kept = []
    for i, tl in enumerate(token_lists):
        try:
            ids = np.asarray(tl)
        except ValueError:  # a ragged nested list
            raise DataError(f"token list {i} is not a flat list of ids") from None
        if ids.dtype.kind in "iu":  # numpy reads bools among ints as ints
            ok = (isinstance(tl, np.ndarray) or ids.ndim != 1
                  or {bool, np.bool_}.isdisjoint(map(type, tl)))
        else:  # and ids past the int64 range as objects or floats
            ok = not ids.size or all(
                isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                for t in np.asarray(tl, dtype=object).ravel())
        if not ok:
            raise DataError(f"token list {i} holds ids that are not integers")
        if ids.ndim != 1:
            raise DataError(f"token list {i} is not a flat list of ids")
        ids = ids[(ids >= 0) & (ids < V)].astype(np.int32)  # filtered before narrowing
        if len(ids):
            kept.append(ids)
    if not kept:
        raise DataError("no in-vocabulary tokens to infer from")

    rng = np.random.default_rng([seed, 3])
    doc = _uniform_rows(rng, 1, cfg.dim)[0]
    arch, Wx, O = cfg.architecture, _with_sentinel(model.W), model.O
    obj = _Objective(O, model.vocab, cfg)
    gradient = obj.gradient
    schedule = kept * infer_epochs  # the passes in order
    total = sum(len(t) for t in schedule)
    done = accumulate((len(t) for t in schedule), initial=0)  # tokens before each
    passes = ((t, _alpha(cfg, d, total)) for t, d in zip(schedule, done))
    for toks, alphas in _batches(passes):
        p = _plan(arch, toks, cfg.window, obj, rng)
        rates = _slot_rates(alphas, p)
        for s0, s1 in p.chunks(cfg.dim):
            steps = zip(O.take(p.rows[s0:s1], axis=0), p.labels[s0:s1], rates[s0:s1])
            if arch == "dbow":  # h is the document row
                for vecs, labels, a in steps:
                    doc += gradient(doc, vecs, labels, a)[1]
                continue
            sums = _context_sums(Wx, p.ctx[s0:s1])
            for (vecs, labels, a), ctx_sum, n in zip(steps, sums, p.n[s0:s1]):
                h = (ctx_sum + doc) / n
                doc += gradient(h, vecs, labels, a)[1] / n
    return doc
