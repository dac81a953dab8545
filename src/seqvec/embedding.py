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
  0) drawn from the cumulative count^0.75 table (draws equal to the
  target are redrawn up to 16 times, then skipped; ``_negative_steps``
  is that rule, for one step or many);
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
same random stream (draws that hit their target are replayed one step at
a time). A plan gives every step the objective's K slots of output rows
(1 + n under negative sampling, the longest Huffman path under
hierarchical softmax) with the count of those it scores; the rest hold
row 0 with label 0. ``_hidden`` builds the steps' h from the plan, for
the lanes a step at a time and for ``loss_estimate`` a chunk at a time.
The batch's steps are then cut into lanes of equal length, at
most ``_LANES`` of them plus one shorter piece per document; a long
document gives several lanes, which share its row of D. Lanes run
longest first. Step p runs the p-th step of every lane that has one: it
reads D, W and O as step p - 1 left them, then adds all of its updates,
repeated rows summed in lane order, one ``np.add.at`` per matrix over
the flat indices of the elements it writes (``_add_rows``). So each
lane sees its own earlier steps but not the other lanes' step p, a
synchronous form of HogBatch minibatching (Ji et al. 2016), and training
stays bit-deterministic for a fixed seed. One lane is the sequential
walk.

Inference is that training step for one lane on a frozen model:
``infer_docs`` runs ``_frozen_pass`` on a fresh one-row D with W and O
left unwritten, on the same learning-rate schedule (``_alpha``). With W
and O frozen, there and in ``loss_estimate``, a chunk of steps is
gathered at once (``_Plan.chunks``). The frozen pass gathers the chunk's
context sums and output rows; its loop carries the document row, which
every step changes, and so builds h itself. ``loss_estimate`` has no such
row to carry: it plans the batches training cuts (``_batches``) and
scores a chunk's steps at once.

The tests keep two references: a per-position loop that draws and steps
one target at a time, which one lane and the frozen passes match bit for
bit, and a lockstep loop, which several lanes match bit for bit.
Training runs on a single thread; ``workers`` must be 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .tokenizer import (
    TokenizedDoc,
    TokenizerConfig,
    Vocabulary,
    subsample_keep_probs,
)

__all__ = [
    "ARCHITECTURES",
    "DOC_ARCHITECTURES",
    "OBJECTIVES",
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

#: Steps ``_negative_steps`` checks at once for a draw that hits its target.
_HIT_SCAN = 256

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
        if self.dim < 1:
            raise ConfigError("dim must be positive")
        if self.window < 1:
            raise ConfigError("window must be positive")
        if self.objective == "ns" and self.negative < 1:
            raise ConfigError("negative sample count must be >= 1")
        if not 0 <= self.subsample_t < math.inf:
            raise ConfigError("subsample_t must be finite and nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if not 0 < self.alpha0 <= 1.0:
            raise ConfigError("alpha0 must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        for name in ("dim", "window", "negative", "epochs"):
            if getattr(self, name) > _U32_MAX:
                raise ConfigError(f"{name} must be at most {_U32_MAX}, the model "
                                  "file's limit")
        if self.seed > _U64_MAX:
            raise ConfigError(f"seed must be at most {_U64_MAX}, the model file's limit")
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
    if n_docs < 1:
        raise DataError("need at least one document")
    rng = np.random.default_rng(cfg.seed)
    D = _uniform_rows(rng, n_docs, cfg.dim)
    W = _uniform_rows(rng, V, cfg.dim)
    O = np.zeros((V if cfg.objective == "ns" else V - 1, cfg.dim), dtype=np.float32)
    return EmbeddingModel(D, W, O, vocab, cfg, doc_ids, tokenizer)


def _uniform_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n float32 rows uniform in [-0.5/dim, 0.5/dim)."""
    bound = 0.5 / dim
    return rng.uniform(-bound, bound, (n, dim)).astype(np.float32)


def draw_negatives(
    rng: np.random.Generator, table: np.ndarray, target: int, n: int
) -> np.ndarray:
    """n indices from the cumulative sampling table, avoiding ``target``.

    The one-step case of ``_negative_steps``: a draw that hits the target
    is redrawn up to 16 times and skipped if still colliding, so the
    result can be shorter than n.
    """
    rows, k = _negative_steps(table, n, np.array([target]), rng)
    return rows[0, 1 : k[0]]


def _negative_steps(table, n, targets, rng):
    """The rows scored at each of ``targets`` under negative sampling.

    Returns ``(rows, k)``: step s scores ``rows[s, :k[s]]`` of its (1 + n)
    row slots, its target and then the noise rows drawn from the cumulative
    ``table``. A draw that hits the step's target is redrawn up to 16 times
    and skipped if still colliding, so a step can score fewer rows; its
    unused slots hold row 0. ``rng`` is consumed as a loop that drew at each
    step would consume it: n draws per step, then that step's redraws. All
    steps' draws are taken in one call and kept in bulk up to the next step
    with a draw that hits its target. That step alone is replayed, its
    redraws taken from the draws that follow, which are topped up from
    ``rng`` only when they run out; the steps after it take their draws
    shifted by as many. So the generator ends in the same state.
    """
    S = len(targets)
    buf = np.searchsorted(table, rng.random(n * S), side="right")
    rows = np.zeros((S, 1 + n), dtype=np.intp)
    rows[:, 0] = targets
    k = np.full(S, 1 + n, dtype=np.intp)
    if not (buf.reshape(S, n) == targets[:, None]).any():
        rows[:, 1:] = buf.reshape(S, n)
        return rows, k
    s = at = 0  # the next step, and where its draws start in buf
    while s < S:
        m = min(S - s, _HIT_SCAN)
        if at + n * m > len(buf):  # redraws used up the buffer's tail
            u = rng.random(at + n * m - len(buf))
            buf = np.concatenate((buf, np.searchsorted(table, u, side="right")))
        block = buf[at : at + n * m].reshape(m, n)
        hit = (block == targets[s : s + m, None]).any(axis=1)
        clear = int(hit.argmax()) if hit.any() else m
        rows[s : s + clear, 1:] = block[:clear]
        s, at = s + clear, at + n * clear
        if clear == m:
            continue
        t, draws, at = int(targets[s]), buf[at : at + n].tolist(), at + n
        noise = []
        for j in draws:
            attempts = 0
            while j == t and attempts < 16:
                if at == len(buf):
                    u = rng.random()
                    buf = np.append(buf, np.searchsorted(table, u, side="right"))
                j, at, attempts = int(buf[at]), at + 1, attempts + 1
            if j != t:
                noise.append(j)
        rows[s, 1 : 1 + len(noise)] = noise
        k[s] = 1 + len(noise)
        s += 1
    return rows, k


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
            self.table, self.n = vocab.sampling_table, cfg.negative

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
        rows, k = _negative_steps(self.table, self.n, targets, rng)
        labels = np.zeros(rows.shape, dtype=np.float32)
        labels[:, 0] = 1.0  # each step's first row is its target
        return rows, labels, k

    @staticmethod
    def gradient(h, vecs, labels, alpha):
        """``(g, e)`` at h over the scored rows ``vecs``.

        g = (labels - s(vecs @ h)) * alpha and e = g @ vecs = -alpha * grad_h,
        with s(x) = 1 / (1 + exp(-clip(x, -30, 30))) in float32, computed
        in place on the scores. One step has h of shape (d,), ``vecs`` (k, d),
        labels (k,) and ``alpha`` a float32 array of shape (). Lanes stack A
        steps that score k rows each: h (A, d), ``vecs`` (A, k, d), labels
        (A, k) and alpha (A, 1). Each lane's products are those of its own
        step, bit for bit (one BLAS gemv per lane either way).
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

    Step s belongs to document ``doc[s]`` and scores the output rows
    ``rows[s, :k[s]]`` with the labels alike (see
    ``_Objective.scored_steps``), at a hidden vector h made from its
    contributing rows (``_hidden``): the document row (dbow), the word row
    ``words[s]`` (sg), or the mean of the context word rows
    ``ctx[s][valid[s]]`` (cbow) and of those and the document row (dm),
    ``n[s]`` (float32) rows in all. The steps of each document are
    consecutive and in order.
    """

    doc: np.ndarray
    words: np.ndarray | None
    ctx: np.ndarray | None
    valid: np.ndarray | None
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
    words = ctx = valid = n = None
    targets = toks
    if arch != "dbow":
        cs = rng.integers(1, window + 1, size=len(toks))
        w = min(window, max(lengths) - 1)  # wider offsets never land in a document
        offs = np.concatenate((np.arange(-w, 0), np.arange(1, w + 1)))
        at = np.arange(len(toks))[:, None] + offs
        valid = (np.abs(offs) <= cs[:, None]) & (at >= start) & (at < end)
        ctx = toks.take(at, mode="clip")
        if arch == "sg":
            pos, slot = np.nonzero(valid)
            words, targets, doc = toks[pos], ctx[pos, slot], doc[pos]
            ctx = valid = None
        else:
            count = valid.sum(axis=1)
            if arch == "cbow":  # positions with no context are skipped
                has = count > 0
                ctx, valid, count, targets, doc = (ctx[has], valid[has], count[has],
                                                   toks[has], doc[has])
            n = (count + (arch == "dm")).astype(np.float32)
    return _Plan(doc, words, ctx, valid, n, *obj.scored_steps(targets, rng))


def _context_sums(W, ctx, valid):
    """``W[c[v]].sum(axis=0)`` for each row c, v of ``ctx``, ``valid``, bit for bit.

    The gathered rows are summed in order with -0.0 in the invalid slots,
    which changes no sum, and an empty context sums to +0.0.
    """
    if W.shape[1] == 1:  # numpy sums 8 or more one-element rows pairwise
        return np.array([W[c[v]].sum(axis=0) for c, v in zip(ctx, valid)],
                        dtype=W.dtype).reshape(len(ctx), 1)
    G = W.take(ctx, axis=0)
    G[~valid] = -0.0
    sums = G.sum(axis=1)
    sums[~valid.any(axis=1)] = 0.0
    return sums


def _hidden(arch, D, W, p, tag, s0, s1):
    """The hidden vectors h (float32) of the plan's steps s0..s1-1, step s
    reading the row D[tag[s]]: the word row (sg), the document row (dbow),
    or the mean of the context word rows (cbow) and of those and the
    document row (dm)."""
    if p.words is not None:
        return W.take(p.words[s0:s1], axis=0)
    if p.ctx is None:
        return D.take(tag[s0:s1], axis=0)
    h = _context_sums(W, p.ctx[s0:s1], p.valid[s0:s1])
    if arch == "dm":
        h += D.take(tag[s0:s1], axis=0)
    h /= p.n[s0:s1, None]
    return h


def _frozen_pass(arch, D, W, obj, toks, tag, alpha, window, rng):
    """One pass over one document's positions with W and O frozen
    (inference), updating only the row D[tag].

    The context sums and output rows of all steps are read ahead, a chunk
    at a time (``_Plan.chunks``), and the loop only carries the document
    row. Each step is the training step of ``_train_lanes`` for one lane.
    """
    p = _plan(arch, [toks], window, obj, rng)
    if arch not in DOC_ARCHITECTURES:  # cbow and sg steps write only W and O
        return
    doc, gradient = D[tag], obj.gradient
    alpha = np.array(alpha, dtype=np.float32)
    for s0, s1 in p.chunks(D.shape[1]):
        steps = zip(obj.O.take(p.rows[s0:s1], axis=0), p.labels[s0:s1],
                    p.k[s0:s1].tolist())
        if arch == "dbow":  # h is D[tag]
            for vecs, labels, k in steps:
                doc += gradient(doc, vecs[:k], labels[:k], alpha)[1]
            continue
        sums = _context_sums(W, p.ctx[s0:s1], p.valid[s0:s1])
        for (vecs, labels, k), total, n in zip(steps, sums, p.n[s0:s1]):
            h = (total + doc) / n
            doc += gradient(h, vecs[:k], labels[:k], alpha)[1] / n


def _train_lanes(arch, D, W, obj, docs, tags, alphas, window, rng):
    """One training pass over each token array in ``docs``, in lockstep.

    Document i updates the row D[tags[i]] at learning rate ``alphas[i]``.
    The passes are planned together (``_plan``), S steps in all, and each
    document's steps are cut into lanes of L = ceil(S / ``_LANES``) steps
    (the last one shorter). Lanes are sorted by step count, longest first
    (ties in document, then step order), and step p runs the p-th step of
    every lane that has one. All of step p's reads of D, W and O see them
    as step p - 1 left them. Its writes are added after them, each row's in
    lane order and, within a lane, in the order of the step's rows, as
    ``np.add.at`` sums them. One lane is the sequential walk, step by step.
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
    rows, labels, k = p.rows, p.labels, p.k
    last = np.subtract(bounds[1:], 1)  # each step's last lane
    tag = np.asarray(tags, dtype=np.intp)[p.doc]
    alpha = np.asarray(alphas, dtype=np.float32)[p.doc, None]
    O, gradient = obj.O, obj.gradient
    K, d = rows.shape[1], O.shape[1]
    # steps whose lanes all score K rows take one gradient call over them
    full = (np.minimum.reduceat(k, bounds[:-1]) == K).tolist()
    scored = np.arange(K) < k[:, None]
    # each matrix's writes go to its flat view (``train`` keeps D, W and O
    # C-contiguous), row r starting at element r * d (``_add_rows``)
    at = rows[scored]
    at *= d  # in place, so the scored rows are copied once
    writes = [(O, at, [0, *np.cumsum(k)[last].tolist()])]
    if p.ctx is not None:
        width = p.valid.sum(axis=1)
        writes.append((W, p.ctx[p.valid] * d, [0, *np.cumsum(width)[last].tolist()]))
    elif p.words is not None:
        writes.append((W, p.words * d, bounds))
    if arch in DOC_ARCHITECTURES:
        writes.append((D, tag * d, bounds))
    writes = [(M.reshape(-1), starts, cuts) for M, starts, cuts in writes]
    cols = np.arange(d)
    for s, (b0, b1) in enumerate(zip(bounds, bounds[1:])):
        h = _hidden(arch, D, W, p, tag, b0, b1)
        vecs = O.take(rows[b0:b1], axis=0)
        if full[s]:
            g, e = gradient(h, vecs, labels[b0:b1], alpha[b0:b1])
            vals = [g[:, :, None] * h[:, None, :]]
        else:
            g, e = _ragged_gradient(gradient, h, vecs, labels[b0:b1], alpha[b0:b1],
                                    k[b0:b1])
            vals = [(g[:, :, None] * h[:, None, :])[scored[b0:b1]]]
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
    given M's flat view, ``at`` = ids * d and ``cols`` = arange(d): each
    element's values in entry order, on numpy's fast path for 1-D indices."""
    np.add.at(flat, (at[:, None] + cols).ravel(), vals.ravel())


def _ragged_gradient(gradient, h, vecs, labels, alpha, k):
    """``gradient`` over lanes that score ``k[i]`` of their padded rows each.

    Lanes that score alike share one call: BLAS sums a lane's products in
    an order that depends on the row count, so padding would change bits.
    The padding's g is 0.
    """
    g = np.zeros(labels.shape, dtype=np.float32)
    e = np.empty_like(h)
    for rows in np.unique(k).tolist():
        i = np.flatnonzero(k == rows)
        g[i, :rows], e[i] = gradient(h[i], vecs[i, :rows], labels[i, :rows], alpha[i])
    return g, e


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
    """The batches of ``(tokens, ...)`` items that training and the loss
    probe plan at once, as columns: ``_LANES`` items, or fewer once they
    hold ``_BATCH_TOKENS`` tokens. An item is pulled only when its batch
    needs it, after the batches before it have run."""
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
    # has: others train as C-contiguous copies, copied back at the end
    D, W, O = (np.ascontiguousarray(M) for M in (model.D, model.W, model.O))
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
            toks = doc.tokens
            if keep is not None:
                toks = toks[rng.random(len(toks)) < keep[toks]]
                if len(toks) == 0:
                    continue
            yield toks, doc.doc_tag, alpha

    for e in range(cfg.epochs):
        for batch in _batches(epoch(e * tokens)):
            _train_lanes(cfg.architecture, D, W, obj, *batch, cfg.window, rng)
    for M, trained in ((model.D, D), (model.W, W), (model.O, O)):
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
    the ones training scores; only those rows are read, in float64.
    Negative-sampling draws come from ``rng`` unless ``negatives`` are
    supplied pre-drawn; the result is pure given the generator state.
    """
    h = np.asarray(h, dtype=np.float64)
    vocab, cfg = model.vocab, model.config
    if cfg.objective == "hs":
        rows, labels = vocab.huffman.paths[target], vocab.huffman.targets[target]
    else:
        if negatives is None:
            if rng is None:
                raise ConfigError("negative sampling needs rng or pre-drawn negatives")
            negatives = draw_negatives(rng, vocab.sampling_table, target, cfg.negative)
        rows = np.append(target, negatives).astype(np.intp)
        labels = np.zeros(len(rows))
        labels[0] = 1.0
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
    and scored a chunk at a time (``_Plan.chunks``): the steps that score
    k rows share one stacked matmul over the first k of their padded rows
    and one row-wise sum, which give each step the bits of its own float64
    gemv and sum. The step losses are then added in walk order.
    """
    _check_docs(model, docs)
    cfg, D, W, O = model.config, model.D, model.W, model.O
    obj = _Objective(O, model.vocab, cfg)
    rng = np.random.default_rng([probe_seed, 5])
    total, count = 0.0, 0
    for toks, tags in _batches((doc.tokens, doc.doc_tag) for doc in docs):
        p = _plan(cfg.architecture, toks, cfg.window, obj, rng)
        tag = np.asarray(tags, dtype=np.intp)[p.doc]
        for s0, s1 in p.chunks(model.dim):
            h = _hidden(cfg.architecture, D, W, p, tag, s0, s1).astype(np.float64)
            rows, labels, k = p.rows[s0:s1], p.labels[s0:s1], p.k[s0:s1]
            losses = np.empty(len(k))
            for n in np.unique(k).tolist():
                i = np.flatnonzero(k == n)
                x = np.matmul(O[rows[i, :n]].astype(np.float64), h[i, :, None])[:, :, 0]
                losses[i] = _loss_terms(x, labels[i, :n]).sum(axis=1)
            for loss in losses.tolist():
                total += loss
            count += len(k)
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
    one lane (``_frozen_pass``) with W and O frozen, for ``infer_epochs`` passes
    (default: twice the training epochs) at the training learning-rate
    schedule, alpha0 decaying toward alpha_min (``_alpha``).
    Token ids outside the vocabulary are dropped, and ids that are not
    integers are a ``DataError``; multiple documents (the
    phase readings of one sequence) share the single inferred vector.
    Only document architectures (dm, dbow) support inference.
    """
    cfg = model.config
    if cfg.architecture not in DOC_ARCHITECTURES:
        raise ConfigError(
            f"architecture {cfg.architecture!r} has no document pathway to infer with"
        )
    if infer_epochs is None:
        infer_epochs = 2 * cfg.epochs
    if infer_epochs < 1:
        raise ConfigError(f"infer_epochs must be >= 1, got {infer_epochs}")
    V = len(model.vocab)
    kept = []
    for i, tl in enumerate(token_lists):
        ids = np.asarray(tl)
        # a list with ids past the int64 range becomes an object or a float
        # array: then its elements decide
        if ids.size and ids.dtype.kind not in "iu" and not all(
                isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                for t in np.asarray(tl, dtype=object).ravel()):
            raise DataError(f"token list {i} holds ids that are not integers")
        ids = ids[(ids >= 0) & (ids < V)].astype(np.int32)  # filtered before narrowing
        if len(ids):
            kept.append(ids)
    if not kept:
        raise DataError("no in-vocabulary tokens to infer from")

    rng = np.random.default_rng([seed, 3])
    D = _uniform_rows(rng, 1, cfg.dim)
    obj = _Objective(model.O, model.vocab, cfg)
    total = infer_epochs * sum(len(t) for t in kept)
    processed = 0
    for _ in range(infer_epochs):
        for toks in kept:
            alpha = _alpha(cfg, processed, total)
            processed += len(toks)
            _frozen_pass(cfg.architecture, D, model.W, obj, toks, 0, alpha, cfg.window,
                         rng)
    return D[0]
