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

``loss_estimate`` and the training step ``_train_doc`` share one plan per
pass over a document (``_plan``): the window widths and each step's
context, contributor count and scored rows, drawn in bulk before the
position loop from the same random stream, in the same order, as a loop
that drew at each step (draws that hit the target are replayed one at a
time). Inference is that training step on a frozen model: ``infer_docs``
runs ``_train_doc`` on a fresh one-row D with W and O left unwritten, on
the same learning-rate schedule. With W and O frozen, there and in
``loss_estimate``, every step's context sum and output rows are gathered
before the loop, which then carries only the document row. The results
are bit for bit those of a per-position loop that draws and steps one
target at a time; the tests keep that loop as their reference. Training
runs on a single thread and is bit-deterministic for a fixed seed;
``workers`` must be 1.
"""

from __future__ import annotations

import itertools
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

#: Floats a frozen pass gathers at once (context rows and output rows of a
#: chunk of steps); bounds the transient memory for long documents.
_GATHER_CELLS = 1 << 17


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
    return _negative_steps(table, n, np.array([target]), rng)[0][1:]


def _negative_steps(table, n, targets, rng):
    """The rows scored at each of ``targets`` under negative sampling.

    Returns ``(rows, bounds)``: step s scores ``rows[bounds[s]:bounds[s + 1]]``,
    its target and then n noise rows drawn from the cumulative ``table``. A
    draw that hits the step's target is redrawn up to 16 times and skipped
    if still colliding, so a step can score fewer rows. ``rng`` is consumed
    as a loop that drew at each step would consume it: n draws per step,
    then that step's redraws. All steps' draws are taken in one call; if one
    hits its target, the steps are replayed one at a time, the redraws taken
    from that buffer, which is topped up from ``rng`` only when it runs out,
    so the generator ends in the same state.
    """
    S = len(targets)
    negs = np.searchsorted(table, rng.random(n * S), side="right").reshape(S, n)
    if not (negs == targets[:, None]).any():
        rows = np.empty((S, 1 + n), dtype=np.intp)
        rows[:, 0] = targets
        rows[:, 1:] = negs
        return rows.ravel(), list(range(0, (1 + n) * S + 1, 1 + n))
    buf = negs.ravel().tolist()
    rows, bounds, at = [], [0], 0
    for t in targets.tolist():
        if at + n > len(buf):  # redraws used up the buffer's tail
            u = rng.random(at + n - len(buf))
            buf += np.searchsorted(table, u, side="right").tolist()
        draws, at = buf[at : at + n], at + n
        rows.append(t)
        for j in draws:
            attempts = 0
            while j == t and attempts < 16:
                if at == len(buf):
                    buf.append(int(np.searchsorted(table, rng.random(), side="right")))
                j, at, attempts = buf[at], at + 1, attempts + 1
            if j != t:
                rows.append(j)
        bounds.append(len(rows))
    return np.array(rows, dtype=np.intp), bounds


def _add_rows(M: np.ndarray, ids: np.ndarray, v: np.ndarray, distinct: bool) -> None:
    """M[ids] += v, summing over repeated ids unless ``distinct`` rules them out."""
    if distinct:
        M[ids] = M.take(ids, axis=0) + v
    else:
        np.add.at(M, ids, v)


class _Objective:
    """The output objective (rows and 0/1 labels, see above) bound to O."""

    def __init__(self, O: np.ndarray, vocab: Vocabulary, cfg: TrainConfig):
        self.O = O
        self.hs = cfg.objective == "hs"
        if self.hs:
            huffman = vocab.huffman
            self.paths, self.path_labels = huffman.paths, huffman.targets
        else:
            self.table, self.n = vocab.sampling_table, cfg.negative

    def scored_steps(self, targets, rng):
        """The output rows scored at each of ``targets`` in turn, and their labels.

        Returns ``(rows, labels, bounds)``: step s scores
        ``rows[bounds[s]:bounds[s + 1]]`` with the float32 labels alike.
        Noise rows are drawn from ``rng`` by ``_negative_steps``.
        """
        S = len(targets)
        if not S:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.float32), [0]
        if self.hs:
            paths = [self.paths[t] for t in targets]
            bounds = [0, *itertools.accumulate(map(len, paths))]
            labels = np.concatenate([self.path_labels[t] for t in targets])
            return np.concatenate(paths).astype(np.intp), labels, bounds
        rows, bounds = _negative_steps(self.table, self.n, targets, rng)
        labels = np.zeros(len(rows), dtype=np.float32)
        if len(rows) == S * (1 + self.n):  # no step lost a draw
            labels[:: 1 + self.n] = 1.0
        else:
            labels[bounds[:-1]] = 1.0  # each step's first row is its target
        return rows, labels, bounds

    @staticmethod
    def gradient(h, vecs, labels, alpha):
        """``(g, e)`` at h over the scored rows ``vecs``.

        g = (labels - s(vecs @ h)) * alpha and e = g @ vecs = -alpha * grad_h,
        with s(x) = 1 / (1 + exp(-clip(x, -30, 30))) in float32, computed
        in place on the scores. ``alpha`` is a float32 array of shape ().
        """
        g = vecs.dot(h)
        np.maximum(g, _CLIP_LO, out=g)
        np.minimum(g, _CLIP_HI, out=g)
        np.negative(g, out=g)
        np.exp(g, out=g)
        g += _ONE
        np.reciprocal(g, out=g)  # 1 / x, correctly rounded
        np.subtract(labels, g, out=g)
        g *= alpha
        return g, g.dot(vecs)


def _loss_terms(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log s(+-x) per row: +x where the label is 1, -x where it is 0."""
    return np.logaddexp(0.0, (1.0 - 2.0 * labels) * x)


class _Plan(NamedTuple):
    """One pass over one document, drawn before it runs (see ``_plan``).

    Step s scores the output rows ``rows[bounds[s]:bounds[s + 1]]`` with
    the labels alike, at a hidden vector h made from its contributing rows:
    the document row (dbow), the word row ``words[s]`` (sg), or the mean of
    the context word rows ``ctx[s][valid[s]]`` (cbow) and of those and the
    document row (dm), ``n[s]`` (float32) rows in all.
    """

    words: np.ndarray | None
    ctx: np.ndarray | None
    valid: np.ndarray | None
    n: np.ndarray | None
    rows: np.ndarray
    labels: np.ndarray
    bounds: list[int]


def _plan(arch, toks, window, obj, rng):
    """Draw one pass over ``toks``: the window widths, then every step's rows.

    ``rng`` is consumed as a position loop that drew at each step would
    consume it: the widths first (not for dbow), then each step's negative
    samples (``_Objective.scored_steps``). Positions with no context are
    no cbow step; sg has one step per (position, context position) pair.
    """
    P = len(toks)
    words = ctx = valid = n = None
    targets = toks = toks.astype(np.intp)  # the index type gathers take fastest
    if arch != "dbow":
        cs = rng.integers(1, window + 1, size=P)
        w = min(window, P - 1)  # wider offsets never land in the document
        offs = np.concatenate((np.arange(-w, 0), np.arange(1, w + 1)))
        at = np.arange(P)[:, None] + offs
        valid = (np.abs(offs) <= cs[:, None]) & (at >= 0) & (at < P)
        ctx = toks.take(at, mode="clip")
        if arch == "sg":
            pos, slot = np.nonzero(valid)
            words, targets, ctx, valid = toks[pos], ctx[pos, slot], None, None
        else:
            count = valid.sum(axis=1)
            if arch == "cbow":  # positions with no context are skipped
                has = count > 0
                ctx, valid, count, targets = ctx[has], valid[has], count[has], toks[has]
            n = (count + (arch == "dm")).astype(np.float32)
    return _Plan(words, ctx, valid, n, *obj.scored_steps(targets, rng))


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


def _frozen_gathers(p, W, O):
    """Yield ``(s0, s1, sums, vecs)`` for chunks of the plan's steps.

    ``sums`` are the context sums of steps s0..s1-1 (None without context)
    and ``vecs`` the O rows they score, read once for the chunk, which is
    only right while W and O are not written. A chunk gathers about
    ``_GATHER_CELLS`` floats.
    """
    S = len(p.bounds) - 1
    width = (0 if p.ctx is None else p.ctx.shape[1]) + len(p.rows) // max(S, 1) + 1
    chunk = max(1, _GATHER_CELLS // (width * W.shape[1]))
    for s0 in range(0, S, chunk):
        s1 = min(S, s0 + chunk)
        sums = None if p.ctx is None else _context_sums(W, p.ctx[s0:s1], p.valid[s0:s1])
        yield s0, s1, sums, O.take(p.rows[p.bounds[s0] : p.bounds[s1]], axis=0)


def _repeat_free(ids):
    """Per row of the 2-D ``ids``, whether it holds no id twice."""
    ids = np.sort(ids, axis=1)
    return (ids[:, 1:] != ids[:, :-1]).all(axis=1).tolist()


def _train_doc(arch, D, W, obj, toks, tag, alpha, window, rng, learn=True):
    """One pass over one document's positions, updating the row D[tag].

    W and the objective's O are updated too when ``learn`` is true, and
    each step reads them as they stand when it is reached. When ``learn``
    is false they are frozen (inference): the context sums and output rows
    of all steps are read ahead, a chunk at a time, and the loop only
    carries the document row.
    """
    p = _plan(arch, toks, window, obj, rng)
    doc, O, gradient = D[tag], obj.O, obj.gradient
    alpha = np.array(alpha, dtype=np.float32)
    rows, labels, bounds, words, n = p.rows, p.labels, p.bounds, p.words, p.n
    S = len(bounds) - 1
    if learn:
        chunks = [(0, S, None, None)]
        if obj.hs:  # path nodes are distinct
            rows_free = [True] * S
        elif len(rows) == S * (1 + obj.n):
            rows_free = _repeat_free(rows.reshape(S, 1 + obj.n))
        else:  # a step lost a draw; np.add.at is right for any rows
            rows_free = [False] * S
        if p.ctx is not None:
            ctx_ids = p.ctx[p.valid]
            ctx_bounds = [0] + np.cumsum(p.valid.sum(axis=1)).tolist()
            pads = -1 - np.arange(p.ctx.shape[1])  # distinct, and no token id
            ctx_free = _repeat_free(np.where(p.valid, p.ctx, pads))
    else:
        chunks = _frozen_gathers(p, W, O)
    for s0, s1, sums, vecs in chunks:
        base = bounds[s0]
        for s in range(s0, s1):
            b0, b1 = bounds[s], bounds[s + 1]
            if learn:
                r = rows[b0:b1]
                v = O.take(r, axis=0)
            else:
                v = vecs[b0 - base : b1 - base]
            if p.ctx is None:  # h is its only contributing row: D[tag] or W[word]
                h = doc if words is None else W[words[s]]
                g, e = gradient(h, v, labels[b0:b1], alpha)
                if learn:
                    _add_rows(O, r, g[:, None] * h, rows_free[s])
                if learn or words is None:  # the sg row is a word row
                    h += e
                continue
            if learn:
                ids = ctx_ids[ctx_bounds[s] : ctx_bounds[s + 1]]
                h = np.add.reduce(W.take(ids, axis=0), axis=0)  # .sum(axis=0), unwrapped
            else:
                h = sums[s - s0]
            h = (h + doc) / n[s] if arch == "dm" else h / n[s]
            g, e = gradient(h, v, labels[b0:b1], alpha)
            share = e / n[s]
            if learn:
                _add_rows(O, r, g[:, None] * h, rows_free[s])
                if len(ids):
                    _add_rows(W, ids, share, ctx_free[s])
            if arch == "dm":
                doc += share


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


def train(model: EmbeddingModel, docs: Sequence[TokenizedDoc]) -> EmbeddingModel:
    """Run model.config.epochs SGD passes over ``docs``, updating the model
    in place.

    Document order is reshuffled per epoch from the seeded generator;
    positions within a document run in order.
    """
    cfg = model.config
    _check_docs(model, docs)

    obj = _Objective(model.O, model.vocab, cfg)
    keep = (
        subsample_keep_probs(model.vocab, cfg.subsample_t)
        if cfg.subsample_t > 0
        else None
    )
    total = cfg.epochs * sum(len(d.tokens) for d in docs)
    arch, window = cfg.architecture, cfg.window
    alpha0, alpha_min = cfg.alpha0, cfg.alpha_min

    rng = np.random.default_rng([cfg.seed, 1])
    processed = 0
    for _ in range(cfg.epochs):
        for di in rng.permutation(len(docs)):
            doc = docs[di]
            alpha = alpha0 + (alpha_min - alpha0) * min(1.0, processed / total)
            processed += len(doc.tokens)
            toks = doc.tokens
            if keep is not None:
                toks = toks[rng.random(len(toks)) < keep[toks]]
                if len(toks) == 0:
                    continue
            _train_doc(arch, model.D, model.W, obj, toks, doc.doc_tag, alpha,
                       window, rng)
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

    Documents are walked in the given order; window widths and negative
    draws come from a generator seeded with ``probe_seed``, so repeated
    calls on an unchanged model return the identical value.
    """
    _check_docs(model, docs)
    cfg = model.config
    obj = _Objective(model.O, model.vocab, cfg)
    rng = np.random.default_rng([probe_seed, 5])
    total = 0.0
    count = 0
    for doc in docs:
        p = _plan(cfg.architecture, doc.tokens, cfg.window, obj, rng)
        count += len(p.bounds) - 1
        d = model.D[doc.doc_tag]
        for s0, s1, sums, vecs in _frozen_gathers(p, model.W, model.O):
            if p.ctx is not None:
                n = p.n[s0:s1, None]
                h = (sums + d) / n if cfg.architecture == "dm" else sums / n
            elif p.words is not None:
                h = model.W[p.words[s0:s1]]
            else:
                h = np.broadcast_to(d, (s1 - s0, len(d)))
            h, vecs = h.astype(np.float64), vecs.astype(np.float64)
            b = [i - p.bounds[s0] for i in p.bounds[s0 : s1 + 1]]
            x = np.empty(b[-1])
            for i in range(s1 - s0):
                np.matmul(vecs[b[i] : b[i + 1]], h[i], out=x[b[i] : b[i + 1]])
            terms = _loss_terms(x, p.labels[p.bounds[s0] : p.bounds[s1]])
            for i in range(s1 - s0):
                total += float(terms[b[i] : b[i + 1]].sum())
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

    The vector is a fresh document row trained by the training step
    (``_train_doc``) with W and O frozen, for ``infer_epochs`` passes
    (default: twice the training epochs) at the training learning-rate
    schedule, alpha0 decaying toward alpha_min.
    Token ids outside the vocabulary are dropped; multiple documents (the
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
    for tl in token_lists:
        tl = np.asarray(tl, dtype=np.int32)
        tl = tl[(tl >= 0) & (tl < V)]
        if len(tl):
            kept.append(tl)
    if not kept:
        raise DataError("no in-vocabulary tokens to infer from")

    rng = np.random.default_rng([seed, 3])
    D = _uniform_rows(rng, 1, cfg.dim)
    obj = _Objective(model.O, model.vocab, cfg)
    total = infer_epochs * sum(len(t) for t in kept)
    processed = 0
    for _ in range(infer_epochs):
        for toks in kept:
            alpha = cfg.alpha0 + (cfg.alpha_min - cfg.alpha0) * (processed / total)
            processed += len(toks)
            _train_doc(cfg.architecture, D, model.W, obj, toks, 0, alpha, cfg.window,
                       rng, learn=False)
    return D[0]
