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
  target are redrawn up to 16 times, then skipped);
* hierarchical softmax: the inner nodes of the target's Huffman path,
  each labelled 1 - its code bit.

SGD applies the analytic gradients: output rows get their own gradient
terms; each row contributing to h receives grad_h scaled by
1/(number of contributors), the exact chain-rule share of the mean. The
learning rate decays linearly from alpha0 toward alpha_min = alpha0 / 10000
over the total scheduled token count (document granularity).

``loss_estimate`` and the training step ``_train_doc`` share one position
walk (``_walk``), which draws the window widths and assembles each hidden
vector. Inference is that training step on a frozen model: ``infer_docs``
runs ``_train_doc`` on a fresh one-row D with W and O left unwritten, on
the same learning-rate schedule. Training runs on a single thread and is
bit-deterministic for a fixed seed; ``workers`` must be 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .tokenizer import (
    TokenizedDoc,
    TokenizerConfig,
    Vocabulary,
    ensure_huffman,
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_MAX_EXP, _MAX_EXP)))


def draw_negatives(
    rng: np.random.Generator, table: np.ndarray, target: int, n: int
) -> np.ndarray:
    """n indices from the cumulative sampling table, avoiding ``target``.

    A draw that hits the target is redrawn up to 16 times and skipped if
    still colliding, so the result can be shorter than n.
    """
    idx = np.searchsorted(table, rng.random(n), side="right")
    if not (idx == target).any():
        return idx
    out = []
    for j in idx:
        attempts = 0
        while j == target and attempts < 16:
            j = int(np.searchsorted(table, rng.random(), side="right"))
            attempts += 1
        if j != target:
            out.append(j)
    return np.array(out, dtype=idx.dtype)


class _Objective:
    """The output objective (rows and 0/1 labels, see above) bound to O."""

    def __init__(self, O: np.ndarray, vocab: Vocabulary, cfg: TrainConfig):
        self.O = O
        self.hs = cfg.objective == "hs"
        if self.hs:
            huffman = ensure_huffman(vocab)
            self.paths, self.path_labels = huffman.paths, huffman.targets
        else:
            self.table, self.n = vocab.sampling_table, cfg.negative
            self.ns_labels = np.zeros(1 + cfg.negative, dtype=np.float32)
            self.ns_labels[0] = 1.0

    def scored(self, target, rng, negatives=None):
        """Output rows scored at ``target`` and their float32 labels.

        Noise rows come from ``rng`` unless ``negatives`` are given.
        """
        if self.hs:
            return self.paths[target], self.path_labels[target]
        if negatives is None:
            if rng is None:
                raise ConfigError("negative sampling needs rng or pre-drawn negatives")
            negatives = draw_negatives(rng, self.table, target, self.n)
        elif len(negatives) >= len(self.ns_labels):  # more than cfg.negative
            self.ns_labels = np.zeros(1 + len(negatives), dtype=np.float32)
            self.ns_labels[0] = 1.0
        rows = np.empty(1 + len(negatives), dtype=np.int64)
        rows[0] = target
        rows[1:] = negatives
        return rows, self.ns_labels[: len(rows)]

    def apply(self, h, target, alpha, rng, learn_hidden=True):
        """SGD step at (h, target); returns the h-update -alpha * grad_h."""
        O = self.O
        rows, labels = self.scored(target, rng)
        vecs = O[rows]
        g = labels - _sigmoid(vecs @ h)
        g *= np.float32(alpha)
        e = g @ vecs
        if learn_hidden:
            if self.hs:
                O[rows] += g[:, None] * h  # path nodes are distinct
            else:
                np.add.at(O, rows, g[:, None] * h)  # negatives may repeat
        return e

    def loss(self, h, target, rng):
        rows, labels = self.scored(target, rng)
        x = self.O[rows].astype(np.float64) @ np.asarray(h, dtype=np.float64)
        return _loss(x, labels)


def _loss(x: np.ndarray, labels: np.ndarray) -> float:
    """-sum log s(+-x): +x where the label is 1, -x where it is 0."""
    return float(np.logaddexp(0.0, (1.0 - 2.0 * labels) * x).sum())


def _make_objective(model: EmbeddingModel, cfg: TrainConfig) -> _Objective:
    return _Objective(model.O, model.vocab, cfg)


def _walk(arch, W, doc, toks, window, rng):
    """Yield ``(h, target, rows, n)`` for each update of one pass over ``toks``.

    ``h`` is assembled from W and the document row ``doc`` as they stand
    when the step is reached, so updates a caller makes between steps are
    seen by later ones. For sg and dbow, ``h`` is a view of its only
    contributing row (the current word row, the document row), which takes
    the whole h-update; ``rows`` and ``n`` are then None. For dm and cbow,
    ``rows`` are the context word rows and ``n`` (float32) counts the
    contributors, ``doc`` included for dm; each takes 1/n of the h-update.
    Window widths are drawn from ``rng`` once per document (not for dbow).
    """
    n_toks = len(toks)
    if arch == "dbow":
        for pos in range(n_toks):
            yield doc, toks[pos], None, None
        return
    cs = rng.integers(1, window + 1, size=n_toks)
    for pos in range(n_toks):
        lo, hi = max(0, pos - cs[pos]), pos + 1 + cs[pos]
        if arch == "sg":
            for j in range(lo, min(n_toks, hi)):
                if j != pos:
                    yield W[toks[pos]], toks[j], None, None
            continue
        ctx = np.concatenate((toks[lo:pos], toks[pos + 1 : hi]))
        if arch == "dm":
            n = np.float32(len(ctx) + 1)
            yield (W[ctx].sum(axis=0) + doc) / n, toks[pos], ctx, n
        elif len(ctx):  # cbow skips positions with no context
            n = np.float32(len(ctx))
            yield W[ctx].sum(axis=0) / n, toks[pos], ctx, n


def _train_doc(arch, D, W, obj, toks, tag, alpha, window, rng, learn=True):
    """One pass over one document's positions, updating the row D[tag].

    W and the objective's O are updated too when ``learn`` is true and
    left unwritten when it is false (inference on a frozen model).
    """
    doc = D[tag]
    for h, target, rows, n in _walk(arch, W, doc, toks, window, rng):
        e = obj.apply(h, target, alpha, rng, learn)
        if rows is None:  # h is a view of its only contributing row
            if learn or arch == "dbow":  # the sg row is a word row
                h += e
            continue
        share = e / n
        if learn and len(rows):
            np.add.at(W, rows, share)
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

    obj = _make_objective(model, cfg)
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
    rows, labels = _make_objective(model, model.config).scored(target, rng, negatives)
    vecs = model.O[rows].astype(np.float64)
    x = vecs @ h
    coeff = 1.0 / (1.0 + np.exp(-x)) - labels  # d loss / d x
    row_grads: dict[int, np.ndarray] = {}
    for r, c in zip(rows.tolist(), coeff):
        grad = c * h
        row_grads[r] = row_grads[r] + grad if r in row_grads else grad
    return _loss(x, labels), coeff @ vecs, row_grads


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
    obj = _make_objective(model, cfg)
    rng = np.random.default_rng([probe_seed, 5])
    total = 0.0
    count = 0
    for doc in docs:
        for h, target, _, _ in _walk(cfg.architecture, model.W, model.D[doc.doc_tag],
                                     doc.tokens, cfg.window, rng):
            total += obj.loss(h, target, rng)
            count += 1
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
    if infer_epochs < 0:
        raise ConfigError("infer_epochs must be >= 0")
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
    obj = _make_objective(model, cfg)
    total = infer_epochs * sum(len(t) for t in kept)
    processed = 0
    for _ in range(infer_epochs):
        for toks in kept:
            alpha = cfg.alpha0 + (cfg.alpha_min - cfg.alpha0) * (processed / total)
            processed += len(toks)
            _train_doc(cfg.architecture, D, model.W, obj, toks, 0, alpha, cfg.window,
                       rng, learn=False)
    return D[0]
