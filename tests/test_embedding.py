"""Tests for model initialization, objective gradients, training, and inference.

Gradient correctness is established against central finite differences of
the loss with the noise draws frozen, for both objectives and for every
parameter the architectures touch (hidden vector, output rows, word rows,
document rows).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqvec import embedding
from seqvec.embedding import (
    TrainConfig,
    _Objective,
    _context_sums,
    _train_lanes,
    infer_docs,
    init_model,
    loss_estimate,
    objective_gradient,
    train,
)
from seqvec.errors import ConfigError, DataError, SeqvecError
from seqvec.tokenizer import (
    TokenizedDoc,
    build_vocabulary,
    guide_table,
    subsample_keep_probs,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _vocab(n=6, base_count=5):
    return build_vocabulary({f"t{i:02d}": base_count + i for i in range(n)})


def _doc(tag, tokens):
    return TokenizedDoc(tag, 0, np.asarray(tokens, dtype=np.int32))


def _noise_rows(rng, table, target, n):
    """The noise rows of one negative-sampling step at ``target``: the
    one-step case of ``_negative_steps``."""
    rows, k = embedding._negative_steps(table, n, np.array([target]), rng)
    return rows[0, 1 : k[0]]


class TestTrainConfig:
    def test_alpha0_above_one_rejected(self):
        with pytest.raises(ConfigError, match="alpha0"):
            TrainConfig(alpha0=5.0)

    def test_alpha_min_is_a_fixed_fraction_of_alpha0(self):
        cfg = TrainConfig(alpha0=0.05)
        assert cfg.alpha_min == pytest.approx(0.05 / 10_000)
        with pytest.raises(TypeError):
            TrainConfig(alpha0=0.2, alpha_min=0.001)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(architecture="lstm")
        with pytest.raises(ConfigError):
            TrainConfig(dim=0)
        with pytest.raises(ConfigError):
            TrainConfig(window=0)
        with pytest.raises(ConfigError):
            TrainConfig(objective="ns", negative=0)
        for subsample_t in (-0.1, math.inf, math.nan):
            with pytest.raises(ConfigError, match="subsample_t"):
                TrainConfig(subsample_t=subsample_t)
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    def test_negative_above_the_cap_rejected(self, objective):
        TrainConfig(objective=objective, negative=embedding.MAX_NEGATIVE)
        with pytest.raises(ConfigError, match="must be at most 256"):
            TrainConfig(objective=objective, negative=embedding.MAX_NEGATIVE + 1)
        with pytest.raises(ConfigError, match="must be at most 256"):
            TrainConfig(objective=objective, negative=2**32)

    @pytest.mark.parametrize("name", ["dim", "window", "epochs"])
    def test_counts_above_the_model_file_u32_rejected(self, name):
        TrainConfig(**{name: 2**32 - 1})
        with pytest.raises(ConfigError, match=f"{name} must be at most 4294967295"):
            TrainConfig(**{name: 2**32})

    def test_seed_above_the_model_file_u64_rejected(self):
        TrainConfig(seed=2**64 - 1)
        with pytest.raises(ConfigError, match="seed must be at most"):
            TrainConfig(seed=2**64)


class TestInitModel:
    def test_deterministic_for_seed(self):
        cfg = TrainConfig(dim=4, seed=7)
        a = init_model(_vocab(6), 3, cfg)
        b = init_model(_vocab(6), 3, cfg)
        assert np.array_equal(a.D, b.D)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.O, b.O)

    def test_ranges_and_zero_output(self):
        cfg = TrainConfig(dim=8, seed=1)
        m = init_model(_vocab(10), 4, cfg)
        bound = 0.5 / 8
        assert np.all(np.abs(m.W) <= bound)
        assert np.all(np.abs(m.D) <= bound)
        assert not m.O.any()
        assert m.O.shape == (10, 8)

    def test_rows_numpy_cannot_hold_are_a_config_error(self):
        # numpy refuses 2^40 rows of 2^32 - 1 floats before it allocates
        with pytest.raises(ConfigError,
                           match="cannot allocate 1099511627776 rows of dim 4294967295"):
            init_model(_vocab(2), 2**40, TrainConfig(dim=2**32 - 1))

    @pytest.mark.parametrize("n, dim", [(1, 1), (3, 7), (2, 40_000)])
    def test_rows_are_the_draws_of_one_call(self, n, dim):
        # drawn 2^16 at a time into float32, across rows in the last case,
        # the rows and the generator's state are those of one float64 draw
        lib, ref = np.random.default_rng(4), np.random.default_rng(4)
        want = ref.uniform(-0.5 / dim, 0.5 / dim, (n, dim)).astype(np.float32)
        assert embedding._uniform_rows(lib, n, dim).tobytes() == want.tobytes()
        assert lib.random() == ref.random()

    def test_hs_output_has_inner_node_rows(self):
        m = init_model(_vocab(10), 4, TrainConfig(dim=4, objective="hs"))
        assert m.O.shape == (9, 4)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(DataError):
            init_model(build_vocabulary({}), 3, TrainConfig(dim=4))


def _fd_check(loss_fn, get, add, grad, step=1e-3, rtol=1e-4):
    """Central finite differences of loss_fn against an analytic gradient."""
    flat = np.asarray(grad, dtype=np.float64).ravel()
    for idx in range(flat.size):
        add(idx, step)
        up = loss_fn()
        add(idx, -2 * step)
        down = loss_fn()
        add(idx, step)
        numeric = (up - down) / (2 * step)
        analytic = flat[idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < rtol, (
            f"component {idx}: analytic {analytic}, numeric {numeric}"
        )


class TestObjectiveGradient:
    def test_zero_hidden_vector_ns(self):
        # s(0) = 0.5 everywhere: loss (1+n) log 2, grad pulled from the rows
        cfg = TrainConfig(dim=5, objective="ns", negative=3, seed=0)
        model = init_model(_vocab(8), 2, cfg)
        model.O[:] = np.random.default_rng(1).normal(size=model.O.shape)
        rng = np.random.default_rng(2)
        negs = _noise_rows(rng, model.vocab.sampling_table, 0, 3)
        loss, grad_h, rows = objective_gradient(
            np.zeros(5), 0, model, negatives=negs
        )
        assert loss == pytest.approx((1 + len(negs)) * math.log(2), rel=1e-12)
        expected = -0.5 * model.O[0].astype(np.float64)
        for j in negs:
            expected = expected + 0.5 * model.O[j].astype(np.float64)
        assert np.allclose(grad_h, expected, atol=1e-12)

    def test_ns_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = TrainConfig(dim=5, objective="ns", negative=3, seed=0)
        model = init_model(_vocab(12), 2, cfg)
        model.O[:] = 0.5 * rng.normal(size=model.O.shape)
        h = rng.normal(size=5)
        negs = _noise_rows(rng, model.vocab.sampling_table, 4, 3)
        loss, grad_h, row_grads = objective_gradient(h, 4, model, negatives=negs)

        _fd_check(
            lambda: objective_gradient(h, 4, model, negatives=negs)[0],
            None,
            lambda idx, dv: h.__setitem__(idx, h[idx] + dv),
            grad_h,
        )
        for row, grad in row_grads.items():
            def bump(idx, dv, row=row):
                model.O[row, idx] += np.float64(dv)

            _fd_check(
                lambda: objective_gradient(h, 4, model, negatives=negs)[0],
                None,
                bump,
                grad,
                rtol=2e-3,  # O is float32; differencing loses a few digits
            )

    def test_hs_two_token_vocab_single_node(self):
        cfg = TrainConfig(dim=4, objective="hs", seed=0)
        model = init_model(_vocab(2), 2, cfg)
        rng = np.random.default_rng(4)
        model.O[:] = rng.normal(size=model.O.shape)
        h = rng.normal(size=4)
        for target in (0, 1):
            loss, grad_h, row_grads = objective_gradient(h, target, model)
            x = float(model.O[0].astype(np.float64) @ h)
            huff = model.vocab.huffman
            sign = 1.0 - 2.0 * float(huff.codes[target][0])
            assert loss == pytest.approx(math.log1p(math.exp(-sign * x)), rel=1e-10)
            _fd_check(
                lambda: objective_gradient(h, target, model)[0],
                None,
                lambda idx, dv: h.__setitem__(idx, h[idx] + dv),
                grad_h,
            )

    def test_ns_accepts_more_negatives_than_configured(self):
        cfg = TrainConfig(dim=4, objective="ns", negative=2, seed=0)
        model = init_model(_vocab(8), 1, cfg)
        model.O[:] = np.random.default_rng(1).normal(size=model.O.shape)
        negs = np.array([1, 2, 3, 2, 5, 6, 7])
        loss, grad_h, row_grads = objective_gradient(np.zeros(4), 0, model,
                                                     negatives=negs)
        assert loss == pytest.approx(8 * math.log(2), rel=1e-12)
        O = model.O.astype(np.float64)
        assert np.allclose(grad_h, 0.5 * O[negs].sum(axis=0) - 0.5 * O[0], atol=1e-12)
        assert sorted(row_grads) == [0, 1, 2, 3, 5, 6, 7]

    def test_ns_requires_rng_or_negatives(self):
        model = init_model(_vocab(4), 1, TrainConfig(dim=3))
        with pytest.raises(ConfigError):
            objective_gradient(np.zeros(3), 0, model)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    def test_training_step_takes_the_checked_gradient_step(self, objective):
        # 3 tokens and 6 noise draws: under ns the negatives must repeat, and
        # here two hit the target and are skipped; under hs the target's path
        # is shorter than the longest. So the step has padded slots (row 0,
        # rate 0), and every row of O, row 0 included, is checked below.
        cfg = TrainConfig(architecture="dbow", dim=5, objective=objective,
                          negative=6, seed=0)
        model = init_model(_vocab(3), 1, cfg)
        rng = np.random.default_rng(8)
        model.O[:] = 0.5 * rng.normal(size=model.O.shape)
        model.D[0] = 0.5 * rng.normal(size=5)
        h = model.D[0].copy()
        alpha, target = 0.1, 2
        negs = _noise_rows(np.random.default_rng(5), model.vocab.sampling_table,
                           target, cfg.negative)
        if objective == "ns":
            assert len(np.unique(negs)) < len(negs)
            assert len(negs) < cfg.negative  # k = 1 + len(negs) < K = 1 + n
        else:
            lengths = model.vocab.huffman.lengths
            assert lengths[target] < lengths.max()
        _, grad_h, row_grads = objective_gradient(h, target, model, negatives=negs)

        before = model.O.copy()
        # a dbow pass over a one-token document is one step at h = D[0]
        _train_lanes("dbow", model.D, model.W, _Objective(model.O, model.vocab, cfg),
                     [np.array([target], dtype=np.int32)], [0], [alpha], cfg.window,
                     np.random.default_rng(5))
        assert np.allclose(model.D[0] - h, -alpha * grad_h, rtol=1e-5, atol=1e-7)
        expected = before.astype(np.float64)
        for row, grad in row_grads.items():
            expected[row] -= alpha * grad
        assert np.allclose(model.O, expected, rtol=1e-5, atol=1e-7)


def _position_loss(model, arch, tag, toks, pos, c, negatives):
    """Loss at one token position with window and noise draws frozen."""
    ctx = np.concatenate((toks[max(0, pos - c) : pos], toks[pos + 1 : pos + 1 + c]))
    if arch == "dm":
        h = (model.W[ctx].astype(np.float64).sum(axis=0) + model.D[tag]) / (len(ctx) + 1)
        return objective_gradient(h, int(toks[pos]), model, negatives=negatives)[0]
    if arch == "cbow":
        h = model.W[ctx].astype(np.float64).sum(axis=0) / len(ctx)
        return objective_gradient(h, int(toks[pos]), model, negatives=negatives)[0]
    if arch == "dbow":
        return objective_gradient(model.D[tag].astype(np.float64), int(toks[pos]),
                                  model, negatives=negatives)[0]
    if arch == "sg":  # one (position, context) pair; target is the context token
        return objective_gradient(model.W[toks[pos]].astype(np.float64),
                                  int(negatives["sg_target"]), model,
                                  negatives=negatives["negs"])[0]
    raise AssertionError(arch)


class TestArchitectureGradients:
    """Finite differences through each architecture's hidden assembly."""

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "cbow", "dbow", "sg"])
    def test_word_and_doc_row_gradients(self, arch, objective):
        rng = np.random.default_rng(hash((arch, objective)) % 2**32)
        for _ in range(6):
            V = int(rng.integers(5, 14))
            d = int(rng.integers(3, 8))
            cfg = TrainConfig(architecture=arch, dim=d, objective=objective,
                              negative=3, seed=0)
            vocab = build_vocabulary(
                {f"t{i:02d}": int(rng.integers(1, 9)) for i in range(V)}
            )
            model = init_model(vocab, 2, cfg)
            model.O[:] = 0.4 * rng.normal(size=model.O.shape)
            model.W[:] = 0.4 * rng.normal(size=model.W.shape)
            model.D[:] = 0.4 * rng.normal(size=model.D.shape)
            n = int(rng.integers(2, 7))
            toks = np.asarray(rng.integers(0, V, n), dtype=np.int32)
            pos = int(rng.integers(0, n))
            c = int(rng.integers(1, 4))
            tag = 1

            if arch == "sg":
                lo = max(0, pos - c)
                hi = min(n, pos + 1 + c)
                others = [j for j in range(lo, hi) if j != pos]
                if not others:
                    continue
                target = int(toks[others[0]])
                negs = (
                    _noise_rows(rng, vocab.sampling_table, target, 3)
                    if objective == "ns"
                    else None
                )
                frozen = {"sg_target": target, "negs": negs}
                loss, grad_h, _ = objective_gradient(
                    model.W[toks[pos]].astype(np.float64), target, model,
                    negatives=negs,
                )
                # the single contributor is the current token's word row
                def bump(idx, dv):
                    model.W[toks[pos], idx] += np.float64(dv)

                _fd_check(
                    lambda: _position_loss(model, arch, tag, toks, pos, c, frozen),
                    None, bump, grad_h, rtol=2e-3,
                )
                continue

            ctx = np.concatenate(
                (toks[max(0, pos - c) : pos], toks[pos + 1 : pos + 1 + c])
            )
            if arch == "cbow" and len(ctx) == 0:
                continue
            target = int(toks[pos])
            negs = (
                _noise_rows(rng, vocab.sampling_table, target, 3)
                if objective == "ns"
                else None
            )
            if arch == "dm":
                h = (model.W[ctx].astype(np.float64).sum(axis=0) + model.D[tag]) / (
                    len(ctx) + 1
                )
                n_contrib = len(ctx) + 1
            elif arch == "cbow":
                h = model.W[ctx].astype(np.float64).sum(axis=0) / len(ctx)
                n_contrib = len(ctx)
            else:  # dbow
                h = model.D[tag].astype(np.float64)
                n_contrib = 1
            loss, grad_h, _ = objective_gradient(h, target, model, negatives=negs)

            if arch in ("dm", "dbow"):
                def bump_doc(idx, dv):
                    model.D[tag, idx] += np.float64(dv)

                _fd_check(
                    lambda: _position_loss(model, arch, tag, toks, pos, c, negs),
                    None, bump_doc, grad_h / n_contrib, rtol=2e-3,
                )
            if arch in ("dm", "cbow") and len(ctx):
                row = int(ctx[0])
                multiplicity = int(np.sum(ctx == row))

                def bump_word(idx, dv):
                    model.W[row, idx] += np.float64(dv)

                _fd_check(
                    lambda: _position_loss(model, arch, tag, toks, pos, c, negs),
                    None, bump_word, multiplicity * grad_h / n_contrib, rtol=2e-3,
                )


class _StubObjective(_Objective):
    """Returns a fixed h-update so distribution shares can be read exactly.

    It scores the one inner node of a two-token Huffman tree (no draws)
    and leaves that output row unchanged.
    """

    def __init__(self, e):
        super().__init__(np.zeros((1, len(e)), dtype=np.float32), _vocab(2),
                         TrainConfig(dim=len(e), objective="hs"))
        self.e = e

    def gradient(self, h, vecs, labels, alpha):
        return (np.zeros(labels.shape, dtype=np.float32),
                np.broadcast_to(self.e, h.shape).copy())


class TestUpdateDistribution:
    def test_dm_gives_every_contributor_the_same_share(self):
        d = 4
        D = np.zeros((1, d), dtype=np.float32)
        W = np.zeros((3, d), dtype=np.float32)
        e = np.arange(1, d + 1, dtype=np.float32)
        toks = np.array([0, 1], dtype=np.int32)
        _train_lanes("dm", D, W, _StubObjective(e), [toks], [0], [0.025], 1,
                     np.random.default_rng(0))
        # two positions; each has one context token, so shares are e/2
        assert np.allclose(W[0], e / 2)
        assert np.allclose(W[1], e / 2)
        assert np.allclose(W[2], 0)
        assert np.allclose(D[0], e)  # e/2 from each position

    def test_cbow_distributes_over_context_only(self):
        d = 3
        D = np.zeros((1, d), dtype=np.float32)
        W = np.zeros((2, d), dtype=np.float32)
        e = np.ones(d, dtype=np.float32)
        toks = np.array([0, 1], dtype=np.int32)
        _train_lanes("cbow", D, W, _StubObjective(e), [toks], [0], [0.025], 1,
                     np.random.default_rng(0))
        assert np.allclose(W[0], e)  # sole context of position 1
        assert np.allclose(W[1], e)
        assert not D.any()

    def test_sg_applies_full_update_to_current_row(self):
        d = 3
        D = np.zeros((1, d), dtype=np.float32)
        W = np.zeros((2, d), dtype=np.float32)
        e = np.full(d, 2.0, dtype=np.float32)
        toks = np.array([0, 1], dtype=np.int32)
        _train_lanes("sg", D, W, _StubObjective(e), [toks], [0], [0.025], 1,
                     np.random.default_rng(0))
        assert np.allclose(W[0], e)
        assert np.allclose(W[1], e)
        assert not D.any()

    def test_dbow_touches_document_row_only(self):
        d = 3
        D = np.zeros((1, d), dtype=np.float32)
        W = np.zeros((2, d), dtype=np.float32)
        e = np.full(d, 0.5, dtype=np.float32)
        toks = np.array([0, 1, 0], dtype=np.int32)
        _train_lanes("dbow", D, W, _StubObjective(e), [toks], [0], [0.025], 1,
                     np.random.default_rng(0))
        assert np.allclose(D[0], 3 * e)
        assert not W.any()

    @pytest.mark.parametrize("arch, doc_share", [("dm", 1), ("dbow", 2)])
    def test_frozen_step_writes_the_document_row_only(self, arch, doc_share,
                                                      monkeypatch):
        d = 3
        cfg = TrainConfig(architecture=arch, dim=d, window=1, objective="hs")
        model = init_model(_vocab(2), 1, cfg)
        model.W[:] = 0
        e = np.full(d, 0.5, dtype=np.float32)
        monkeypatch.setattr(embedding, "_Objective", lambda *a: _StubObjective(e))
        start = embedding._uniform_rows(np.random.default_rng([0, 3]), 1, d)[0]
        vec = infer_docs(model, [[0, 1]], infer_epochs=1, seed=0)
        assert np.allclose(vec - start, doc_share * e)
        assert not model.W.any()


# Reference: one position loop per architecture for training, scoring and
# inference, as the library ran them before they were folded into one walk,
# each step drawing its own negatives one target at a time, and a lockstep
# loop for training several documents at once (_ref_train_lanes). The
# library must reproduce these byte for byte: training at one lane the
# first, at several the second. The reference shares the library's
# gradient kernel and Huffman coding, but neither its draw rule
# (_negative_steps), nor its planner (scored_steps), nor
# its row writes (_add_rows).


def _ref_draw_negatives(rng, table, target, n):
    """n draws at once, each one that hits the target skipped."""
    out = []
    for j in np.searchsorted(table, rng.random(n), side="right"):
        if j != target:
            out.append(j)
    return np.array(out, dtype=np.intp)


class _RefObjective:
    """The objective at one target: its scored rows, SGD step and loss.

    A step is padded to the objective's K slots (1 + n under negative
    sampling, the longest Huffman path under hierarchical softmax) with row
    0, label 0 and learning rate 0, and its padded slots are left out of
    the loss.
    """

    def __init__(self, model):
        cfg, vocab = model.config, model.vocab
        self.O, self.hs, self.n = model.O, cfg.objective == "hs", cfg.negative
        self.table = vocab.sampling_table
        self.huffman = vocab.huffman if self.hs else None
        self.K = max(map(len, self.huffman.paths)) if self.hs else 1 + self.n

    def scored(self, target, rng):
        """The K padded rows and labels, and each slot's weight: 1 if scored."""
        if self.hs:
            rows, labels = self.huffman.paths[target], self.huffman.targets[target]
        else:
            rows = np.concatenate(([target], _ref_draw_negatives(rng, self.table, target,
                                                                 self.n)))
            labels = np.zeros(len(rows))
            labels[0] = 1.0
        pad = self.K - len(rows)
        live = np.float32([1.0] * len(rows) + [0.0] * pad)
        return (np.pad(rows, (0, pad)).astype(np.intp),
                np.pad(labels, (0, pad)).astype(np.float32), live)

    def apply(self, h, target, alpha, rng, learn_hidden=True):
        """SGD step at (h, target); returns the h-update -alpha * grad_h."""
        rows, labels, live = self.scored(target, rng)
        g, e = _Objective.gradient(h, self.O[rows], labels,
                                   np.array(alpha, dtype=np.float32) * live)
        if learn_hidden:
            np.add.at(self.O, rows, g[:, None] * h)
        return e

    def loss(self, h, target, rng):
        rows, labels, live = self.scored(target, rng)
        x = self.O[rows].astype(np.float64) @ np.asarray(h, dtype=np.float64)
        return float((np.logaddexp(0.0, (1.0 - 2.0 * labels) * x) * live).sum())


def _ref_context(toks, pos, c):
    return np.concatenate((toks[max(0, pos - c) : pos], toks[pos + 1 : pos + 1 + c]))


def _ref_train_doc(arch, D, W, obj, toks, tag, alpha, window, rng):
    n = len(toks)
    if arch == "dbow":
        for pos in range(n):
            D[tag] += obj.apply(D[tag], toks[pos], alpha, rng)
        return
    cs = rng.integers(1, window + 1, size=n)
    for pos in range(n):
        if arch == "sg":
            cur = toks[pos]
            for j in range(max(0, pos - cs[pos]), min(n, pos + 1 + cs[pos])):
                if j != pos:
                    W[cur] += obj.apply(W[cur], toks[j], alpha, rng)
            continue
        ctx = _ref_context(toks, pos, cs[pos])
        if arch == "dm":
            nc = len(ctx) + 1
            h = (W[ctx].sum(axis=0) + D[tag]) / np.float32(nc)
            share = obj.apply(h, toks[pos], alpha, rng) / np.float32(nc)
            if len(ctx):
                np.add.at(W, ctx, share)
            D[tag] += share
        elif len(ctx):  # cbow
            h = W[ctx].sum(axis=0) / np.float32(len(ctx))
            e = obj.apply(h, toks[pos], alpha, rng)
            np.add.at(W, ctx, e / np.float32(len(ctx)))


def _ref_train(model, docs):
    cfg = model.config
    obj = _RefObjective(model)
    keep = subsample_keep_probs(model.vocab, cfg.subsample_t) if cfg.subsample_t else None
    total = cfg.epochs * sum(len(d.tokens) for d in docs)
    rng = np.random.default_rng([cfg.seed, 1])
    processed = 0
    for _ in range(cfg.epochs):
        for di in rng.permutation(len(docs)):
            doc = docs[di]
            alpha = cfg.alpha0 + (cfg.alpha_min - cfg.alpha0) * min(1.0, processed / total)
            processed += len(doc.tokens)
            toks = doc.tokens
            if keep is not None:
                toks = toks[rng.random(len(toks)) < keep[toks]]
                if len(toks) == 0:
                    continue
            _ref_train_doc(cfg.architecture, model.D, model.W, obj, toks, doc.doc_tag,
                           alpha, cfg.window, rng)
    return model


def _ref_train_lanes(model, docs, lanes, batch_tokens):
    """Lockstep training of each epoch's permutation in batches of ``lanes``
    documents, or fewer once a batch holds ``batch_tokens`` tokens; returns
    the model and how many documents subsampling emptied.

    A batch draws each document's subsampling in turn, then the window
    widths of all its documents in one call, then each step's negatives one
    step at a time, in document order. Each document's S_i steps are cut
    into lanes of L = ceil(sum of S_i / lanes) steps. Lanes run longest
    first (ties in permutation, then step order). Step p reads D, W and O
    as step p - 1 left them (a snapshot), and then adds every lane's writes
    with np.add.at, lane by lane.
    """
    cfg = model.config
    obj = _RefObjective(model)
    keep = subsample_keep_probs(model.vocab, cfg.subsample_t) if cfg.subsample_t else None
    total = cfg.epochs * sum(len(d.tokens) for d in docs)
    rng = np.random.default_rng([cfg.seed, 1])
    processed = emptied = 0
    for _ in range(cfg.epochs):
        batch = []
        for di in rng.permutation(len(docs)):
            doc = docs[di]
            alpha = cfg.alpha0 + (cfg.alpha_min - cfg.alpha0) * min(1.0, processed / total)
            processed += len(doc.tokens)
            toks = doc.tokens
            if keep is not None:
                toks = toks[rng.random(len(toks)) < keep[toks]]
            if len(toks) == 0:
                emptied += 1
                continue
            batch.append((toks, doc.doc_tag, np.array(alpha, dtype=np.float32)))
            if len(batch) == lanes or sum(len(t) for t, _, _ in batch) >= batch_tokens:
                _ref_lockstep(cfg.architecture, model, obj, batch, lanes, cfg.window, rng)
                batch = []
        if batch:
            _ref_lockstep(cfg.architecture, model, obj, batch, lanes, cfg.window, rng)
    return model, emptied


def _ref_lockstep(arch, model, obj, batch, lanes, window, rng):
    D, W, O = model.D, model.W, model.O
    widths = (rng.integers(1, window + 1, size=sum(len(t) for t, _, _ in batch))
              if arch != "dbow" else None)
    doc_steps, at = [], 0
    for toks, _, _ in batch:  # (word row or context, target) per step
        n, steps = len(toks), []
        cs = None if widths is None else widths[at : at + n]
        at += n
        for pos in range(n):
            if arch == "dbow":
                steps.append((None, toks[pos]))
            elif arch == "sg":
                steps += [(toks[pos], toks[j])
                          for j in range(max(0, pos - cs[pos]), min(n, pos + 1 + cs[pos]))
                          if j != pos]
            else:
                ctx = _ref_context(toks, pos, cs[pos])
                if arch == "dm" or len(ctx):
                    steps.append((ctx, toks[pos]))
        doc_steps.append([(src, obj.scored(t, rng)) for src, t in steps])
    L = max(1, -(-sum(map(len, doc_steps)) // lanes))
    runs = [(steps[a : a + L], tag, alpha) for steps, (_, tag, alpha) in zip(doc_steps, batch)
            for a in range(0, len(steps), L)]
    runs.sort(key=lambda run: -len(run[0]))
    for p in range(len(runs[0][0]) if runs else 0):
        D0, W0, O0 = D.copy(), W.copy(), O.copy()
        writes = []
        for steps, tag, alpha in runs:
            if p >= len(steps):
                continue
            src, (rows, labels, live) = steps[p]
            if arch == "dbow":
                h = D0[tag]
            elif arch == "sg":
                h = W0[src]
            else:
                nc = np.float32(len(src) + (arch == "dm"))
                h = W0[src].sum(axis=0) + D0[tag] if arch == "dm" else W0[src].sum(axis=0)
                h = h / nc
            g, e = _Objective.gradient(h, O0[rows], labels, alpha * live)
            writes.append((O, rows, g[:, None] * h))
            if arch in ("dm", "cbow"):
                e = e / nc
                writes.append((W, src, e))
            elif arch == "sg":
                writes.append((W, [src], e[None]))
            if arch in ("dm", "dbow"):
                writes.append((D, [tag], e[None]))
        for M, ids, v in writes:
            np.add.at(M, ids, v)


def _ref_loss_estimate(model, docs, probe_seed):
    cfg = model.config
    obj = _RefObjective(model)
    rng = np.random.default_rng([probe_seed, 5])
    D, W = model.D, model.W
    total = 0.0
    count = 0
    for doc in docs:
        toks = doc.tokens
        n = len(toks)
        if cfg.architecture == "dbow":
            for pos in range(n):
                total += obj.loss(D[doc.doc_tag], toks[pos], rng)
                count += 1
            continue
        cs = rng.integers(1, cfg.window + 1, size=n)
        for pos in range(n):
            if cfg.architecture == "sg":
                for j in range(max(0, pos - cs[pos]), min(n, pos + 1 + cs[pos])):
                    if j != pos:
                        total += obj.loss(W[toks[pos]], toks[j], rng)
                        count += 1
                continue
            ctx = _ref_context(toks, pos, cs[pos])
            if cfg.architecture == "dm":
                h = (W[ctx].sum(axis=0) + D[doc.doc_tag]) / np.float32(len(ctx) + 1)
            elif len(ctx):  # cbow
                h = W[ctx].sum(axis=0) / np.float32(len(ctx))
            else:
                continue
            total += obj.loss(h, toks[pos], rng)
            count += 1
    return total / count


def _ref_batched_loss_estimate(model, docs, probe_seed, lanes, batch_tokens):
    """The loss probe in training's batches: ``lanes`` documents, or fewer
    once a batch holds ``batch_tokens`` tokens; returns the loss and the
    number of batches.

    A batch draws the window widths of all its documents in one call, then
    each step's negatives one step at a time, in document and position
    order, as _ref_lockstep does. Each step is scored on its own.
    """
    cfg = model.config
    arch = cfg.architecture
    obj = _RefObjective(model)
    rng = np.random.default_rng([probe_seed, 5])
    D, W = model.D, model.W
    batches, batch = [], []
    for doc in docs:
        batch.append(doc)
        if len(batch) == lanes or sum(len(d.tokens) for d in batch) >= batch_tokens:
            batches.append(batch)
            batch = []
    if batch:
        batches.append(batch)
    total = 0.0
    count = 0
    for batch in batches:
        widths = (rng.integers(1, cfg.window + 1, size=sum(len(d.tokens) for d in batch))
                  if arch != "dbow" else None)
        at = 0
        for doc in batch:
            toks, tag = doc.tokens, doc.doc_tag
            n = len(toks)
            cs = None if widths is None else widths[at : at + n]
            at += n
            steps = []  # (h, target)
            for pos in range(n):
                if arch == "dbow":
                    steps.append((D[tag], toks[pos]))
                elif arch == "sg":
                    steps += [(W[toks[pos]], toks[j])
                              for j in range(max(0, pos - cs[pos]), min(n, pos + 1 + cs[pos]))
                              if j != pos]
                else:
                    ctx = _ref_context(toks, pos, cs[pos])
                    if arch == "dm":
                        steps.append(((W[ctx].sum(axis=0) + D[tag]) / np.float32(len(ctx) + 1),
                                      toks[pos]))
                    elif len(ctx):  # cbow
                        steps.append((W[ctx].sum(axis=0) / np.float32(len(ctx)), toks[pos]))
            for h, target in steps:
                total += obj.loss(h, target, rng)
                count += 1
    return total / count, len(batches)


def _ref_infer_docs(model, token_lists, infer_epochs, seed):
    cfg = model.config
    rng = np.random.default_rng([seed, 3])
    bound = 0.5 / cfg.dim
    vec = rng.uniform(-bound, bound, cfg.dim).astype(np.float32)
    obj = _RefObjective(model)
    W = model.W
    alpha0 = cfg.alpha0
    alpha_min = alpha0 / 10_000.0
    total = infer_epochs * sum(len(t) for t in token_lists)
    processed = 0
    for _ in range(infer_epochs):
        for toks in token_lists:
            alpha = alpha0 + (alpha_min - alpha0) * (processed / total)
            processed += len(toks)
            n = len(toks)
            if cfg.architecture == "dbow":
                for pos in range(n):
                    vec += obj.apply(vec, toks[pos], alpha, rng, learn_hidden=False)
                continue
            cs = rng.integers(1, cfg.window + 1, size=n)
            for pos in range(n):
                ctx = _ref_context(toks, pos, cs[pos])
                nc = len(ctx) + 1
                h = (W[ctx].sum(axis=0) + vec) / np.float32(nc)
                e = obj.apply(h, toks[pos], alpha, rng, learn_hidden=False)
                vec += e / np.float32(nc)
    return vec


def _ref_batched_infer_docs(model, token_lists, infer_epochs, seed, lanes, batch_tokens):
    """Inference in training's batches: the schedule of ``infer_epochs``
    passes over ``token_lists`` cut into batches of ``lanes`` passes, or
    fewer once a batch holds ``batch_tokens`` tokens; returns the vector
    and the number of batches.

    Under dm a batch draws the window widths of all its passes in one call.
    Then it walks their positions in order, each step drawing its own
    negatives and taking its pass's learning rate.
    """
    cfg = model.config
    rng = np.random.default_rng([seed, 3])
    bound = 0.5 / cfg.dim
    vec = rng.uniform(-bound, bound, cfg.dim).astype(np.float32)
    obj = _RefObjective(model)
    W = model.W
    alpha0 = cfg.alpha0
    alpha_min = alpha0 / 10_000.0
    total = infer_epochs * sum(len(t) for t in token_lists)
    batches, batch, processed = [], [], 0
    for _ in range(infer_epochs):
        for toks in token_lists:
            batch.append((toks, alpha0 + (alpha_min - alpha0) * (processed / total)))
            processed += len(toks)
            if len(batch) == lanes or sum(len(t) for t, _ in batch) >= batch_tokens:
                batches.append(batch)
                batch = []
    if batch:
        batches.append(batch)
    for batch in batches:
        if cfg.architecture == "dm":
            widths = rng.integers(1, cfg.window + 1, size=sum(len(t) for t, _ in batch))
        at = 0
        for toks, alpha in batch:
            for pos in range(len(toks)):
                if cfg.architecture == "dbow":
                    vec += obj.apply(vec, toks[pos], alpha, rng, learn_hidden=False)
                    continue
                ctx = _ref_context(toks, pos, widths[at + pos])
                nc = len(ctx) + 1
                h = (W[ctx].sum(axis=0) + vec) / np.float32(nc)
                e = obj.apply(h, toks[pos], alpha, rng, learn_hidden=False)
                vec += e / np.float32(nc)
            at += len(toks)
    return vec, len(batches)


# Vocabulary counts, document lengths and config overrides of the cases
# that stress the planned walk; documents draw their tokens uniformly.
_PLAN_CASES = {
    # one token holds ~99.9% of the count^0.75 mass: draws keep hitting
    # the target, most such steps skip all their draws, noise rows repeat
    "skewed": ([100_000, 3, 2, 2, 1, 1], [1, 2, 9, 30, 14], {}),
    "negative=1": ([5 + i for i in range(10)], [1, 2, 5, 9, 14], {"negative": 1}),
    "negative=9": ([5 + i for i in range(10)], [1, 2, 5, 9, 14], {"negative": 9}),
    "window wider than every document": ([5, 6, 7, 8, 9], [1, 2, 5, 9], {"window": 40}),
    "length-1 documents": ([5, 6, 7, 8, 9], [1, 1, 1, 1], {}),
}


def _plan_case(case, arch, objective):
    """The vocabulary, documents and config of one ``_PLAN_CASES`` entry."""
    counts, lengths, extra = _PLAN_CASES[case]
    vocab = build_vocabulary({f"t{i}": c for i, c in enumerate(counts)})
    rng = np.random.default_rng(8)
    docs = [_doc(tag % 3, rng.integers(0, len(counts), n))
            for tag, n in enumerate(lengths)]
    cfg = TrainConfig(**{**dict(architecture=arch, dim=5, window=3,
                                objective=objective, negative=3, epochs=3,
                                alpha0=0.1, seed=13), **extra})
    return vocab, docs, cfg


def _last_rng(monkeypatch):
    """Record every generator numpy.random.default_rng makes, last one last."""
    made, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: made.append(make(seed)) or made[-1])
    return made


class TestWalkerMatchesReference:
    """One lane is the sequential walk: train at ``_LANES = 1``."""

    @pytest.fixture(autouse=True)
    def _one_lane(self, monkeypatch):
        monkeypatch.setattr(embedding, "_LANES", 1)

    @pytest.mark.parametrize("subsample_t", [0.0, 0.05])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    def test_train_loss_and_inference_are_bitwise_equal(self, arch, objective,
                                                        subsample_t):
        vocab = _vocab(10)
        rng = np.random.default_rng(21)
        # lengths 1 and 2 reach the dm no-context and cbow skip branches
        docs = [_doc(tag % 4, rng.integers(0, 10, n)) for tag, n in
                enumerate([1, 2, 5, 9, 14, 7])]
        cfg = TrainConfig(architecture=arch, dim=6, window=3, objective=objective,
                          negative=3, subsample_t=subsample_t, epochs=3,
                          alpha0=0.1, seed=13)
        lib = train(init_model(vocab, 4, cfg), docs)
        ref = _ref_train(init_model(vocab, 4, cfg), docs)
        assert np.array_equal(lib.D, ref.D)
        assert np.array_equal(lib.W, ref.W)
        assert np.array_equal(lib.O, ref.O)
        assert loss_estimate(lib, docs, probe_seed=4) == _ref_loss_estimate(ref, docs, 4)
        if arch in ("dm", "dbow"):
            lists = [docs[3].tokens, docs[0].tokens, docs[4].tokens]
            assert np.array_equal(infer_docs(lib, lists, infer_epochs=4, seed=6),
                                  _ref_infer_docs(ref, lists, 4, 6))

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    @pytest.mark.parametrize("case", list(_PLAN_CASES))
    def test_train_loss_inference_and_generator_state_match(self, case, arch,
                                                            objective, monkeypatch):
        vocab, docs, cfg = _plan_case(case, arch, objective)
        lengths = [len(d.tokens) for d in docs]
        made = _last_rng(monkeypatch)
        lib = train(init_model(vocab, 3, cfg), docs)
        lib_rng = made[-1]
        ref = _ref_train(init_model(vocab, 3, cfg), docs)
        assert lib_rng.random() == made[-1].random()
        assert np.array_equal(lib.D, ref.D)
        assert np.array_equal(lib.W, ref.W)
        assert np.array_equal(lib.O, ref.O)
        if arch in ("cbow", "sg") and max(lengths) == 1:  # nothing to score
            with pytest.raises(DataError, match="no scoreable positions"):
                loss_estimate(lib, docs, probe_seed=4)
        else:
            expected = _ref_loss_estimate(ref, docs, 4)
            assert loss_estimate(lib, docs, probe_seed=4) == expected
        if arch in ("dm", "dbow"):
            lists = [d.tokens for d in docs[::-1]]
            vec = infer_docs(lib, lists, infer_epochs=3, seed=6)
            lib_rng = made[-1]
            assert np.array_equal(vec, _ref_infer_docs(ref, lists, 3, 6))
            assert lib_rng.random() == made[-1].random()

    @pytest.mark.parametrize("cells", [1, 7, 150])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    @pytest.mark.parametrize("case", list(_PLAN_CASES))
    def test_frozen_passes_split_into_chunks_match(self, case, arch, objective, cells,
                                                   monkeypatch):
        # budgets this small gather one step, or a few, per chunk
        monkeypatch.setattr(embedding, "_GATHER_CELLS", cells)
        vocab, docs, cfg = _plan_case(case, arch, objective)
        model = train(init_model(vocab, 3, cfg), docs)
        if arch in ("cbow", "sg") and max(len(d.tokens) for d in docs) == 1:
            return  # nothing to score or infer
        assert loss_estimate(model, docs, probe_seed=4) == \
            _ref_loss_estimate(model, docs, 4)
        if arch in ("dm", "dbow"):
            lists = [d.tokens for d in docs[::-1]]
            assert np.array_equal(infer_docs(model, lists, infer_epochs=3, seed=6),
                                  _ref_infer_docs(model, lists, 3, 6))

    @pytest.mark.parametrize("cells", [1, 7, 150, None])
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    def test_probe_chunks_spanning_documents_match(self, arch, objective, skewed, cells,
                                                   monkeypatch):
        # Huffman paths of several lengths give ragged row counts under hs,
        # and so do the lost draws of the skewed vocabulary under ns; the
        # length-1 documents score no cbow or sg step and sit between
        # documents that do. The probe plans one batch at a time: a
        # document each, batches closed by count or by tokens (6 + 1 + 11
        # reaches 18 exactly, then 1 + 1 + 3 + 25, then 1 + 2), or all at
        # once.
        if cells is not None:
            monkeypatch.setattr(embedding, "_GATHER_CELLS", cells)
        vocab = build_vocabulary({f"t{i}": 100_000 if skewed and i == 0 else 5 + i
                                  for i in range(10)})
        rng = np.random.default_rng(9)
        docs = [_doc(tag % 3, rng.integers(0, 10, n)) for tag, n in
                enumerate([6, 1, 11, 1, 1, 3, 25, 1, 2])]
        cfg = TrainConfig(architecture=arch, dim=5, window=3, objective=objective,
                          negative=3, epochs=2, alpha0=0.1, seed=3)
        model = train(init_model(vocab, 3, cfg), docs)
        plans, plan = [], embedding._plan
        monkeypatch.setattr(embedding, "_plan", lambda *a: plans.append(1) or plan(*a))
        for lanes, batch_tokens, batches in [(1, 4096, 9), (4, 4096, 3), (64, 18, 3),
                                             (64, 4096, 1)]:
            monkeypatch.setattr(embedding, "_LANES", lanes)
            monkeypatch.setattr(embedding, "_BATCH_TOKENS", batch_tokens)
            plans.clear()
            value = loss_estimate(model, docs, probe_seed=2)
            assert (value, len(plans)) == \
                _ref_batched_loss_estimate(model, docs, 2, lanes, batch_tokens)
            assert len(plans) == batches
            if lanes == 1:  # a document per batch is the per-document walk
                assert value == _ref_loss_estimate(model, docs, 2)

    @pytest.mark.parametrize("cells", [1, 7, 150])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow"])
    @pytest.mark.parametrize("case", list(_PLAN_CASES))
    def test_inference_batches_of_passes_match(self, case, arch, objective, cells,
                                               monkeypatch):
        # Inference plans its passes in training's batches: a pass each,
        # four at once, batches closed by tokens, or all at once. Only
        # dm/ns draws differently from the per-pass walk: a batch takes all
        # its widths before its negatives.
        monkeypatch.setattr(embedding, "_GATHER_CELLS", cells)
        vocab, docs, cfg = _plan_case(case, arch, objective)
        model = train(init_model(vocab, 3, cfg), docs)
        lists = [d.tokens for d in docs[::-1]]
        made = _last_rng(monkeypatch)
        plans, plan = [], embedding._plan
        monkeypatch.setattr(embedding, "_plan", lambda *a: plans.append(1) or plan(*a))
        for lanes, batch_tokens in [(1, 4096), (4, 4096), (64, 18), (64, 4096)]:
            monkeypatch.setattr(embedding, "_LANES", lanes)
            monkeypatch.setattr(embedding, "_BATCH_TOKENS", batch_tokens)
            plans.clear()
            vec = infer_docs(model, lists, infer_epochs=3, seed=6)
            lib_rng = made[-1]
            want, batches = _ref_batched_infer_docs(model, lists, 3, 6, lanes,
                                                    batch_tokens)
            assert np.array_equal(vec, want)
            assert lib_rng.random() == made[-1].random()
            assert len(plans) == batches
            if lanes == 1 or arch == "dbow" or objective == "hs":
                assert np.array_equal(vec, _ref_infer_docs(model, lists, 3, 6))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_frozen_context_sums_match_numpy_sums(self, dim):
        rng = np.random.default_rng(dim)
        # mixed magnitudes show any change of summation order in the bits
        # (dim 1 gathers of 8+ rows, which numpy sums pairwise, included);
        # signed zeros and empty contexts check the zero signs
        W = (rng.normal(size=(7, dim)) * 10.0 ** rng.integers(-6, 6, (7, dim))
             ).astype(np.float32)
        W[0], W[1, 0], W[2, 0] = -0.0, 0.0, -0.0
        ctx = rng.integers(0, 7, (300, 12))
        valid = rng.random((300, 12)) < 0.6
        valid[:20] = False  # empty contexts sum to +0.0
        ctx[20:40] = rng.choice([0, 2], (20, 12))  # sums of -0.0 in column 0
        # slots outside the window read the -0.0 row appended to W, or in an
        # empty context the +0.0 row
        outside = np.where(valid.any(axis=1), -1, -2)[:, None]
        sums = _context_sums(embedding._with_sentinel(W), np.where(valid, ctx, outside))
        for c, v, s in zip(ctx, valid, sums):
            assert s.tobytes() == W[c[v]].sum(axis=0).tobytes()


class TestCountedProbe:
    """The probe of an untrained model, one lane: the per-document walk."""

    @pytest.fixture(autouse=True)
    def _one_lane(self, monkeypatch):
        monkeypatch.setattr(embedding, "_LANES", 1)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    @pytest.mark.parametrize("case", list(_PLAN_CASES))
    def test_untrained_probe_counts_its_scored_rows(self, case, arch, objective,
                                                    monkeypatch):
        # O is all zero before training, so every scored row costs ln 2 and
        # the probe builds no hidden vector
        vocab, docs, cfg = _plan_case(case, arch, objective)
        model = init_model(vocab, 3, cfg)
        if arch in ("cbow", "sg") and max(len(d.tokens) for d in docs) == 1:
            return  # nothing to score
        expected = _ref_loss_estimate(model, docs, 4)
        monkeypatch.setattr(embedding, "_hidden", None)
        assert loss_estimate(model, docs, probe_seed=4) == expected


class TestLanesMatchReference:
    """Several lanes: the library against the lockstep reference."""

    @pytest.mark.parametrize("batch_tokens", [4096, 10])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    @pytest.mark.parametrize("case", list(_PLAN_CASES))
    def test_three_lanes_match_the_lockstep_reference(self, case, arch, objective,
                                                      batch_tokens, monkeypatch):
        # 10 tokens close batches before they hold three documents
        monkeypatch.setattr(embedding, "_LANES", 3)
        monkeypatch.setattr(embedding, "_BATCH_TOKENS", batch_tokens)
        vocab, docs, cfg = _plan_case(case, arch, objective)
        made = _last_rng(monkeypatch)
        lib = train(init_model(vocab, 3, cfg), docs)
        lib_rng = made[-1]
        ref, _ = _ref_train_lanes(init_model(vocab, 3, cfg), docs, 3, batch_tokens)
        assert lib_rng.random() == made[-1].random()
        assert np.array_equal(lib.D, ref.D)
        assert np.array_equal(lib.W, ref.W)
        assert np.array_equal(lib.O, ref.O)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    def test_one_dimension_matches(self, arch, objective, monkeypatch):
        # numpy sums 8 or more one-element rows pairwise; contexts here
        # reach 20 rows
        monkeypatch.setattr(embedding, "_LANES", 3)
        vocab = _vocab(10)
        rng = np.random.default_rng(5)
        docs = [_doc(tag % 2, rng.integers(0, 10, n)) for tag, n in
                enumerate([25, 3, 14, 30, 1])]
        cfg = TrainConfig(architecture=arch, dim=1, window=10, objective=objective,
                          negative=3, epochs=2, alpha0=0.1, seed=4)
        lib = train(init_model(vocab, 2, cfg), docs)
        ref, _ = _ref_train_lanes(init_model(vocab, 2, cfg), docs, 3,
                                  embedding._BATCH_TOKENS)
        assert np.array_equal(lib.D, ref.D)
        assert np.array_equal(lib.W, ref.W)
        assert np.array_equal(lib.O, ref.O)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    def test_lanes_sharing_a_tag_and_emptied_documents_match(self, arch, objective,
                                                              monkeypatch):
        # every batch holds phase documents of one sequence (one tag), and
        # documents of the dominant token alone are often subsampled away
        monkeypatch.setattr(embedding, "_LANES", 4)
        vocab = build_vocabulary({f"t{i}": c for i, c in
                                  enumerate([400, 30, 20, 20, 10, 10, 5, 5])})
        rng = np.random.default_rng(3)
        docs = [_doc(0, rng.integers(0, 8, n)) for n in (12, 7, 9, 3)]
        docs += [_doc(1, [0] * n) for n in (1, 2, 1, 3)]
        cfg = TrainConfig(architecture=arch, dim=5, window=3, objective=objective,
                          negative=3, subsample_t=0.01, epochs=6, alpha0=0.1, seed=2)
        lib = train(init_model(vocab, 2, cfg), docs)
        ref, emptied = _ref_train_lanes(init_model(vocab, 2, cfg), docs, 4,
                                        embedding._BATCH_TOKENS)
        assert emptied > 0
        assert np.array_equal(lib.D, ref.D)
        assert np.array_equal(lib.W, ref.W)
        assert np.array_equal(lib.O, ref.O)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_scatter_sums_repeats_as_add_at(self, dim):
        rng = np.random.default_rng(dim)
        M = (rng.normal(size=(30, dim)) * 10.0 ** rng.integers(-4, 4, (30, dim))
             ).astype(np.float32)
        lengths = [0, 1, 5, 40, 12, 0, 90]
        bounds = [0, *np.cumsum(lengths).tolist()]
        ids = np.concatenate([rng.integers(0, m, n) for m, n in
                              zip([3, 30, 30, 4, 30, 5, 12], lengths)]).astype(np.intp)
        vals = (rng.normal(size=(len(ids), dim)) * 10.0 ** rng.integers(-4, 4, (len(ids), dim))
                ).astype(np.float32)
        lib, ref = M.copy(), M.copy()
        for b0, b1 in zip(bounds, bounds[1:]):
            embedding._add_rows(lib.reshape(-1), ids[b0:b1] * dim,
                                np.tile(np.arange(dim), b1 - b0), vals[b0:b1])
            np.add.at(ref, ids[b0:b1], vals[b0:b1])
            assert lib.tobytes() == ref.tobytes()


class TestDrawRuleMatchesReference:
    """The planner's draw rule (``_negative_steps``) against the per-draw loop."""

    @staticmethod
    def _skewed_vocab():
        return build_vocabulary({f"t{i}": c for i, c in
                                 enumerate(_PLAN_CASES["skewed"][0])})

    @pytest.mark.parametrize("negative", [1, 3, 9])
    @pytest.mark.parametrize("skewed", [True, False])
    def test_one_step_matches_the_per_draw_loop(self, skewed, negative):
        vocab = self._skewed_vocab() if skewed else _vocab(3)
        table, short = vocab.sampling_table, 0
        for seed in range(60):
            for target in range(len(vocab)):
                lib_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _noise_rows(lib_rng, table, target, negative)
                want = _ref_draw_negatives(ref_rng, table, target, negative)
                assert got.dtype == want.dtype == np.intp
                assert got.tolist() == want.tolist()
                assert lib_rng.random() == ref_rng.random()
                short += len(got) < negative
        if skewed:  # some draws hit their target and were skipped
            assert short > 0

    @pytest.mark.parametrize("hits", [[400], [0], [499], [3, 255, 256, 257, 498]])
    def test_steps_around_hits_keep_their_bulk_draws(self, hits):
        # targets chosen so that only the steps in ``hits`` draw their own
        # target; every other step keeps the draws of the one bulk call
        vocab, n, S = _vocab(10), 3, 500
        table = vocab.sampling_table
        bulk = np.searchsorted(table, np.random.default_rng(4).random(n * S),
                               side="right").reshape(S, n)
        targets = np.array([row[0] if s in hits else min(set(range(10)) - set(row))
                            for s, row in enumerate(bulk)], dtype=np.intp)
        lib_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        rows, k = embedding._negative_steps(table, n, targets, lib_rng)
        assert rows.dtype == np.intp
        assert rows.shape == (S, 1 + n)
        for s, t in enumerate(targets):
            want = [t, *_ref_draw_negatives(ref_rng, table, t, n)]
            assert k[s] == len(want)
            assert rows[s, : k[s]].tolist() == want
            assert not rows[s, k[s] :].any()
        assert lib_rng.random() == ref_rng.random()
        # every step keeps its own n draws of the bulk call, less its target
        for s, t in enumerate(targets):
            assert rows[s, 1 : k[s]].tolist() == [j for j in bulk[s] if j != t]

    def test_steps_that_lost_draws_are_padded(self):
        # draws almost always hit target 0, so its steps skip every noise
        # row; the steps of targets 1 and 2 lose none
        vocab = build_vocabulary({"a": 10**9, "b": 1, "c": 1})
        cfg = TrainConfig(negative=3)
        targets = np.array([1, 0, 2, 0, 0, 1], dtype=np.intp)
        lib_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        rows, labels, k = _Objective(np.zeros((3, 2)), vocab, cfg).scored_steps(
            targets, lib_rng)
        assert rows.shape == labels.shape == (6, 4)
        assert labels.dtype == np.float32
        assert k.tolist() == [4, 1, 4, 1, 1, 4]
        for s, t in enumerate(targets):
            want = [t, *_ref_draw_negatives(ref_rng, vocab.sampling_table, t, 3)]
            assert rows[s, : k[s]].tolist() == want
            assert labels[s].tolist() == [1.0, 0.0, 0.0, 0.0]
            assert not rows[s, k[s] :].any()
        assert lib_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("negative", [1, 3, 9])
    def test_objective_gradient_draws_by_the_same_rule(self, negative):
        vocab = self._skewed_vocab()
        model = init_model(vocab, 1, TrainConfig(dim=4, negative=negative, seed=0))
        model.O[:] = np.random.default_rng(1).normal(size=model.O.shape)
        h = np.random.default_rng(2).normal(size=4)
        for seed in range(10):
            for target in range(len(vocab)):
                negs = _ref_draw_negatives(np.random.default_rng(seed),
                                           vocab.sampling_table, target, negative)
                loss, grad_h, row_grads = objective_gradient(
                    h, target, model, rng=np.random.default_rng(seed))
                ref_loss, ref_grad_h, ref_row_grads = objective_gradient(
                    h, target, model, negatives=negs)
                assert loss == ref_loss
                assert np.array_equal(grad_h, ref_grad_h)
                assert sorted(row_grads) == sorted(ref_row_grads)
                for row, grad in row_grads.items():
                    assert np.array_equal(grad, ref_row_grads[row])


class TestGuideTable:
    """Negative draws through the guide table equal the binary search."""

    @pytest.mark.parametrize("skewed", [True, False])
    def test_guide_table_draws_at_every_bucket_edge(self, skewed):
        # u = j/T and its float neighbours for every bucket j, the last
        # bucket's top, and the table's own entries and their neighbours;
        # target -1 skips no draw
        vocab = TestDrawRuleMatchesReference._skewed_vocab() if skewed else _vocab(7)
        table, guide = vocab.sampling_table, vocab.guide
        T = len(guide)
        assert T == 1 << (16 * len(vocab) - 1).bit_length() and T >= 16 * len(vocab)
        edges = np.concatenate((np.arange(T) / T, table[:-1]))
        u = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [np.nextafter(1.0, 0.0)]))
        u = u[(u >= 0.0) & (u < 1.0)]

        class Uniforms:  # a generator that draws the uniforms u
            def random(self, shape):
                return u.reshape(shape)

        rows, k = embedding._negative_steps(table, 1, np.full(len(u), -1), Uniforms(),
                                            guide)
        assert (k == 2).all()
        assert rows[:, 1].tolist() == np.searchsorted(table, u, side="right").tolist()
        # the buckets that hold a table entry are searched; the rest are not
        searched = guide < 0
        assert 0 < searched.sum() <= len(vocab)
        assert searched[-1]  # the table's top entry, 1.0, bounds the last bucket
        assert np.array_equal(guide, guide_table(table))


@st.composite
def _small_cases(draw, archs=embedding.ARCHITECTURES):
    """A small corpus, a config and the budgets of ``_batches``, the lanes
    and the frozen gathers: (vocab, docs, document rows, cfg, budgets)."""
    objective = draw(st.sampled_from(embedding.OBJECTIVES))
    V = draw(st.integers(2 if objective == "hs" else 1, 30))
    shape = draw(st.sampled_from(["flat", "uneven", "skewed"]))
    counts = [5] * V if shape == "flat" else draw(st.lists(st.integers(1, 9),
                                                            min_size=V, max_size=V))
    if shape == "skewed":  # one token holds nearly all the count^0.75 mass
        counts[draw(st.integers(0, V - 1))] = 100_000
    vocab = build_vocabulary({f"t{i:02d}": c for i, c in enumerate(counts)})
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    rows = draw(st.integers(1, len(lengths)))  # documents share rows of D
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    docs = [_doc(i % rows, rng.integers(0, V, n)) for i, n in enumerate(lengths)]
    cfg = TrainConfig(architecture=draw(st.sampled_from(archs)),
                      dim=draw(st.sampled_from([1, 2, 5])), window=draw(st.integers(1, 6)),
                      objective=objective, negative=draw(st.integers(1, 9)),
                      subsample_t=draw(st.sampled_from([0.0, 0.001, 0.05])),
                      epochs=draw(st.integers(1, 2)), alpha0=0.1,
                      seed=draw(st.integers(0, 2**16)))
    budgets = {"_LANES": draw(st.sampled_from([1, 2, 3, 64])),
               "_BATCH_TOKENS": draw(st.sampled_from([1, 10, 4096])),
               "_GATHER_CELLS": draw(st.sampled_from([1, 7, 150, 1 << 15]))}
    return vocab, docs, rows, cfg, budgets


def _patched(mp, budgets):
    """Set the module budgets on ``mp``; returns the lanes and batch tokens."""
    for name, value in budgets.items():
        mp.setattr(embedding, name, value)
    return budgets["_LANES"], budgets["_BATCH_TOKENS"]


def _scrambled(model, seed):
    """The model with D, W and O redrawn from N(0, 0.4^2), as float32."""
    rng = np.random.default_rng(seed)
    for M in (model.D, model.W, model.O):
        M[:] = 0.4 * rng.normal(size=M.shape)
    return model


class TestDifferentialProperties:
    """Training, the loss probe, inference and the negative draws against
    their references, bit for bit, on drawn corpora, configs and budgets.
    The budgets are patched inside each example, as a function-scoped
    fixture would outlive it."""

    @settings(max_examples=40)
    @given(_small_cases())
    def test_train_matches_the_lockstep_reference(self, case):
        vocab, docs, rows, cfg, budgets = case
        with pytest.MonkeyPatch.context() as mp:
            lanes, batch_tokens = _patched(mp, budgets)
            made = _last_rng(mp)
            lib = train(init_model(vocab, rows, cfg), docs)
            lib_rng = made[-1]
            ref, _ = _ref_train_lanes(init_model(vocab, rows, cfg), docs, lanes,
                                      batch_tokens)
            assert lib_rng.random() == made[-1].random()
        for M, R in ((lib.D, ref.D), (lib.W, ref.W), (lib.O, ref.O)):
            assert M.tobytes() == R.tobytes()

    @settings(max_examples=40)
    @given(_small_cases(), st.integers(0, 2**16))
    def test_loss_estimate_matches_the_batched_reference(self, case, seed):
        vocab, docs, rows, cfg, budgets = case
        model = init_model(vocab, rows, cfg)
        scoreable = cfg.architecture in embedding.DOC_ARCHITECTURES or max(
            len(d.tokens) for d in docs) > 1
        with pytest.MonkeyPatch.context() as mp:
            lanes, batch_tokens = _patched(mp, budgets)
            for m in (model, _scrambled(model, seed)):  # O all zero, then not
                if not scoreable:
                    with pytest.raises(DataError, match="no scoreable positions"):
                        loss_estimate(m, docs, probe_seed=seed)
                    continue
                want, _ = _ref_batched_loss_estimate(m, docs, seed, lanes, batch_tokens)
                assert loss_estimate(m, docs, probe_seed=seed) == want

    @settings(max_examples=40)
    @given(_small_cases(archs=embedding.DOC_ARCHITECTURES), st.integers(1, 3), st.integers(0, 2**16))
    def test_infer_docs_matches_the_batched_reference(self, case, epochs, seed):
        vocab, docs, rows, cfg, budgets = case
        model = _scrambled(init_model(vocab, rows, cfg), seed)
        lists = [d.tokens for d in docs[::-1]]
        with pytest.MonkeyPatch.context() as mp:
            lanes, batch_tokens = _patched(mp, budgets)
            want, _ = _ref_batched_infer_docs(model, lists, epochs, seed, lanes,
                                              batch_tokens)
            assert infer_docs(model, lists, epochs, seed).tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(_small_cases(), st.integers(1, 200), st.integers(0, 2**16))
    def test_guide_table_draws_match_the_binary_search(self, case, steps, seed):
        vocab, cfg = case[0], case[3]
        table = vocab.sampling_table
        targets = np.random.default_rng(seed).integers(-1, len(vocab), steps)
        lib_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows, k = embedding._negative_steps(table, cfg.negative, targets, lib_rng,
                                            vocab.guide)
        for s, t in enumerate(targets.tolist()):
            want = [t, *_ref_draw_negatives(ref_rng, table, t, cfg.negative).tolist()]
            assert rows[s, : k[s]].tolist() == want
            assert not rows[s, k[s] :].any()
        assert lib_rng.random() == ref_rng.random()


def _repetitive_docs(n_docs=2):
    return [_doc(tag, [0, 1, 0, 1]) for tag in range(n_docs)]


class TestTrain:
    def test_loss_lower_after_fifty_epochs_than_after_one(self):
        vocab = _vocab(6)
        docs = [_doc(0, [0, 1, 0, 1])]
        base = dict(architecture="dm", dim=8, objective="ns", negative=2,
                    alpha0=0.05, seed=3)
        one = train(init_model(vocab, 1, TrainConfig(**base, epochs=1)), docs)
        fifty = train(init_model(vocab, 1, TrainConfig(**base, epochs=50)), docs)
        l_one = loss_estimate(one, docs, probe_seed=9)
        l_fifty = loss_estimate(fifty, docs, probe_seed=9)
        assert l_fifty < l_one

    def test_single_token_document_dm_trains_without_error(self):
        vocab = _vocab(4)
        cfg = TrainConfig(architecture="dm", dim=4, window=1, epochs=3, seed=0)
        model = train(init_model(vocab, 1, cfg), [_doc(0, [2])])
        assert np.isfinite(model.D).all()

    def test_dbow_separates_two_synthetic_families(self):
        # two disjoint token inventories; within-family cosine should beat
        # across-family cosine on average
        vocab = _vocab(8)
        docs = []
        rng = np.random.default_rng(0)
        for tag in range(10):
            pool = [0, 1, 2, 3] if tag < 5 else [4, 5, 6, 7]
            docs.append(_doc(tag, rng.choice(pool, 30)))
        cfg = TrainConfig(architecture="dbow", dim=12, objective="ns", negative=4,
                          epochs=40, alpha0=0.05, seed=2)
        model = train(init_model(vocab, 10, cfg), docs)
        Dn = model.D / np.linalg.norm(model.D, axis=1, keepdims=True)
        sims = Dn @ Dn.T
        within = np.concatenate(
            [sims[:5, :5][np.triu_indices(5, 1)], sims[5:, 5:][np.triu_indices(5, 1)]]
        )
        across = sims[:5, 5:].ravel()
        assert within.mean() > across.mean()

    def test_dbow_leaves_word_matrix_at_initialization(self):
        vocab = _vocab(6)
        cfg = TrainConfig(architecture="dbow", dim=6, epochs=5, seed=1)
        model = init_model(vocab, 2, cfg)
        w_before = model.W.copy()
        train(model, _repetitive_docs())
        assert np.array_equal(model.W, w_before)

    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    def test_single_worker_training_is_deterministic(self, arch, objective):
        vocab = _vocab(6)
        cfg = TrainConfig(architecture=arch, dim=5, objective=objective,
                          negative=2, epochs=3, seed=11)
        docs = [_doc(0, [0, 1, 2, 3]), _doc(1, [2, 3, 4, 5])]
        a = train(init_model(vocab, 2, cfg), docs)
        b = train(init_model(vocab, 2, cfg), docs)
        assert np.array_equal(a.D, b.D)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.O, b.O)

    @pytest.mark.parametrize("arch", ["dm", "dbow", "cbow", "sg"])
    @pytest.mark.parametrize("objective", ["ns", "hs"])
    def test_matrices_that_are_not_c_contiguous_train_in_place(self, arch, objective):
        # training writes through flat views, which these matrices lack
        vocab = _vocab(6)
        cfg = TrainConfig(architecture=arch, dim=5, objective=objective,
                          negative=2, epochs=3, seed=11)
        docs = [_doc(0, [0, 1, 2, 3, 1]), _doc(1, [2, 3, 4, 5])]
        ref = train(init_model(vocab, 2, cfg), docs)
        model = init_model(vocab, 2, cfg)
        wide = np.zeros((len(vocab), 2 * cfg.dim), dtype=np.float32)
        wide[:, ::2] = model.W
        D, W, O = np.asfortranarray(model.D), wide[:, ::2], np.asfortranarray(model.O)
        model.D, model.W, model.O = D, W, O
        train(model, docs)
        assert model.D is D and model.W is W and model.O is O
        assert D.tobytes() == ref.D.tobytes()
        assert W.tobytes() == ref.W.tobytes()
        assert O.tobytes() == ref.O.tobytes()
        assert not wide[:, 1::2].any()

    def test_parameters_stay_finite_at_maximum_learning_rate(self):
        vocab = _vocab(6)
        cfg = TrainConfig(architecture="dm", dim=6, alpha0=1.0, epochs=10, seed=0)
        model = train(init_model(vocab, 2, cfg), _repetitive_docs())
        for matrix in (model.D, model.W, model.O):
            assert np.isfinite(matrix).all()

    def test_subsampling_path_trains(self):
        vocab = _vocab(4)
        cfg = TrainConfig(architecture="dm", dim=4, subsample_t=1e-2, epochs=3,
                          seed=5)
        model = train(init_model(vocab, 2, cfg), _repetitive_docs())
        assert np.isfinite(model.D).all()

    def test_workers_other_than_one_rejected(self):
        for workers in (0, 2, 3):
            with pytest.raises(ConfigError, match="workers"):
                TrainConfig(architecture="dm", dim=6, epochs=4, seed=0, workers=workers)

    def test_empty_document_list_rejected(self):
        model = init_model(_vocab(4), 1, TrainConfig(dim=3))
        with pytest.raises(DataError):
            train(model, [])

    def test_out_of_range_tokens_rejected(self):
        model = init_model(_vocab(4), 1, TrainConfig(dim=3))
        with pytest.raises(DataError, match="token ids"):
            train(model, [_doc(0, [0, 99])])


class TestLossEstimate:
    def test_untrained_ns_model_costs_log_two_per_scored_row(self):
        # O is all zeros, so every scored row costs ln 2; the rows are the
        # target and the draws that miss it, replayed on the probe's stream
        cfg = TrainConfig(architecture="dm", dim=6, objective="ns", negative=5,
                          seed=0)
        model = init_model(_vocab(6), 2, cfg)
        docs = _repetitive_docs()
        value = loss_estimate(model, docs, probe_seed=1)
        rng = np.random.default_rng([1, 5])
        toks = np.concatenate([d.tokens for d in docs])
        rng.integers(1, cfg.window + 1, size=len(toks))  # the batch's widths
        table = model.vocab.sampling_table
        rows = [1 + len(_ref_draw_negatives(rng, table, t, cfg.negative))
                for t in toks.tolist()]
        assert np.mean(rows) < 6
        assert value == pytest.approx(math.log(2) * np.mean(rows), rel=1e-12)

    def test_pure_given_probe_seed(self):
        cfg = TrainConfig(architecture="sg", dim=4, objective="ns", negative=3,
                          seed=0)
        model = init_model(_vocab(6), 2, cfg)
        model.O[:] = np.random.default_rng(0).normal(size=model.O.shape)
        a = loss_estimate(model, _repetitive_docs(), probe_seed=7)
        b = loss_estimate(model, _repetitive_docs(), probe_seed=7)
        assert a == b

    def test_hs_untrained_model_counts_path_lengths(self):
        cfg = TrainConfig(architecture="dbow", dim=4, objective="hs", seed=0)
        model = init_model(_vocab(2), 2, cfg)
        value = loss_estimate(model, _repetitive_docs(), probe_seed=0)
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_hs_code_arrays_built_once_per_vocabulary(self):
        # infer_docs and loss_estimate bind a fresh objective on every call
        cfg = TrainConfig(architecture="dm", dim=4, objective="hs", seed=0)
        model = init_model(_vocab(6), 2, cfg)
        huffman = model.vocab.huffman
        for _ in range(2):
            obj = _Objective(model.O, model.vocab, cfg)
            assert model.vocab.huffman is huffman
            assert obj.paths is huffman.path_table
            assert obj.path_labels is huffman.target_table
            assert obj.path_lengths is huffman.lengths


class TestInference:
    def _trained(self, architecture="dm", objective="ns"):
        vocab = _vocab(8)
        docs = []
        rng = np.random.default_rng(1)
        for tag in range(6):
            pool = [0, 1, 2, 3] if tag < 3 else [4, 5, 6, 7]
            docs.append(_doc(tag, rng.choice(pool, 40)))
        cfg = TrainConfig(architecture=architecture, dim=10, objective=objective,
                          epochs=30, alpha0=0.05, window=3, seed=4)
        return train(init_model(vocab, 6, cfg), docs), docs

    def test_inferred_vector_lands_near_its_training_document(self):
        model, docs = self._trained()
        vec = infer_docs(model, [docs[0].tokens], seed=8)

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert cos(vec, model.D[0]) > cos(vec, model.D[5])

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        # zero passes would return the seeded random draw for every input
        model, docs = self._trained()
        with pytest.raises(ConfigError, match=f"infer_epochs must be >= 1, got {epochs}"):
            infer_docs(model, [docs[0].tokens], infer_epochs=epochs, seed=3)

    def test_non_integer_epochs_rejected(self):
        model, docs = self._trained()
        with pytest.raises(ConfigError, match="^infer_epochs must be an integer, got 2.5$"):
            infer_docs(model, [docs[0].tokens], infer_epochs=2.5, seed=3)

    def test_deterministic_for_seed(self):
        model, docs = self._trained()
        a = infer_docs(model, [docs[2].tokens], seed=5)
        b = infer_docs(model, [docs[2].tokens], seed=5)
        assert np.array_equal(a, b)

    def test_unknown_tokens_dropped_and_all_unknown_rejected(self):
        model, docs = self._trained()
        mixed = np.array([0, 1, 500, 2], dtype=np.int32)
        assert np.isfinite(infer_docs(model, [mixed], seed=0)).all()
        with pytest.raises(DataError, match="no in-vocabulary"):
            infer_docs(model, [[500, 700]], seed=0)

    @pytest.mark.parametrize("large", [2**31, 2**32, 2**40, 2**64])
    def test_ids_too_large_for_int32_dropped(self, large):
        # ids are filtered before they are narrowed: 2**31 and above once
        # overflowed the int32 cast, or wrapped round to an in-vocabulary id
        model, _ = self._trained()
        want = infer_docs(model, [[0, 1, 2]], seed=0)
        assert np.array_equal(infer_docs(model, [[0, 1, large, 2]], seed=0), want)
        if large < 2**63:
            ids = np.array([0, 1, 2, large], dtype=np.int64)
            assert np.array_equal(infer_docs(model, [ids], seed=0), want)

    @pytest.mark.parametrize("ids", [[0.9, 1.2, 2.7], [True, False], ["1", "2"],
                                     np.array([0.0, 1.0]), [1, None], np.float64(1.5),
                                     [1, True]])
    def test_ids_that_are_not_integers_rejected(self, ids):
        # float ids were once truncated ([0.9, 1.2, 2.7] read as [0, 1, 2]),
        # bools read as 1 and 0, and strings failed inside numpy
        model, docs = self._trained()
        with pytest.raises(DataError, match="token list 1 holds ids that are not integers"):
            infer_docs(model, [docs[0].tokens, ids], seed=0)

    @pytest.mark.parametrize("ids", [[[0, 1], [2, 3]], [[1, True]], 5, [[0, 1], [2]]])
    def test_token_lists_that_are_not_flat_rejected(self, ids):
        # the first three once read as [0, 1, 2, 3], [1, 1] and [5]; numpy
        # raised its own ValueError for the ragged one
        model, docs = self._trained()
        with pytest.raises(DataError, match="token list 1 is not a flat list of ids"):
            infer_docs(model, [docs[0].tokens, ids], seed=0)

    def test_empty_lists_and_integers_past_int64_dropped(self):
        # [] is a float array and [0, 1, 2**63, 2] one too: both stay accepted
        model, _ = self._trained()
        want = infer_docs(model, [[0, 1, 2]], seed=0)
        for lists in ([[], [0, 1, 2]], [[0, 1, 2**63, 2]], [[0, -1, 2**64, 1, 2]]):
            assert np.array_equal(infer_docs(model, lists, seed=0), want)

    def test_a_query_is_planned_in_training_batches(self, monkeypatch):
        model, docs = self._trained()
        plans, plan = [], embedding._plan
        monkeypatch.setattr(embedding, "_plan", lambda *a: plans.append(1) or plan(*a))
        # three phase readings of 40 tokens, 60 passes in all: one batch
        infer_docs(model, [d.tokens for d in docs[:3]], infer_epochs=20, seed=0)
        assert len(plans) == 1
        # passes that each reach the batch's token budget: a batch each
        plans.clear()
        long = np.resize(docs[0].tokens, embedding._BATCH_TOKENS)
        infer_docs(model, [long, long[::-1]], infer_epochs=2, seed=0)
        assert len(plans) == 4

    def test_multi_document_inference_shares_one_vector(self):
        model, docs = self._trained()
        vec = infer_docs(model, [docs[0].tokens, docs[1].tokens], seed=2)
        assert vec.shape == (model.dim,)

    def test_word_architectures_cannot_infer(self):
        vocab = _vocab(4)
        cfg = TrainConfig(architecture="cbow", dim=4, epochs=2, seed=0)
        model = train(init_model(vocab, 1, cfg), [_doc(0, [0, 1, 2])])
        with pytest.raises(ConfigError, match="document pathway"):
            infer_docs(model, [[0, 1]], seed=0)

    @pytest.mark.parametrize("objective", ["ns", "hs"])
    @pytest.mark.parametrize("architecture", ["dm", "dbow"])
    def test_frozen_matrices_untouched_by_inference(self, architecture, objective):
        model, docs = self._trained(architecture, objective)
        d_before = model.D.copy()
        w_before = model.W.copy()
        o_before = model.O.copy()
        infer_docs(model, [docs[0].tokens, docs[4].tokens], seed=1)
        assert np.array_equal(model.D, d_before)
        assert np.array_equal(model.W, w_before)
        assert np.array_equal(model.O, o_before)

    @settings(max_examples=200)
    @given(st.lists(st.one_of(
        st.lists(st.integers(-3, 10), max_size=6),
        st.lists(st.integers(-2**70, 2**70), max_size=3),
        st.lists(st.integers(0, 7), max_size=4).map(np.array),
        st.lists(st.one_of(st.integers(-3, 8), st.booleans(), st.floats(),
                           st.text(max_size=2), st.none()), max_size=5),
        st.lists(st.lists(st.integers(0, 7), max_size=2), max_size=3),
        st.integers(0, 7), st.text(max_size=3)), max_size=4))
    def test_any_token_lists_yield_a_vector_or_a_seqvec_error(self, token_lists):
        model = init_model(_vocab(8), 1, TrainConfig(dim=3, epochs=1, seed=0))
        try:
            vec = infer_docs(model, token_lists, seed=0)
        except SeqvecError:
            return
        assert vec.shape == (3,) and np.isfinite(vec).all()
