"""Acceptance suite: one test per release criterion, one printed line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they pass. The synthetic corpus and its trained models are
module-scoped fixtures shared by the criteria that need them.
"""

import io
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from seqvec.align import blosum62_params, smith_waterman
from seqvec.classify import ConfusionCounts, metrics_from_counts, stratified_folds
from seqvec.cli import main
from seqvec.embedding import (
    TrainConfig,
    _negative_steps,
    infer_docs,
    init_model,
    objective_gradient,
    train,
)
from seqvec.knn import VectorIndex, knn_cross_validate
from seqvec.model_io import load_model, save_model, write_vectors
from seqvec.sequences import write_fasta
from seqvec.synthetic import markov_family_corpus, motif_order_corpus
from seqvec.tokenizer import (
    TokenizerConfig,
    build_corpus,
    build_vocabulary,
    kmers_nonoverlapping,
    kmers_overlapping,
)
from tests.test_align import reference_sw


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ----- shared synthetic corpus and models --------------------------------

N_FAMILIES, PER_FAMILY, LENGTH = 5, 200, 100
CORPUS_SEED, TRAIN_SEED, EVAL_SEED = 0, 1, 2
TRAIN_CFG = dict(architecture="dm", dim=50, window=5, objective="ns",
                 negative=5, epochs=20, seed=TRAIN_SEED)


@pytest.fixture(scope="module")
def family_records():
    records = markov_family_corpus(
        N_FAMILIES, PER_FAMILY, LENGTH, seed=CORPUS_SEED, concentration=0.2
    )
    labels = {r.id: r.family for r in records}
    return records, labels


@pytest.fixture(scope="module")
def trained(family_records):
    records, labels = family_records
    corpus = build_corpus(records, TokenizerConfig(3, "nonoverlap"), 1)
    model = init_model(
        corpus.vocab, len(corpus.doc_ids), TrainConfig(**TRAIN_CFG), corpus.doc_ids
    )
    t0 = time.perf_counter()
    train(model, corpus.docs)
    return corpus, model, time.perf_counter() - t0


@pytest.fixture(scope="module")
def knn_report(trained, family_records):
    corpus, model, _ = trained
    _, labels = family_records
    index = VectorIndex(model.D, corpus.doc_ids, [labels[i] for i in corpus.doc_ids])
    return knn_cross_validate(index, [1, 3, 5, 10], folds=10, seed=EVAL_SEED)


def test_criterion_1_tokenizer_golden():
    ok = kmers_overlapping("ACGTTA", 3) == ["ACG", "CGT", "GTT", "TTA"]
    ok &= kmers_nonoverlapping("QWERTYQWERTY", 3) == [
        ["QWE", "RTY", "QWE", "RTY"],
        ["WER", "TYQ", "WER"],
        ["ERT", "YQW", "ERT"],
    ]
    ok &= kmers_overlapping("QWERTYQWERTY", 3) == [
        "QWE", "WER", "ERT", "RTY", "TYQ", "YQW", "QWE", "WER", "ERT", "RTY",
    ]
    check(1, "tokenizer golden outputs", ok)


def test_criterion_2_metric_formulas():
    rng = np.random.default_rng(7)
    worst = 0.0
    n_checked = 0
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
        if tp + tn + fp + fn == 0:
            continue
        m = metrics_from_counts(ConfusionCounts(tp, tn, fp, fn))
        expected = {
            "specificity": Fraction(tn, tn + fp) if tn + fp else None,
            "sensitivity": Fraction(tp, tp + fn) if tp + fn else None,
            "accuracy": Fraction(tn + tp, tn + tp + fn + fp),
            "precision": Fraction(tp, tp + fp) if tp + fp else None,
        }
        for name, frac in expected.items():
            got = getattr(m, name)
            if frac is None:
                assert got is None
                continue
            worst = max(worst, abs(got - float(frac)))
            n_checked += 1
    check(2, "metric formulas vs rational oracle", worst < 1e-12,
          f"(worst |err| {worst:.2e} over {n_checked} ratios)")


def _fd_gradient_suite_instance(rng, arch, objective):
    """One random small instance; returns the worst relative error seen."""
    V = int(rng.integers(5, 21))
    d = int(rng.integers(3, 9))
    cfg = TrainConfig(architecture=arch, dim=d, objective=objective,
                      negative=int(rng.integers(1, 5)), seed=0)
    vocab = build_vocabulary({f"t{i:02d}": int(rng.integers(1, 9)) for i in range(V)})
    model = init_model(vocab, 2, cfg)
    # float64 copies keep the finite-difference bumps exact
    model.O = 0.4 * rng.normal(size=model.O.shape)
    model.W = 0.4 * rng.normal(size=model.W.shape)
    model.D = 0.4 * rng.normal(size=model.D.shape)
    n = int(rng.integers(2, 7))
    toks = np.asarray(rng.integers(0, V, n), dtype=np.int32)
    pos = int(rng.integers(0, n))
    c = int(rng.integers(1, 4))
    tag = 1

    if arch == "sg":
        lo, hi = max(0, pos - c), min(n, pos + 1 + c)
        others = [j for j in range(lo, hi) if j != pos]
        if not others:
            return 0.0
        target = int(toks[others[0]])
        contributors = [("W", int(toks[pos]), 1)]
        h_of = lambda: model.W[toks[pos]].copy()
        n_contrib = 1
    else:
        ctx = np.concatenate((toks[max(0, pos - c):pos], toks[pos + 1:pos + 1 + c]))
        target = int(toks[pos])
        if arch == "dm":
            h_of = lambda: (model.W[ctx].sum(axis=0) + model.D[tag]) / (len(ctx) + 1)
            n_contrib = len(ctx) + 1
            contributors = [("D", tag, 1)] + [
                ("W", int(t), int(np.sum(ctx == t))) for t in set(ctx.tolist())
            ]
        elif arch == "cbow":
            if len(ctx) == 0:
                return 0.0
            h_of = lambda: model.W[ctx].sum(axis=0) / len(ctx)
            n_contrib = len(ctx)
            contributors = [("W", int(t), int(np.sum(ctx == t))) for t in set(ctx.tolist())]
        else:  # dbow
            h_of = lambda: model.D[tag].copy()
            n_contrib = 1
            contributors = [("D", tag, 1)]

    negs = None
    if objective == "ns":  # the noise rows of one step
        rows, k = _negative_steps(vocab.sampling_table, cfg.negative, np.array([target]), rng)
        negs = rows[0, 1 : k[0]]
    loss_of = lambda: objective_gradient(h_of(), target, model, negatives=negs)[0]
    _, grad_h, row_grads = objective_gradient(h_of(), target, model, negatives=negs)

    step, worst = 1e-3, 0.0

    def fd(get_set_matrix, row, analytic):
        nonlocal worst
        for idx in range(len(analytic)):
            get_set_matrix[row, idx] += step
            up = loss_of()
            get_set_matrix[row, idx] -= 2 * step
            down = loss_of()
            get_set_matrix[row, idx] += step
            numeric = (up - down) / (2 * step)
            denom = max(abs(numeric), abs(analytic[idx]), 1e-8)
            worst = max(worst, abs(numeric - analytic[idx]) / denom)

    # hidden-vector gradient through a direct perturbation of h
    h0 = h_of()
    for idx in range(d):
        bump = np.zeros(d)
        bump[idx] = step
        up = objective_gradient(h0 + bump, target, model, negatives=negs)[0]
        down = objective_gradient(h0 - bump, target, model, negatives=negs)[0]
        numeric = (up - down) / (2 * step)
        denom = max(abs(numeric), abs(grad_h[idx]), 1e-8)
        worst = max(worst, abs(numeric - grad_h[idx]) / denom)

    for row, grad in row_grads.items():
        fd(model.O, row, grad)
    for kind, row, multiplicity in contributors:
        matrix = model.D if kind == "D" else model.W
        fd(matrix, row, multiplicity * grad_h / n_contrib)
    return worst


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    instances = 0
    for objective in ("ns", "hs"):
        for arch in ("cbow", "sg", "dm", "dbow"):
            for _ in range(13):
                worst = max(worst, _fd_gradient_suite_instance(rng, arch, objective))
                instances += 1
    elapsed = time.perf_counter() - t0
    check(3, "analytic gradients vs finite differences",
          worst < 1e-4 and instances >= 100 and elapsed < 30,
          f"(worst rel err {worst:.2e} over {instances} instances, {elapsed:.1f}s)")


def test_criterion_4_synthetic_family_recovery(trained, knn_report, family_records):
    corpus, model, train_time = trained
    _, labels = family_records
    t0 = time.perf_counter()
    from seqvec.classify import multiclass_protocol

    vectors = {rid: model.D[i] for i, rid in enumerate(corpus.doc_ids)}
    svm = multiclass_protocol(vectors, labels, top_n_families=5, folds=10,
                              seed=EVAL_SEED)
    elapsed = train_time + (time.perf_counter() - t0)
    knn_acc = knn_report[10].mean
    ok = knn_acc >= 0.90 and svm.accuracy.mean >= 0.90 and elapsed < 300
    check(4, "synthetic family recovery",
          ok,
          f"(kNN@10 {knn_acc:.3f}, SVM {svm.accuracy.mean:.3f}, {elapsed:.0f}s)")


def test_criterion_5_nonoverlap_at_least_overlap(trained, knn_report, family_records):
    records, labels = family_records
    corpus_o = build_corpus(records, TokenizerConfig(3, "overlap"), 1)
    model_o = init_model(
        corpus_o.vocab, len(corpus_o.doc_ids), TrainConfig(**TRAIN_CFG),
        corpus_o.doc_ids,
    )
    train(model_o, corpus_o.docs)
    index_o = VectorIndex(
        model_o.D, corpus_o.doc_ids, [labels[i] for i in corpus_o.doc_ids]
    )
    report_o = knn_cross_validate(index_o, [1, 3, 5, 10], folds=10, seed=EVAL_SEED)
    gaps = {k: knn_report[k].mean - report_o[k].mean for k in (1, 3, 5, 10)}
    ok = all(gap >= -0.02 for gap in gaps.values())
    check(5, "non-overlapping at least overlapping",
          ok, "(gaps " + ", ".join(f"k={k}: {g:+.3f}" for k, g in gaps.items()) + ")")


def test_criterion_6_inference_consistency(trained):
    corpus, model, _ = trained
    docs_of = defaultdict(list)
    for doc in corpus.docs:
        docs_of[doc.doc_tag].append(doc.tokens)
    cosines = []
    for tag in range(50):
        vec = infer_docs(model, docs_of[tag], seed=100 + tag)
        ref = model.D[tag]
        cosines.append(
            float(vec @ ref / (np.linalg.norm(vec) * np.linalg.norm(ref)))
        )
    check(6, "re-inferred vectors match trained vectors",
          min(cosines) >= 0.6,
          f"(cosine min {min(cosines):.3f}, mean {np.mean(cosines):.3f})")


def test_criterion_7_determinism(tmp_path):
    records = markov_family_corpus(2, 8, 40, seed=5, concentration=0.1)
    fasta = tmp_path / "seqs.fasta"
    with open(fasta, "w") as fh:
        write_fasta(records, fh)
    corpus_path = tmp_path / "corpus.txt"
    assert main(["tokenize", "--input", str(fasta), "--k", "3",
                 "--output", str(corpus_path)]) == 0
    models = []
    for run in (1, 2):
        out = tmp_path / f"model{run}.bin"
        assert main(["train", "--corpus", str(corpus_path), "--dim", "16",
                     "--epochs", "6", "--seed", "7", "--workers", "1",
                     "--output", str(out)]) == 0
        models.append(out.read_bytes())
    identical = models[0] == models[1]

    loaded = load_model(models[0])
    buf = io.BytesIO()
    save_model(loaded, buf)
    round_trip = buf.getvalue() == models[0]
    check(7, "single-worker determinism and round trip",
          identical and round_trip,
          f"(files identical: {identical}, save(load(f)) == f: {round_trip})")


def test_criterion_8_alignment_oracle():
    rng = np.random.default_rng(21)
    params = blosum62_params(gap_open=-4, gap_extend=-1)
    dna = list("ACGT")
    mismatches = 0
    for _ in range(500):
        a = "".join(rng.choice(dna, rng.integers(1, 13)))
        b = "".join(rng.choice(dna, rng.integers(1, 13)))
        got = smith_waterman(a, b, params)
        want = reference_sw(a, b, params.substitution, params.gap_open,
                            params.gap_extend)
        mismatches += got != want

    letters = list("ACDEFGHIKLMNPQRSTVWY")
    blast = blosum62_params()
    asymmetries = 0
    for _ in range(200):
        a = "".join(rng.choice(letters, rng.integers(1, 40)))
        b = "".join(rng.choice(letters, rng.integers(1, 40)))
        asymmetries += smith_waterman(a, b, blast) != smith_waterman(b, a, blast)
    check(8, "alignment matches exhaustive oracle",
          mismatches == 0 and asymmetries == 0,
          f"(500 oracle pairs, {mismatches} mismatches; 200 symmetry pairs, "
          f"{asymmetries} asymmetries)")


def test_criterion_9_retrieval_baseline(trained, knn_report, family_records):
    from seqvec.align import align_classify

    records, labels = family_records
    fold_of = stratified_folds(
        [r.family for r in records], 10, np.random.default_rng(7)
    )
    queries = np.flatnonzero(fold_of == 0)[:100]
    query_set = set(queries.tolist())
    db = [records[i] for i in range(len(records)) if i not in query_set]
    params = blosum62_params()
    correct = sum(
        align_classify(db, records[i], 5, params, labels) == records[i].family
        for i in queries
    )
    align_acc = correct / len(queries)
    threshold = min(knn_report[5].mean - 0.05, 0.90)
    check(9, "alignment retrieval is not degenerate",
          align_acc >= threshold,
          f"(alignment {align_acc:.3f} vs threshold {threshold:.3f})")


def test_criterion_10_binary_protocol_end_to_end(trained, family_records, tmp_path):
    corpus, model, _ = trained
    _, labels = family_records
    vec_path = tmp_path / "vectors.txt"
    with open(vec_path, "w") as fh:
        write_vectors(corpus.doc_ids, model.D, fh)
    labels_path = tmp_path / "labels.tsv"
    labels_path.write_text("".join(f"{i}\t{labels[i]}\n" for i in corpus.doc_ids))
    report_path = tmp_path / "binary.tsv"
    rc = main(["svm-eval", "--vectors", str(vec_path), "--labels", str(labels_path),
               "--mode", "binary", "--folds", "10", "--seed", "3",
               "--output", str(report_path)])
    assert rc == 0
    lines = report_path.read_text().splitlines()
    header = lines[0].split("\t")
    assert header == ["Family", "Specificity(%)", "Std", "Sensitivity(%)", "Std",
                      "Accuracy(%)", "Std"]
    rows = [line.split("\t") for line in lines[1:]]
    families = sorted(r[0] for r in rows)
    values = {
        r[0]: dict(specificity=float(r[1]), sensitivity=float(r[3]),
                   accuracy=float(r[5]))
        for r in rows
    }
    ok = families == [f"FAM{i}" for i in range(5)] and all(
        v >= 90.0 for row in values.values() for v in row.values()
    )
    worst = min(v for row in values.values() for v in row.values())
    check(10, "binary protocol end to end", ok,
          f"(5 families, worst metric {worst:.2f}%)")


# Criterion 11 asks for more than a bag of kmers: on motif_order_corpus the
# family is the order of shared motifs, so exact kmer counts and pooled
# untrained word rows (a random projection of the counts) sit near chance
# (0.25). Trained dm vectors must beat the better of the two by ORDER_MARGIN.
ORDER_MARGIN = 0.10
ORDER_CFG = dict(architecture="dm", dim=50, window=5, objective="ns", negative=5,
                 epochs=40, alpha0=0.05, seed=TRAIN_SEED)


def _order_knn(matrix, records):
    index = VectorIndex(matrix, [r.id for r in records], [r.family for r in records],
                        metric="cosine")
    return knn_cross_validate(index, [10], folds=5, seed=EVAL_SEED)[10].mean


def test_criterion_11_order_beats_a_bag_of_kmers():
    records = motif_order_corpus(seed=CORPUS_SEED)
    corpus = build_corpus(records, TokenizerConfig(3, "nonoverlap"), 1)
    model = init_model(corpus.vocab, len(corpus.doc_ids), TrainConfig(**ORDER_CFG),
                       corpus.doc_ids)
    pooled = np.zeros_like(model.D)
    for doc in corpus.docs:
        pooled[doc.doc_tag] += model.W[doc.tokens].sum(axis=0)
    kmers = {}
    rows = [[kmers.setdefault(k, len(kmers)) for k in kmers_overlapping(r.residues, 3)]
            for r in records]
    counts = np.zeros((len(records), len(kmers)))
    for i, row in enumerate(rows):
        np.add.at(counts[i], row, 1.0)
    t0 = time.perf_counter()
    train(model, corpus.docs)
    elapsed = time.perf_counter() - t0
    trained, bag = _order_knn(model.D, records), max(_order_knn(counts, records),
                                                      _order_knn(pooled, records))
    check(11, "order beats a bag of kmers", trained >= bag + ORDER_MARGIN,
          f"(kNN@10 trained {trained:.3f}, best bag {bag:.3f}, train {elapsed:.1f}s)")
