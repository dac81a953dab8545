"""Command-line interface.

Exit codes: 0 success, 1 data errors (unreadable or malformed input),
2 usage errors (bad flags or parameter values). Diagnostics go to
stderr; reports go to stdout unless an --output path is given. Warnings,
the library's included, print once per distinct message as
``seqvec: warning: <message>``.
The environment variable SEQVEC_SEED provides the default --seed.

The CLI parses and forwards: the library owns every default, choice and
bound (the parser reads its constants, dataclass fields and signatures),
and decodes every input file, which the CLI opens in binary, as UTF-8.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import model_io
from .align import BLOSUM62, AlignParams, align_classify, load_substitution_matrix
from .classify import binary_eligible_families, binary_family_protocols, multiclass_protocol
from .embedding import ARCHITECTURES, DOC_ARCHITECTURES, TrainConfig, infer_docs
from .embedding import init_model, loss_estimate, train
from .errors import ConfigError, DataError, check_integer
from .knn import METRICS, VectorIndex, knn_cross_validate
from .sequences import ALPHABETS, POLICIES, PROTEIN, load_family_labels, parse_fasta
from .tokenizer import MODES, TokenizerConfig, build_corpus, read_corpus, write_corpus


def _integer(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _default_seed() -> int:
    return _integer("SEQVEC_SEED", os.environ.get("SEQVEC_SEED", "1"))


def _default(func, name: str):
    """The default value of ``func``'s parameter ``name``."""
    return inspect.signature(func).parameters[name].default


@contextmanager
def _output(path: str | None):
    """The --output file, opened for writing, or stdout when no path is given.

    Commands compute their whole report before entering this, so a
    failure leaves no output file behind.
    """
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as out:
        yield out


@contextmanager
def _warnings_to_stderr():
    """Print each distinct warning raised inside once, in the CLI's own form."""
    seen = set()

    def show(message, *_):  # the signature of warnings.showwarning
        if str(message) not in seen:
            seen.add(str(message))
            print(f"seqvec: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        # past Python's once-per-call-site memory: each command warns afresh
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = show
        yield


def _fmt(summary) -> str:
    if summary is None:
        return "undefined\tundefined"
    return f"{100 * summary.mean:.2f}\t{100 * summary.std:.2f}"


def cmd_tokenize(args) -> int:
    with open(args.input, "rb") as fh:
        records = parse_fasta(fh, ALPHABETS[args.alphabet], args.policy)
    corpus = build_corpus(records, TokenizerConfig(args.k, args.mode), args.min_count)
    with open(args.output, "w", encoding="utf-8") as out:
        write_corpus(corpus, out)
    print(
        f"vocabulary {len(corpus.vocab)} tokens, {len(corpus.docs)} documents "
        f"over {len(corpus.doc_ids)} sequences, {len(corpus.skipped)} sequences dropped",
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    objective, colon, n = args.objective.partition(":")
    if colon and objective != "ns":
        raise ConfigError(f"only ns takes a sample count ':N', got {args.objective!r}")
    negative = _integer("the N of --objective ns:N", n) if n else TrainConfig.negative
    cfg = TrainConfig(
        architecture=args.arch, dim=args.dim, window=args.window, objective=objective,
        negative=negative, subsample_t=args.subsample, epochs=args.epochs,
        alpha0=args.alpha, seed=args.seed, workers=args.workers,
    )
    with open(args.corpus, "rb") as fh:
        corpus = read_corpus(fh)
    model = init_model(corpus.vocab, len(corpus.doc_ids), cfg, corpus.doc_ids,
                       corpus.tokenizer)
    initial = loss_estimate(model, corpus.docs, probe_seed=cfg.seed)
    train(model, corpus.docs)
    final = loss_estimate(model, corpus.docs, probe_seed=cfg.seed)
    with open(args.output, "wb") as out:
        model_io.save_model(model, out)
    print(f"initial loss {initial:.6f}, final loss {final:.6f}", file=sys.stderr)
    return 0


def cmd_vectors(args) -> int:
    with open(args.model, "rb") as fh:
        model = model_io.load_model(fh)
    arch = model.config.architecture
    if arch not in DOC_ARCHITECTURES:
        raise ConfigError(f"architecture {arch!r} trains no sequence vectors "
                          f"(only {', '.join(DOC_ARCHITECTURES)} do)")
    with _output(args.output) as out:
        model_io.write_vectors(model.doc_ids, model.D, out)
    return 0


def cmd_infer(args) -> int:
    with open(args.model, "rb") as fh:
        model = model_io.load_model(fh)
    with open(args.input, "rb") as fh:
        records = parse_fasta(fh, PROTEIN, "replace")
    ids, rows = [], []
    skipped = kmers = kept = 0
    for rec in records:
        phases = model.tokenizer.phases(rec.residues)
        token_lists = [tl for tl in map(model.vocab.encode, phases) if len(tl)]
        kmers += sum(map(len, phases))
        kept += sum(map(len, token_lists))
        if not token_lists:  # too short, or no kmer in the vocabulary
            skipped += 1
            continue
        ids.append(rec.id)
        rows.append(
            infer_docs(model, token_lists, infer_epochs=args.epochs, seed=args.seed)
        )
    if kept < kmers:
        warnings.warn(f"dropped {kmers - kept} of {kmers} kmers not in the model's "
                      "vocabulary")
    if not ids:
        raise DataError("no sequence could be inferred (all too short or unknown)")
    with _output(args.output) as out:
        model_io.write_vectors(ids, np.stack(rows), out)
    if skipped:
        warnings.warn(f"skipped {skipped} sequences")
    return 0


def _load_labeled_vectors(vec_path: str, labels_path: str):
    with open(vec_path, "rb") as fh:
        ids, matrix = model_io.read_vectors(fh)
    with open(labels_path, "rb") as fh:
        labels, dups = load_family_labels(fh)
    if dups:
        warnings.warn(f"{dups} duplicate label lines")
    keep = [i for i, rid in enumerate(ids) if rid in labels]
    if len(keep) < len(ids):
        warnings.warn(f"{len(ids) - len(keep)} vectors have no family label")
    if not keep:
        raise DataError("no vector id appears in the label file")
    ids = [ids[i] for i in keep]
    return ids, matrix[keep], labels


def cmd_knn_eval(args) -> int:
    k_values = [_integer("each --k value", k) for k in args.k.split(",") if k]
    ids, matrix, labels = _load_labeled_vectors(args.vectors, args.labels)
    index = VectorIndex(matrix, ids, [labels[i] for i in ids], metric=args.metric)
    report = knn_cross_validate(index, k_values, args.folds, seed=args.seed)
    with _output(args.output) as out:
        out.write("k\tAccuracy(%)\tStd(%)\n")
        for k in k_values:
            out.write(f"{k}\t{_fmt(report[k])}\n")
    return 0


def cmd_svm_eval(args) -> int:
    ids, matrix, labels = _load_labeled_vectors(args.vectors, args.labels)
    vectors = {rid: matrix[i] for i, rid in enumerate(ids)}
    if args.mode == "multiclass":
        report = multiclass_protocol(
            vectors, labels, top_n_families=args.top_n,
            folds=args.folds, seed=args.seed, C=args.C,
        )
        lines = [
            "Precision(%)\tStd\tSensitivity(%)\tStd\tAccuracy(%)\tStd",
            f"{_fmt(report.precision)}\t{_fmt(report.sensitivity)}\t"
            f"{_fmt(report.accuracy)}",
        ]
    else:
        eligible = binary_eligible_families(vectors, labels, args.folds, args.top_n)
        if not eligible:
            raise DataError("no family has enough members for the binary protocol")
        lines = ["Family\tSpecificity(%)\tStd\tSensitivity(%)\tStd\tAccuracy(%)\tStd"]
        reports = binary_family_protocols(
            vectors, labels, eligible, folds=args.folds, seed=args.seed, C=args.C
        )
        for fam, report in zip(eligible, reports):
            lines.append(
                f"{fam}\t{_fmt(report.specificity)}\t{_fmt(report.sensitivity)}\t"
                f"{_fmt(report.accuracy)}"
            )
    with _output(args.output) as out:
        out.writelines(line + "\n" for line in lines)
    return 0


def cmd_align_knn(args) -> int:
    with open(args.db, "rb") as fh:
        db = parse_fasta(fh, PROTEIN, "replace")
    with open(args.labels, "rb") as fh:
        labels, _ = load_family_labels(fh)
    with open(args.query, "rb") as fh:
        queries = parse_fasta(fh, PROTEIN, "replace")
    if args.matrix == "blosum62":
        matrix = BLOSUM62
    else:
        with open(args.matrix, "rb") as fh:
            matrix = load_substitution_matrix(fh)
    params = AlignParams(matrix, args.gap_open, args.gap_extend)
    predicted = [align_classify(db, q, args.k, params, labels) for q in queries]
    with _output(args.output) as out:
        out.write("query\tpredicted_family\n")
        for query, fam in zip(queries, predicted):
            out.write(f"{query.id}\t{fam}\n")
    return 0


@functools.cache  # built once per process, on first use
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqvec",
        description="kmer tokenization, sequence embeddings, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="FASTA to tokenized corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--alphabet", choices=ALPHABETS,
                   default=_default(parse_fasta, "alphabet").name)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default=TokenizerConfig.mode)
    p.add_argument("--min-count", type=int, default=_default(build_corpus, "min_count"),
                   dest="min_count")
    p.add_argument("--policy", choices=POLICIES, default=_default(parse_fasta, "policy"))
    p.add_argument("--output", required=True)

    p = sub.add_parser("train", help="train document vectors over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--arch", choices=ARCHITECTURES, default=TrainConfig.architecture)
    p.add_argument("--dim", type=int, default=TrainConfig.dim)
    p.add_argument("--window", type=int, default=TrainConfig.window)
    p.add_argument("--objective", default=TrainConfig.objective)
    p.add_argument("--subsample", type=float, default=TrainConfig.subsample_t)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha0)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=TrainConfig.workers)
    p.add_argument("--output", required=True)

    p = sub.add_parser("vectors", help="export document vectors as text")
    p.add_argument("--model", required=True)
    p.add_argument("--output")

    p = sub.add_parser("infer", help="infer vectors for new sequences")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--epochs", type=int, default=_default(infer_docs, "infer_epochs"))
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("knn-eval", help="cross-validated kNN accuracy")
    p.add_argument("--vectors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--folds", type=int, default=_default(knn_cross_validate, "folds"))
    p.add_argument("--k", default="1,3,5,10")
    p.add_argument("--metric", choices=METRICS, default=VectorIndex.metric)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("svm-eval", help="SVM family-classification protocols")
    p.add_argument("--vectors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--mode", choices=("binary", "multiclass"), default="multiclass")
    p.add_argument("--top-n", type=int, dest="top_n",
                   default=_default(multiclass_protocol, "top_n_families"))
    p.add_argument("--C", type=float, default=_default(multiclass_protocol, "C"))
    p.add_argument("--folds", type=int, default=_default(multiclass_protocol, "folds"))
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("align-knn", help="local-alignment retrieval classification")
    p.add_argument("--db", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--matrix", default="blosum62")
    p.add_argument("--gap-open", type=int, default=AlignParams.gap_open, dest="gap_open")
    p.add_argument("--gap-extend", type=int, default=AlignParams.gap_extend,
                   dest="gap_extend")
    p.add_argument("--output")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in vars(args):
            if args.seed is None:
                args.seed = _default_seed()
            check_integer("seed", args.seed)
        with _warnings_to_stderr():
            # looked up per call, so a cmd_* rebound after import (a tracer) runs
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConfigError as exc:
        print(f"seqvec: usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"seqvec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
