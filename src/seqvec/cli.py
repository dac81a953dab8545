"""Command-line interface.

Exit codes: 0 success, 1 data errors (unreadable or malformed input),
2 usage errors (bad flags or parameter values). Diagnostics go to
stderr; reports go to stdout unless an --output path is given. Warnings,
the library's included, print once per distinct message as
``seqvec: warning: <message>``.
The environment variable SEQVEC_SEED provides the default --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import model_io
from .align import AlignParams, align_classify, blosum62_params, load_substitution_matrix
from .classify import binary_eligible_families, binary_family_protocol, multiclass_protocol
from .embedding import DOC_ARCHITECTURES, TrainConfig, infer_docs, init_model
from .embedding import loss_estimate, train
from .errors import ConfigError, DataError
from .knn import VectorIndex, knn_cross_validate
from .sequences import DNA, PROTEIN, load_family_labels, parse_fasta
from .tokenizer import TokenizerConfig, build_corpus, read_corpus, write_corpus


def _integer(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _default_seed() -> int:
    return _integer("SEQVEC_SEED", os.environ.get("SEQVEC_SEED", "1"))


def _alphabet(name: str):
    return PROTEIN if name == "protein" else DNA


@contextmanager
def _output(path: str | None):
    """The --output file, opened for writing, or stdout when no path is given.

    Commands compute their whole report before entering this, so a
    failure leaves no output file behind.
    """
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as out:
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
        records = parse_fasta(fh, _alphabet(args.alphabet), args.policy)
    cfg = TokenizerConfig(k=args.k, mode=args.mode)
    corpus = build_corpus(records, cfg, min_count=args.min_count)
    with open(args.output, "w") as out:
        write_corpus(corpus, out, cfg)
    print(
        f"vocabulary {len(corpus.vocab)} tokens, {len(corpus.docs)} documents "
        f"over {len(corpus.doc_ids)} sequences, {len(corpus.skipped)} sequences dropped",
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    if args.objective.startswith("ns"):
        objective, _, n = args.objective.partition(":")
        negative = _integer("the N of --objective ns:N", n) if n else 5
    elif args.objective == "hs":
        objective, negative = "hs", 5
    else:
        raise ConfigError(f"objective must be 'ns[:N]' or 'hs', got {args.objective!r}")
    cfg = TrainConfig(
        architecture=args.arch,
        dim=args.dim,
        window=args.window,
        objective=objective,
        negative=negative,
        subsample_t=args.subsample,
        epochs=args.epochs,
        alpha0=args.alpha,
        seed=args.seed,
        workers=args.workers,
    )
    with open(args.corpus, "rb") as fh:
        corpus, tok_cfg = read_corpus(fh)
    model = init_model(
        corpus.vocab, len(corpus.doc_ids), cfg, corpus.doc_ids, tok_cfg
    )
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
    if args.epochs is not None and args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    with open(args.model, "rb") as fh:
        model = model_io.load_model(fh)
    with open(args.input, "rb") as fh:
        records = parse_fasta(fh, PROTEIN, "replace")
    tok = model.tokenizer
    ids, rows = [], []
    skipped = kmers = kept = 0
    for rec in records:
        phases = tok.phases(rec.residues) if len(rec.residues) >= tok.min_length() else []
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
    with open(vec_path) as fh:
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
    report = knn_cross_validate(index, args.folds, k_values, seed=args.seed)
    with _output(args.output) as out:
        out.write("k\tAccuracy(%)\tStd(%)\n")
        for k in k_values:
            out.write(f"{k}\t{_fmt(report[k])}\n")
    return 0


def cmd_svm_eval(args) -> int:
    if args.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {args.top_n}")
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
        eligible = binary_eligible_families(vectors, labels, args.folds)[: args.top_n]
        if not eligible:
            raise DataError("no family has enough members for the binary protocol")
        lines = ["Family\tSpecificity(%)\tStd\tSensitivity(%)\tStd\tAccuracy(%)\tStd"]
        for fam in eligible:
            report = binary_family_protocol(
                vectors, labels, fam, folds=args.folds, seed=args.seed, C=args.C
            )
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
        params = blosum62_params(args.gap_open, args.gap_extend)
    else:
        with open(args.matrix) as fh:
            params = AlignParams(
                load_substitution_matrix(fh.read()), args.gap_open, args.gap_extend
            )
    predicted = [align_classify(db, q, args.k, params, labels) for q in queries]
    with _output(args.output) as out:
        out.write("query\tpredicted_family\n")
        for query, fam in zip(queries, predicted):
            out.write(f"{query.id}\t{fam}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqvec",
        description="kmer tokenization, sequence embeddings, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="FASTA to tokenized corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--alphabet", choices=("protein", "dna"), default="protein")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("overlap", "nonoverlap"), default="nonoverlap")
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--policy", choices=("strict", "replace"), default="strict")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train", help="train document vectors over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--arch", choices=("dm", "dbow", "cbow", "sg"), default="dm")
    p.add_argument("--dim", type=int, default=250)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--objective", default="ns:5")
    p.add_argument("--subsample", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--alpha", type=float, default=0.025)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("vectors", help="export document vectors as text")
    p.add_argument("--model", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("infer", help="infer vectors for new sequences")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("knn-eval", help="cross-validated kNN accuracy")
    p.add_argument("--vectors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--k", default="1,3,5,10")
    p.add_argument("--metric", choices=("euclidean", "cosine"), default="euclidean")
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_knn_eval)

    p = sub.add_parser("svm-eval", help="SVM family-classification protocols")
    p.add_argument("--vectors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--mode", choices=("binary", "multiclass"), default="multiclass")
    p.add_argument("--top-n", type=int, default=25, dest="top_n")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_svm_eval)

    p = sub.add_parser("align-knn", help="local-alignment retrieval classification")
    p.add_argument("--db", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--matrix", default="blosum62")
    p.add_argument("--gap-open", type=int, default=-11, dest="gap_open")
    p.add_argument("--gap-extend", type=int, default=-1, dest="gap_extend")
    p.add_argument("--output")
    p.set_defaults(func=cmd_align_knn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in vars(args):
            if args.seed is None:
                args.seed = _default_seed()
            if args.seed < 0:
                raise ConfigError(f"seed must be a nonnegative integer, got {args.seed}")
        with _warnings_to_stderr():
            return args.func(args)
    except ConfigError as exc:
        print(f"seqvec: usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"seqvec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
