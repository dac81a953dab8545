"""The error paths that no other test reaches: each raises its own class and
message, and a command that reaches one exits with its documented code."""

import io
import re

import numpy as np
import pytest

from seqvec.align import AlignParams, align_topk, blosum62_params
from seqvec.classify import train_linear_svm
from seqvec.cli import main
from seqvec.embedding import TrainConfig, init_model, train
from seqvec.errors import ConfigError, DataError
from seqvec.knn import VectorIndex, knn_cross_validate
from seqvec.model_io import write_vectors
from seqvec.sequences import Alphabet, SequenceRecord
from seqvec.synthetic import markov_family_corpus
from seqvec.tokenizer import (
    TokenizedDoc,
    TokenizerConfig,
    Vocabulary,
    build_vocabulary,
    subsample_keep_probs,
)


def _record(rid, residues):
    return SequenceRecord(rid, "", residues)


def _model():
    return init_model(build_vocabulary({"a": 2, "b": 1}), 1, TrainConfig(dim=2))


def _doc(tag, tokens):
    return TokenizedDoc(tag, 0, np.array(tokens, dtype=np.int32))


def _index(**changes):
    args = dict(matrix=np.eye(2), ids=["a", "b"], labels=["F", "G"])
    return VectorIndex(**{**args, **changes})


# (id, call, error class, message)
ERRORS = [
    ("align-table-shape", lambda: AlignParams(np.zeros((20, 20), dtype=int)),
     ConfigError, "substitution table must be 26x26 (letters A-Z)"),
    ("align-empty-db-sequence",
     lambda: align_topk([_record("a", "ACD"), _record("b", "")], _record("q", "AC"), 1,
                        blosum62_params()),
     DataError, "database sequence is empty"),
    ("classify-matrix-shape", lambda: train_linear_svm(np.zeros(3), [1, -1, 1]),
     ConfigError, "X must be (n, d) with one label per row"),
    ("embedding-hs-one-token",
     lambda: init_model(build_vocabulary({"a": 1}), 1, TrainConfig(objective="hs",
                                                                   negative=0)),
     DataError, "hierarchical softmax needs a vocabulary of >= 2 tokens"),
    ("embedding-no-document-rows",
     lambda: init_model(build_vocabulary({"a": 1}), 0, TrainConfig()),
     DataError, "need at least one document"),
    ("embedding-empty-document", lambda: train(_model(), [_doc(0, [])]),
     DataError, "document with tag 0 is empty"),
    ("embedding-tag-out-of-range", lambda: train(_model(), [_doc(1, [0])]),
     DataError, "doc_tag 1 out of range [0, 1)"),
    ("knn-matrix-shape", lambda: _index(matrix=np.zeros((2, 0))),
     ConfigError, "matrix must be (N, d) with d >= 1"),
    ("knn-id-per-row", lambda: _index(ids=["a"]),
     ConfigError, "one id per matrix row required"),
    ("knn-unique-ids", lambda: _index(ids=["a", "a"]),
     ConfigError, "ids must be unique"),
    ("knn-label-per-row", lambda: _index(labels=["F"]),
     ConfigError, "one label per row required when labels are given"),
    ("knn-metric", lambda: _index(metric="manhattan"),
     ConfigError, "metric must be one of ('euclidean', 'cosine')"),
    ("knn-no-k", lambda: knn_cross_validate(_index(), [], folds=2),
     ConfigError, "k_values must not be empty"),
    ("model-io-id-per-row", lambda: write_vectors(["a"], np.eye(2), io.StringIO()),
     DataError, "one id per vector row required"),
    ("alphabet-duplicate-symbol", lambda: Alphabet("two-a", "AA"),
     ConfigError, "alphabet 'two-a' has duplicate symbols"),
    ("alphabet-lowercase-symbol", lambda: Alphabet("low", "Ab"),
     ConfigError, "alphabet 'low': symbol 'b' is not an uppercase letter"),
    ("alphabet-unknown-letter", lambda: Alphabet("ac", "AC", unknown="X"),
     ConfigError, "alphabet 'ac': unknown letter 'X' not in symbols"),
    ("synthetic-concentration", lambda: markov_family_corpus(1, 1, 5, concentration=0),
     ConfigError, "concentration must be positive"),
    ("tokenizer-mode", lambda: TokenizerConfig(3, "gapped"),
     ConfigError, "mode must be one of ('nonoverlap', 'overlap'), got 'gapped'"),
    ("tokenizer-counts-per-token", lambda: Vocabulary(["a"], [1, 2], min_count=1),
     ConfigError, "tokens and counts length mismatch"),
    ("tokenizer-subsample-threshold",
     lambda: subsample_keep_probs(build_vocabulary({"a": 1}), 0.0),
     ConfigError, "subsampling threshold must be positive, got 0.0"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in ERRORS],
                         ids=[row[0] for row in ERRORS])
def test_error_path_raises_its_class_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_align_topk_with_every_record_sharing_the_query_id_finds_nothing():
    db = [_record("q", "ACDEF"), _record("q", "MKV")]
    assert align_topk(db, _record("q", "ACD"), 3, blosum62_params()) == []


# (id, input files, arguments, exit code, stderr)
COMMANDS = [
    ("tokenize-every-kmer-rare", {"q.fasta": ">a\nMMMKKK\n"},
     ["tokenize", "--input", "q.fasta", "--k", "3", "--min-count", "2"], 1,
     "seqvec: error: empty corpus: every sequence is too short to tokenize or has "
     "only kmers below min_count=2\n"),
    ("knn-eval-no-k", {"v.txt": "2 1\na 0.5\nb 0.25\n", "l.tsv": "a\tF\nb\tF\n"},
     ["knn-eval", "--vectors", "v.txt", "--labels", "l.tsv", "--k", ","], 2,
     "seqvec: usage error: k_values must not be empty\n"),
    ("train-hs-one-token", {"c.txt": "#meta k=3 mode=nonoverlap\n0 0 ACG ACG\n"},
     ["train", "--corpus", "c.txt", "--objective", "hs"], 1,
     "seqvec: error: hierarchical softmax needs a vocabulary of >= 2 tokens\n"),
    ("align-knn-query-is-the-database",
     {"db.fasta": ">a\nACDEF\n", "l.tsv": "a\tF\n", "q.fasta": ">a\nACDEF\n"},
     ["align-knn", "--db", "db.fasta", "--labels", "l.tsv", "--query", "q.fasta"], 1,
     "seqvec: error: cannot vote over an empty neighbor list\n"),
]


@pytest.mark.parametrize("files, argv, code, stderr", [row[1:] for row in COMMANDS],
                         ids=[row[0] for row in COMMANDS])
def test_command_reaching_an_error_path_exits_with_its_code(
        files, argv, code, stderr, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([*argv, "--output", "out"]) == code
    assert capsys.readouterr().err == stderr
    assert not (tmp_path / "out").exists()
