"""End-to-end tests of the command-line surface and its exit-code contract."""

import argparse
import inspect
import io
import os
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from seqvec.align import AlignParams
from seqvec.classify import binary_family_protocol, multiclass_protocol
from seqvec import cli
from seqvec.cli import _warnings_to_stderr, build_parser, main
from seqvec.embedding import ARCHITECTURES, TrainConfig
from seqvec.knn import METRICS, VectorIndex, knn_cross_validate
from seqvec.model_io import load_model, read_vectors
from seqvec.sequences import ALPHABETS, POLICIES, SequenceRecord, parse_fasta, write_fasta
from seqvec.synthetic import markov_family_corpus
from seqvec.tokenizer import MODES, TokenizerConfig, build_corpus


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Two distinguishable families, small enough for fast CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    records = markov_family_corpus(
        n_families=2, per_family=8, length=40, seed=5, concentration=0.1
    )
    fasta = root / "seqs.fasta"
    with open(fasta, "w") as fh:
        write_fasta(records, fh)
    labels = root / "labels.tsv"
    with open(labels, "w") as fh:
        fh.write("# id -> family\n")
        for rec in records:
            fh.write(f"{rec.id}\t{rec.family}\n")
    return root, fasta, labels


def _tokenize(root, fasta, extra=()):
    corpus = root / "corpus.txt"
    rc = main(
        ["tokenize", "--input", str(fasta), "--k", "3", "--mode", "nonoverlap",
         "--output", str(corpus), *extra]
    )
    assert rc == 0
    return corpus


def _train(root, corpus, out="model.bin", extra=()):
    model = root / out
    rc = main(
        ["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "8",
         "--seed", "7", "--output", str(model), *extra]
    )
    assert rc == 0
    return model


class TestTokenize:
    def test_writes_phase_lines(self, tmp_path):
        fasta = tmp_path / "q.fasta"
        fasta.write_text(">q1\nQWERTYQWERTY\n")
        out = tmp_path / "corpus.txt"
        rc = main(["tokenize", "--input", str(fasta), "--k", "3",
                   "--mode", "nonoverlap", "--output", str(out)])
        assert rc == 0
        data_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data_lines == [
            "0 0 QWE RTY QWE RTY",
            "0 1 WER TYQ WER",
            "0 2 ERT YQW ERT",
        ]

    def test_report_counts_every_sequence_left_without_a_document(self, tmp_path,
                                                                  capsys):
        # "tiny" is too short for k=3; every kmer of "rare" falls below --min-count
        fasta = tmp_path / "q.fasta"
        fasta.write_text(">rare\nMMMKKKLLLPPP\n>kept\n" + "QWERTY" * 3 + "\n>tiny\nQW\n")
        rc = main(["tokenize", "--input", str(fasta), "--k", "3", "--min-count", "3",
                   "--output", str(tmp_path / "c.txt")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "vocabulary 4 tokens, 3 documents over 1 sequences, 2 sequences dropped\n")

    def test_k_zero_is_usage_error(self, tmp_path):
        fasta = tmp_path / "q.fasta"
        fasta.write_text(">q1\nQWERTYQWERTY\n")
        rc = main(["tokenize", "--input", str(fasta), "--k", "0",
                   "--output", str(tmp_path / "c.txt")])
        assert rc == 2

    def test_empty_fasta_is_data_error(self, tmp_path, capsys):
        fasta = tmp_path / "empty.fasta"
        fasta.write_text("")
        rc = main(["tokenize", "--input", str(fasta), "--k", "3",
                   "--output", str(tmp_path / "c.txt")])
        assert rc == 1
        assert "empty" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["tokenize", "--input", str(tmp_path / "nope.fasta"),
                   "--k", "3", "--output", str(tmp_path / "c.txt")])
        assert rc == 1

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["tokenize", "--bogus"])
        assert exc.value.code == 2


class TestTrain:
    def test_two_runs_are_byte_identical(self, tiny_dataset, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        m1 = _train(root, corpus, "model1.bin")
        first_err = capsys.readouterr().err
        m2 = _train(root, corpus, "model2.bin")
        assert m1.read_bytes() == m2.read_bytes()
        assert "initial loss" in first_err

    def test_final_loss_below_initial(self, tiny_dataset, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        _train(root, corpus, "model3.bin")
        err = capsys.readouterr().err
        parts = err.strip().rsplit("initial loss ", 1)[1]
        initial, final = parts.replace(", final loss", "").split()
        assert float(final) < float(initial)

    def test_extreme_alpha_is_usage_error(self, tiny_dataset):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        rc = main(["train", "--corpus", str(corpus), "--alpha", "5.0",
                   "--output", str(root / "bad.bin")])
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_subsample_is_usage_error(self, tiny_dataset, tmp_path, value, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        rc = main(["train", "--corpus", str(corpus), "--subsample", value,
                   "--output", str(tmp_path / "bad.bin")])
        assert rc == 2
        assert "seqvec: usage error: subsample_t" in capsys.readouterr().err
        assert not (tmp_path / "bad.bin").exists()

    @pytest.mark.parametrize("meta", ["k=x", "k=0", "mode=weird"])
    def test_bad_corpus_metadata_is_data_error(self, tmp_path, meta, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"#meta {meta}\n0 0 ACG TTA\n")
        rc = main(["train", "--corpus", str(corpus), "--dim", "4",
                   "--output", str(tmp_path / "bad.bin")])
        assert rc == 1
        assert "seqvec: error: line 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("#meta k=3 mode=nonoverlap\n0 0 ACDE\n",
         "line 2: kmer 1 is 4 letters long, not k=3"),
        ("#meta k=99999999999 mode=nonoverlap\n0 0 ACG TTA\n",
         "line 2: kmer 1 is 3 letters long, not k=99999999999"),
        ("#doc 0 " + "x" * 70000 + "\n0 0 ACG TTA\n",
         "line 1: sequence id is longer than 65535 UTF-8 bytes"),
        ("#meta k=3 mode=overlap\n0 1 ACG TTA\n0 2 CGT TAC\n",
         "line 2: phase 1 is not in [0, 1), the phases of mode=overlap with k=3"),
        ("#doc 0 my id\n0 0 ACG TTA\n",
         "line 1: sequence id contains whitespace"),
        ("#doc 0 A\n#doc 1 A\n0 0 ACG TTA\n1 0 CGT TAC\n",
         "line 2: doc tags 0 and 1 share the sequence id 'A'"),
        ("#doc 0 doc1\n0 0 ACG TTA\n1 0 CGT TAC\n",
         "line 1: doc tags 0 and 1 share the sequence id 'doc1'"),
    ], ids=["kmer-longer-than-k", "k-beyond-u32", "id-beyond-u16", "phase-not-in-mode",
            "id-with-whitespace", "repeated-id", "id-of-an-unnamed-tag"])
    def test_corpus_no_model_can_serve_is_data_error(self, tmp_path, text, message,
                                                      capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        rc = main(["train", "--corpus", str(corpus), "--dim", "4", "--epochs", "1",
                   "--output", str(tmp_path / "bad.bin")])
        assert rc == 1
        assert capsys.readouterr().err == f"seqvec: error: {message}\n"
        assert not (tmp_path / "bad.bin").exists()

    def test_dim_too_large_to_allocate_is_usage_error(self, tmp_path):
        # D alone needs 2 x (2^32 - 1) float32s, 32 GiB, and the child may
        # map 3 GB: numpy's allocation fails with MemoryError, however much
        # this machine could map lazily
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("#meta k=3 mode=nonoverlap\n0 0 ACG TTA\n1 0 CGT TAC\n")
        limited = ("import resource, sys; "
                   "resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9)); "
                   "from seqvec.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", limited, "train", "--corpus", str(corpus),
             "--dim", str(2**32 - 1), "--output", str(tmp_path / "big.bin")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 2
        assert result.stderr == (
            f"seqvec: usage error: cannot allocate 2 rows of dim {2**32 - 1}\n")
        assert not (tmp_path / "big.bin").exists()

    def test_corpus_without_metadata_trains_with_inferred_settings(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("0 0 ACG TTA\n0 1 CGT TAC\n1 0 ACG CGT\n1 1 TTA ACG\n")
        model = _train(tmp_path, corpus)
        assert load_model(model.read_bytes()).tokenizer == TokenizerConfig(3, "nonoverlap")

    @pytest.mark.parametrize("flag, value, name", [
        ("--window", str(2**32), "window"), ("--seed", str(2**64), "seed")])
    def test_setting_no_model_file_can_hold_is_usage_error(self, tiny_dataset, tmp_path,
                                                          flag, value, name, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--dim", "4", "--epochs", "1",
                   flag, value, "--output", str(tmp_path / "bad.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"seqvec: usage error: {name} must be at most ")
        assert err.count("\n") == 1
        assert not (tmp_path / "bad.bin").exists()

    def test_workers_other_than_one_is_usage_error(self, tiny_dataset, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        rc = main(["train", "--corpus", str(corpus), "--workers", "2",
                   "--output", str(root / "bad.bin")])
        assert rc == 2
        assert "seqvec: usage error: workers" in capsys.readouterr().err

    def test_non_integer_negative_count_is_usage_error(self, tiny_dataset, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        rc = main(["train", "--corpus", str(corpus), "--objective", "ns:abc",
                   "--output", str(root / "bad.bin")])
        assert rc == 2
        assert "seqvec: usage error: the N of --objective" in capsys.readouterr().err
        assert not (root / "bad.bin").exists()

    def test_non_integer_seqvec_seed_is_usage_error(self, tiny_dataset, monkeypatch,
                                                   capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        monkeypatch.setenv("SEQVEC_SEED", "abc")
        rc = main(["train", "--corpus", str(corpus), "--output", str(root / "bad.bin")])
        assert rc == 2
        assert "seqvec: usage error: SEQVEC_SEED" in capsys.readouterr().err

    def test_hs_objective_trains(self, tiny_dataset):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        model = _train(root, corpus, "model_hs.bin", extra=("--objective", "hs"))
        assert load_model(model.read_bytes()).config.objective == "hs"

    def test_seqvec_seed_env_fallback(self, tiny_dataset, monkeypatch):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        monkeypatch.setenv("SEQVEC_SEED", "7")
        from_env = root / "model_env.bin"
        rc = main(["train", "--corpus", str(corpus), "--dim", "16",
                   "--epochs", "8", "--output", str(from_env)])
        assert rc == 0
        explicit = _train(root, corpus, "model_explicit.bin")  # --seed 7
        assert from_env.read_bytes() == explicit.read_bytes()


class TestVectorsAndInfer:
    def test_vectors_match_document_matrix(self, tiny_dataset, tmp_path):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        model_path = _train(root, corpus)
        out = tmp_path / "vecs.txt"
        assert main(["vectors", "--model", str(model_path), "--output", str(out)]) == 0
        ids, matrix = read_vectors(out.read_text())
        model = load_model(model_path.read_bytes())
        assert ids == model.doc_ids
        assert np.array_equal(matrix, model.D)

    def test_infer_is_deterministic_and_shaped(self, tiny_dataset, tmp_path):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        model_path = _train(root, corpus)
        out1, out2 = tmp_path / "i1.txt", tmp_path / "i2.txt"
        for out in (out1, out2):
            rc = main(["infer", "--model", str(model_path), "--input", str(fasta),
                       "--epochs", "4", "--seed", "3", "--output", str(out)])
            assert rc == 0
        assert out1.read_text() == out2.read_text()
        ids, matrix = read_vectors(out1.read_text())
        assert len(ids) == 16
        assert matrix.shape == (16, 16)

    @pytest.mark.parametrize("arch", ["cbow", "sg"])
    def test_vectors_rejects_architectures_without_sequence_vectors(
            self, tiny_dataset, tmp_path, arch, capsys):
        # cbow and sg never update D, so its rows are the untrained draw
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        model_path = _train(root, corpus, f"model_{arch}.bin", extra=("--arch", arch))
        out = tmp_path / "vecs.txt"
        rc = main(["vectors", "--model", str(model_path), "--output", str(out)])
        assert rc == 2
        assert f"architecture {arch!r} trains no sequence vectors" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_infer_reports_skipped_sequences_as_a_warning(self, tiny_dataset,
                                                          tmp_path, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        model_path = _train(root, corpus)
        queries = tmp_path / "q.fasta"
        first_record = ">" + fasta.read_text().split(">")[1]
        queries.write_text(first_record + ">tiny\nAC\n")
        capsys.readouterr()
        rc = main(["infer", "--model", str(model_path), "--input", str(queries),
                   "--epochs", "2", "--output", str(tmp_path / "i.txt")])
        assert rc == 0
        assert capsys.readouterr().err == "seqvec: warning: skipped 1 sequences\n"

    def test_infer_with_no_inferable_sequence_is_data_error(self, tiny_dataset,
                                                            tmp_path, capsys):
        root, fasta, labels = tiny_dataset
        model_path = _train(root, _tokenize(root, fasta))
        queries, out = tmp_path / "q.fasta", tmp_path / "i.txt"
        queries.write_text(">tiny\nAC\n>short\nMK\n")
        capsys.readouterr()
        rc = main(["infer", "--model", str(model_path), "--input", str(queries),
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "seqvec: error: no sequence could be inferred (all too short or unknown)\n")
        assert not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_infer_epochs_below_one_is_usage_error(self, tiny_dataset, tmp_path,
                                                   epochs, capsys):
        # zero passes would write the seeded random draw as every vector
        root, fasta, labels = tiny_dataset
        model_path = _train(root, _tokenize(root, fasta))
        out = tmp_path / "i.txt"
        capsys.readouterr()
        rc = main(["infer", "--model", str(model_path), "--input", str(fasta),
                   "--epochs", epochs, "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"seqvec: usage error: infer_epochs must be >= 1, got {epochs}\n")
        assert not out.exists()

    def test_infer_counts_out_of_vocabulary_kmers_in_one_warning(self, tiny_dataset,
                                                                 tmp_path, capsys):
        root, fasta, labels = tiny_dataset
        model_path = _train(root, _tokenize(root, fasta))
        model = load_model(model_path.read_bytes())
        known = model.vocab.index
        letters = "ACDEFGHIKLMNPQRSTVWY"
        unknown = next(a + b + c for a in letters for b in letters for c in letters
                       if a + b + c not in known)
        first = fasta.read_text().split(">")[1]
        residues = first.split("\n", 1)[1].replace("\n", "")
        alone, mixed = tmp_path / "alone.fasta", tmp_path / "mixed.fasta"
        alone.write_text(">" + first)
        mixed.write_text(">" + first + f">odd\n{residues}{unknown * 3}\n")
        phases = [ph for seq in (residues, residues + unknown * 3)
                  for ph in model.tokenizer.phases(seq)]
        dropped = sum(km not in known for ph in phases for km in ph)
        assert dropped >= 3
        outputs = []
        for queries in (alone, mixed):
            outputs.append(tmp_path / f"{queries.stem}.txt")
            capsys.readouterr()
            rc = main(["infer", "--model", str(model_path), "--input", str(queries),
                       "--epochs", "2", "--output", str(outputs[-1])])
            assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"seqvec: warning: dropped {dropped} of {sum(map(len, phases))} kmers "
            "not in the model's vocabulary\n")
        assert captured.out == ""
        # one vector per sequence, each as if inferred alone
        (ids, alone_rows), (mixed_ids, mixed_rows) = (
            read_vectors(out.read_text()) for out in outputs)
        assert mixed_ids == [*ids, "odd"]
        assert np.array_equal(mixed_rows[:1], alone_rows)

    def test_truncated_model_is_data_error(self, tiny_dataset, tmp_path, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        model_path = _train(root, corpus)
        broken = tmp_path / "broken.bin"
        broken.write_bytes(model_path.read_bytes()[:50])
        rc = main(["vectors", "--model", str(broken), "--output",
                   str(tmp_path / "v.txt")])
        assert rc == 1
        assert "byte" in capsys.readouterr().err

    def test_undecodable_doc_id_is_data_error(self, tiny_dataset, tmp_path, capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        blob = bytearray(_train(root, corpus).read_bytes())
        first_id = load_model(bytes(blob)).doc_ids[0].encode()
        blob[blob.index(first_id)] = 0xFF
        broken = tmp_path / "broken.bin"
        broken.write_bytes(bytes(blob))
        rc = main(["vectors", "--model", str(broken), "--output",
                   str(tmp_path / "v.txt")])
        assert rc == 1
        assert "doc id 0 is not valid UTF-8 at byte" in capsys.readouterr().err


PER_FAMILY = 12


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    # hand-made separable vectors keep the eval tests fast and unambiguous
    root = tmp_path_factory.mktemp("eval")
    rng = np.random.default_rng(0)
    lines = [f"{2 * PER_FAMILY} 4"]
    label_lines = []
    for fam in range(2):
        center = np.zeros(4)
        center[fam] = 25.0
        for i in range(PER_FAMILY):
            vec = center + 0.05 * rng.normal(size=4)
            rid = f"FAM{fam}_{i:03d}"
            lines.append(rid + " " + " ".join(repr(float(v)) for v in vec))
            label_lines.append(f"{rid}\tFAM{fam}\n")
    vectors = root / "vecs.txt"
    vectors.write_text("\n".join(lines) + "\n")
    labels = root / "labels.tsv"
    labels.write_text("".join(label_lines))
    return vectors, labels


class TestEvaluationCommands:
    def test_knn_eval_report(self, eval_files, capsys):
        vectors, labels = eval_files
        rc = main(["knn-eval", "--vectors", str(vectors), "--labels",
                   str(labels), "--folds", "4", "--k", "1,3", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k\tAccuracy(%)\tStd(%)"
        assert out[1].startswith("1\t100.00")
        assert out[2].startswith("3\t100.00")

    def test_knn_eval_warns_of_k_above_the_training_fold(self, eval_files, capsys):
        # 4 folds of 6 leave 18 training vectors; the report itself is unchanged
        vectors, labels = eval_files
        rc = main(["knn-eval", "--vectors", str(vectors), "--labels",
                   str(labels), "--folds", "4", "--k", "1,18,100", "--seed", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "seqvec: warning: k=100 exceeds the smallest training fold (18 vectors); "
            "there the vote is over the whole fold\n")
        rows = captured.out.splitlines()
        assert rows[0] == "k\tAccuracy(%)\tStd(%)" and len(rows) == 4
        assert rows[3].split("\t")[1:] == rows[2].split("\t")[1:]

    def test_svm_eval_multiclass_report(self, eval_files, capsys):
        vectors, labels = eval_files
        rc = main(["svm-eval", "--vectors", str(vectors), "--labels",
                   str(labels), "--mode", "multiclass", "--top-n", "2",
                   "--folds", "4", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split("\t")[0] == "Precision(%)"
        assert float(out[1].split("\t")[0]) >= 95.0

    def test_svm_eval_binary_report(self, eval_files, capsys):
        vectors, labels = eval_files
        rc = main(["svm-eval", "--vectors", str(vectors), "--labels",
                   str(labels), "--mode", "binary", "--folds", "10", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split("\t")[:2] == ["Family", "Specificity(%)"]
        assert len(out) == 3  # one row per family
        for row in out[1:]:
            assert float(row.split("\t")[5]) >= 95.0  # Accuracy(%)

    @pytest.mark.parametrize("mode", ["binary", "multiclass"])
    @pytest.mark.parametrize("flag, value", [("--top-n", "-1"), ("--top-n", "0"),
                                             ("--C", "inf"), ("--C", "nan"),
                                             ("--C", "1e308"), ("--seed", "-1")])
    def test_bad_svm_values_are_usage_errors(self, eval_files, mode, flag, value,
                                             capsys):
        vectors, labels = eval_files
        rc = main(["svm-eval", "--vectors", str(vectors), "--labels", str(labels),
                   "--mode", mode, "--folds", "4", "--seed", "0", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert "seqvec: usage error: " in captured.err
        assert captured.out == ""

    def test_binary_warnings_name_their_family(self, tmp_path, capsys):
        # identical all-zero vectors: both families train the same fold
        # models, which predict no positives in 3 of the 4 folds
        ids = [f"F{fam}_{i}" for fam in "AB" for i in range(12)]
        vectors = tmp_path / "vecs.txt"
        vectors.write_text("24 2\n" + "".join(f"{rid} 0.0 0.0\n" for rid in ids))
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{rid}\t{rid[:2]}\n" for rid in ids))
        rc = main(["svm-eval", "--vectors", str(vectors), "--labels", str(labels),
                   "--mode", "binary", "--folds", "4", "--seed", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"seqvec: warning: family {fam}: precision undefined in 3 of 4 folds; "
            "excluded from the average" for fam in ("FA", "FB")
        ]
        assert [row.split("\t")[0] for row in captured.out.splitlines()] == [
            "Family", "FA", "FB"]

    def test_library_warning_printed_in_the_cli_form_every_run(self, eval_files,
                                                                capsys):
        # --top-n 25 exceeds the 2 families, so multiclass_protocol warns
        vectors, labels = eval_files
        for _ in range(2):
            rc = main(["svm-eval", "--vectors", str(vectors), "--labels",
                       str(labels), "--mode", "multiclass", "--folds", "4",
                       "--seed", "0"])
            assert rc == 0
            assert capsys.readouterr().err == (
                "seqvec: warning: top_n_families=25 exceeds the 2 available "
                "families; using all of them\n"
            )

    def test_own_warnings_share_the_form(self, eval_files, tmp_path, capsys):
        vectors, labels = eval_files
        dup_labels = tmp_path / "labels.tsv"
        lines = labels.read_text().splitlines(keepends=True)
        dup_labels.write_text("".join(lines[:-1] + lines[:1]))  # one dup, one unlabeled
        rc = main(["knn-eval", "--vectors", str(vectors), "--labels", str(dup_labels),
                   "--folds", "4", "--k", "1"])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "seqvec: warning: 1 duplicate label lines",
            "seqvec: warning: 1 vectors have no family label",
        ]

    def test_each_distinct_warning_printed_once(self, capsys):
        with _warnings_to_stderr():
            for text in ("first", "second", "first"):
                warnings.warn(text)
        assert capsys.readouterr().err.splitlines() == [
            "seqvec: warning: first", "seqvec: warning: second"
        ]

    def test_non_integer_k_is_usage_error(self, eval_files, capsys):
        vectors, labels = eval_files
        rc = main(["knn-eval", "--vectors", str(vectors), "--labels",
                   str(labels), "--folds", "4", "--k", "1,x", "--seed", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "seqvec: usage error: each --k value" in captured.err
        assert captured.out == ""

    def test_repeated_k_is_usage_error(self, eval_files, capsys):
        vectors, labels = eval_files
        rc = main(["knn-eval", "--vectors", str(vectors), "--labels",
                   str(labels), "--folds", "4", "--k", "1,1,3", "--seed", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "seqvec: usage error: k_values must be distinct, got 1,1,3" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["knn-eval", "svm-eval"])
    def test_non_finite_vector_is_data_error(self, eval_files, tmp_path, command, capsys):
        vectors, labels = eval_files
        lines = vectors.read_text().splitlines()
        lines[3] = lines[3].rsplit(" ", 1)[0] + " nan"
        broken = tmp_path / "nan.txt"
        broken.write_text("\n".join(lines) + "\n")
        rc = main([command, "--vectors", str(broken), "--labels", str(labels),
                   "--folds", "4", "--seed", "0"])
        assert rc == 1
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["knn-eval", "svm-eval"])
    def test_zero_dimension_vectors_are_data_error(self, eval_files, tmp_path, command,
                                                   capsys):
        # knn-eval once exited 2 and svm-eval reported on empty vectors
        vectors, labels = eval_files
        ids = [line.split()[0] for line in vectors.read_text().splitlines()[1:]]
        broken = tmp_path / "empty.txt"
        broken.write_text(f"{len(ids)} 0\n" + "".join(f"{rid}\n" for rid in ids))
        out = tmp_path / "report.tsv"
        rc = main([command, "--vectors", str(broken), "--labels", str(labels),
                   "--folds", "4", "--seed", "0", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("seqvec: error: line 1: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["knn-eval", "svm-eval"])
    def test_duplicate_vector_id_is_data_error(self, eval_files, tmp_path, command,
                                               capsys):
        # knn-eval once said "ids must be unique"; svm-eval kept the last row
        vectors, labels = eval_files
        lines = vectors.read_text().splitlines()
        first_id = lines[1].split()[0]
        lines[5] = first_id + " " + lines[5].split(" ", 1)[1]
        broken = tmp_path / "dup.txt"
        broken.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.tsv"
        rc = main([command, "--vectors", str(broken), "--labels", str(labels),
                   "--folds", "4", "--seed", "0", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"seqvec: error: line 6: duplicate vector id {first_id!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["knn-eval", "svm-eval"])
    def test_no_labeled_vector_is_data_error(self, eval_files, tmp_path, command,
                                             capsys):
        vectors, _ = eval_files
        other = tmp_path / "other.tsv"
        other.write_text("elsewhere\tFAM0\n")
        out = tmp_path / "report.tsv"
        rc = main([command, "--vectors", str(vectors), "--labels", str(other),
                   "--folds", "4", "--seed", "0", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"seqvec: warning: {2 * PER_FAMILY} vectors have no family label\n"
            "seqvec: error: no vector id appears in the label file\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["binary", "multiclass"])
    def test_svm_eval_failure_leaves_no_output_file(self, eval_files, tmp_path, mode,
                                                    capsys):
        # 20 folds exceed every family's 12 members: no family is usable
        vectors, labels = eval_files
        out = tmp_path / "report.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["svm-eval", "--vectors", str(vectors), "--labels", str(labels),
                       "--mode", mode, "--folds", "20", "--output", str(out)])
        assert rc == 1
        assert "seqvec: error" in capsys.readouterr().err
        assert not out.exists()


class TestAlignKnn:
    def test_end_to_end_classification(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        fam1 = ["MKVLAWGHEEDNA", "MKVLAWGHEEDNC", "MKVLAWGHEEDNW"]
        fam2 = ["PPPWWFFYYQQHH", "PPPWWFFYYQQHA", "PPPWWFFYYQQHC"]
        db_records = [
            SequenceRecord(f"db{i}", "", seq, family=f"F{1 + (i >= 3)}")
            for i, seq in enumerate(fam1 + fam2)
        ]
        db = tmp_path / "db.fasta"
        with open(db, "w") as fh:
            write_fasta(db_records, fh)
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{r.id}\t{r.family}\n" for r in db_records))
        query = tmp_path / "query.fasta"
        with open(query, "w") as fh:
            write_fasta([SequenceRecord("q1", "", "MKVLAWGHEEDNY"),
                         SequenceRecord("q2", "", "PPPWWFFYYQQHY")], fh)
        rc = main(["align-knn", "--db", str(db), "--labels", str(labels),
                   "--query", str(query), "--k", "3"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "query\tpredicted_family"
        assert out[1] == "q1\tF1"
        assert out[2] == "q2\tF2"

    def test_custom_matrix_file(self, tmp_path, capsys):
        matrix = tmp_path / "m.txt"
        matrix.write_text("   A  C\nA  2 -1\nC -1  2\n")
        db = tmp_path / "db.fasta"
        db.write_text(">d1\nAAAA\n>d2\nCCCC\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("d1\tFA\nd2\tFC\n")
        query = tmp_path / "q.fasta"
        query.write_text(">q\nAAAA\n")
        rc = main(["align-knn", "--db", str(db), "--labels", str(labels),
                   "--query", str(query), "--k", "1", "--matrix", str(matrix),
                   "--gap-open", "-2", "--gap-extend", "-1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1] == "q\tFA"

    @pytest.mark.parametrize("cell", ["x", "#2", "1.5", "99999999999"])
    def test_bad_matrix_cell_is_data_error(self, tmp_path, cell, capsys):
        matrix = tmp_path / "m.txt"
        matrix.write_text(f"   A  C\nA  2 -1\nC {cell}  2\n")
        db = tmp_path / "db.fasta"
        db.write_text(">d1\nAAAA\n>d2\nCCCC\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("d1\tFA\nd2\tFC\n")
        rc = main(["align-knn", "--db", str(db), "--labels", str(labels),
                   "--query", str(db), "--k", "1", "--matrix", str(matrix)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"seqvec: error: line 3: score {cell!r} is not a 32-bit integer\n")

    def test_failure_leaves_no_output_file(self, tmp_path, capsys):
        # q1 classifies; q2's top hit d2 has no label, so the vote fails
        db = tmp_path / "db.fasta"
        db.write_text(">d1\nMKVLAWGHEE\n>d2\nPPPWWFFYYQ\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("d1\tF1\n")
        query = tmp_path / "q.fasta"
        query.write_text(">q1\nMKVLAWGHEE\n>q2\nPPPWWFFYYQ\n")
        out = tmp_path / "pred.tsv"
        rc = main(["align-knn", "--db", str(db), "--labels", str(labels),
                   "--query", str(query), "--k", "1", "--output", str(out)])
        assert rc == 1
        assert "no family label" in capsys.readouterr().err
        assert not out.exists()


def _options(command):
    """{dest: action} of one subcommand's arguments."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


class TestParserReadsTheLibrary:
    def test_choices_are_the_library_constants(self):
        assert _options("tokenize")["alphabet"].choices is ALPHABETS
        assert _options("tokenize")["mode"].choices is MODES
        assert _options("tokenize")["policy"].choices is POLICIES
        assert _options("train")["arch"].choices is ARCHITECTURES
        assert _options("knn-eval")["metric"].choices is METRICS

    def test_defaults_are_the_library_defaults(self):
        tokenize, knn, svm, align = map(_options, ("tokenize", "knn-eval", "svm-eval",
                                                   "align-knn"))
        assert ALPHABETS[tokenize["alphabet"].default] is _defaults(parse_fasta)["alphabet"]
        assert tokenize["policy"].default == _defaults(parse_fasta)["policy"]
        assert tokenize["min_count"].default == _defaults(build_corpus)["min_count"]
        assert knn["folds"].default == _defaults(knn_cross_validate)["folds"]
        assert knn["metric"].default == VectorIndex.metric
        for protocol in (multiclass_protocol, binary_family_protocol):
            assert svm["folds"].default == _defaults(protocol)["folds"]
            assert svm["C"].default == _defaults(protocol)["C"]
        assert svm["top_n"].default == _defaults(multiclass_protocol)["top_n_families"]
        assert (align["gap_open"].default, align["gap_extend"].default) == (
            AlignParams.gap_open, AlignParams.gap_extend)

    def test_train_without_optional_flags_uses_the_default_config(
            self, tiny_dataset, tmp_path, monkeypatch):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        monkeypatch.setenv("SEQVEC_SEED", "3")
        model = tmp_path / "model.bin"
        assert main(["train", "--corpus", str(corpus), "--output", str(model)]) == 0
        assert load_model(model.read_bytes()).config == TrainConfig(seed=3)

    @pytest.mark.parametrize("objective", ["hs:3", "ns3", "softmax"])
    def test_unknown_objective_is_usage_error(self, tiny_dataset, tmp_path, objective,
                                              capsys):
        root, fasta, labels = tiny_dataset
        corpus = _tokenize(root, fasta)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--objective", objective,
                   "--output", str(tmp_path / "bad.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("seqvec: usage error: ")
        assert not (tmp_path / "bad.bin").exists()

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        commands = [line[1:] for line in lines if line[:1] == ["seqvec"]]
        assert [argv[0] for argv in commands] == [
            "tokenize", "train", "vectors", "infer", "knn-eval", "svm-eval", "align-knn"]
        for argv in commands:
            build_parser().parse_args(argv)  # exits 2 on a flag it does not know


class TestDispatch:
    def test_a_second_call_builds_no_parser(self, tmp_path, monkeypatch):
        argv = ["vectors", "--model", str(tmp_path / "missing.bin")]
        assert main(argv) == 1  # the first call may build the parser
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        assert main(argv) == 1
        assert built == []
        build_parser.__wrapped__()  # an uncached build is counted
        assert len(built) > 1

    def test_command_is_looked_up_when_called(self, tmp_path, monkeypatch):
        # the bench tracer wraps cli.cmd_* after the parser has been built
        argv = ["vectors", "--model", str(tmp_path / "m.bin")]
        assert main(argv) == 1
        ran = []
        monkeypatch.setattr(cli, "cmd_vectors", lambda args: ran.append(args.model) or 0)
        assert main(argv) == 0
        assert ran == [str(tmp_path / "m.bin")]


@pytest.fixture(scope="module")
def every_input(tiny_dataset, tmp_path_factory):
    """One valid file of each kind, and the argv that reads each of them."""
    root, fasta, labels = tiny_dataset
    corpus = _tokenize(root, fasta)
    model = _train(root, corpus, "model_inputs.bin")
    vectors = root / "vectors_inputs.txt"
    assert main(["vectors", "--model", str(model), "--output", str(vectors)]) == 0
    matrix = root / "matrix.txt"
    matrix.write_text("   A  C  D\nA  2 -1  0\nC -1  2 -3\nD  0 -3  5\n")
    files = {"fasta": fasta, "corpus": corpus, "labels": labels, "vectors": vectors,
             "matrix": matrix, "model": model}
    out = tmp_path_factory.mktemp("outputs")

    def argv(command, kind, path):
        paths = {**files, kind: path}
        evaluate = ["--vectors", str(paths["vectors"]), "--labels", str(paths["labels"]),
                    "--folds", "2", "--seed", "0", "--output", str(out / "report.tsv")]
        return {
            "tokenize": ["tokenize", "--input", str(paths["fasta"]), "--k", "3",
                         "--output", str(out / "corpus.txt")],
            "train": ["train", "--corpus", str(paths["corpus"]), "--dim", "4",
                      "--epochs", "1", "--output", str(out / "model.bin")],
            "vectors": ["vectors", "--model", str(paths["model"]), "--output",
                        str(out / "vectors.txt")],
            "infer": ["infer", "--model", str(paths["model"]), "--input",
                      str(paths["fasta"]), "--epochs", "1", "--output",
                      str(out / "inferred.txt")],
            "knn-eval": ["knn-eval", *evaluate, "--k", "1,3"],
            "svm-eval": ["svm-eval", *evaluate, "--top-n", "2"],
            "align-knn": ["align-knn", "--db", str(paths["fasta"]), "--labels",
                          str(paths["labels"]), "--query", str(paths["fasta"]),
                          "--k", "1", "--matrix", str(paths["matrix"]),
                          "--output", str(out / "predicted.tsv")],
        }[command]

    return files, argv, out


# Each command with each kind of input file it reads.
_READS = [("tokenize", "fasta"), ("infer", "fasta"), ("train", "corpus"),
          ("knn-eval", "vectors"), ("knn-eval", "labels"), ("svm-eval", "vectors"),
          ("svm-eval", "labels"), ("align-knn", "fasta"), ("align-knn", "labels"),
          ("align-knn", "matrix")]


class TestInputFiles:
    @pytest.mark.parametrize("command, kind", _READS)
    def test_valid_inputs_run(self, every_input, command, kind):
        files, argv, _ = every_input
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv(command, kind, files[kind])) == 0

    @pytest.mark.parametrize("command, kind", _READS)
    def test_invalid_utf8_is_data_error_at_its_byte(self, every_input, tmp_path,
                                                    command, kind, capsys):
        files, argv, _ = every_input
        blob = files[kind].read_bytes()
        at = blob.index(b"\n") + 2  # inside the second line
        broken = tmp_path / files[kind].name
        broken.write_bytes(blob[:at] + b"\xff" + blob[at:])
        rc = main(argv(command, kind, broken))
        assert rc == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"seqvec: error: invalid UTF-8 at byte {at}: b'\\xff'")

    @pytest.mark.parametrize("command, kind", _READS)
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_inputs_exit_cleanly(self, every_input, command, kind, data):
        # any bytes in, an exit code out: 0 if the edit kept the file
        # valid, else 1 or 2 with one diagnostic, never an exception
        files, argv, out = every_input
        blob = files[kind].read_bytes()
        pieces = st.sampled_from([b"", b"\xff", b"\xc3", b"\n", b"\t", b" ", b">",
                                  b"#", b"x", b"0", b"-1", b"nan", b"1e999", b"*"])
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(blob)))
            j = data.draw(st.integers(i, min(len(blob), i + 8)))
            blob = blob[:i] + data.draw(pieces | st.binary(max_size=4)) + blob[j:]
        mutated = out / f"mutated.{kind}"
        mutated.write_bytes(blob)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = main(argv(command, kind, mutated))
        assert rc in (0, 1, 2)
        if rc:
            assert err.getvalue().splitlines()[-1].startswith(
                ("seqvec: error: ", "seqvec: usage error: "))

    @pytest.mark.parametrize("command", ["vectors", "infer"])
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_model_files_exit_cleanly(self, every_input, command, data):
        # the binary model file: one byte overwritten, 1-8 bytes inserted or
        # deleted, or the file cut short; an exit code out, never an exception
        files, argv, out = every_input
        blob = files["model"].read_bytes()
        at = data.draw(st.integers(0, len(blob) - 1))
        edit = data.draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
        if edit == "overwrite":
            blob = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
        elif edit == "insert":
            blob = blob[:at] + data.draw(st.binary(min_size=1, max_size=8)) + blob[at:]
        elif edit == "delete":
            blob = blob[:at] + blob[at + data.draw(st.integers(1, 8)) :]
        else:
            blob = blob[:at]
        mutated = out / "mutated.bin"
        mutated.write_bytes(blob)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = main(argv(command, "model", mutated))
        assert rc in (0, 1, 2)
        diagnostics = [line for line in err.getvalue().splitlines()
                       if line.startswith(("seqvec: error: ", "seqvec: usage error: "))]
        assert len(diagnostics) == (rc != 0)
        assert "Traceback" not in err.getvalue()
