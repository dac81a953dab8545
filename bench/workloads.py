"""The seeded corpus and the three benchmark workloads.

All workloads share one labeled corpus: ``N_FAMILIES`` Markov families
(``markov_family_corpus``), each split into ``PER_SPLIT`` database
sequences and ``PER_SPLIT`` held-out queries. Every sequence is cut to a
length drawn log-uniformly from [MIN_LEN, MAX_LEN), as real proteins vary
in length. The draw is stratified within each split (one length per
quantile stratum, shuffled), so both splits have the same total length
for every seed and timings compare across seeds while the content, the
family chains and the length-to-sequence assignment all vary.

The model settings (dim 32, alpha 0.12, 10 epochs) let dm/ns recover the
families on a corpus this small for every seed tried (1-15); at alpha
0.05 or 0.025 accuracy fell to chance on some seeds.
"""

from __future__ import annotations

import io
import os
import re
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout

import numpy as np

from seqvec import align, cli, embedding, knn, model_io, tokenizer
from seqvec.sequences import SequenceRecord, write_fasta
from seqvec.synthetic import markov_family_corpus

N_FAMILIES = 4
PER_SPLIT = 25
MIN_LEN, MAX_LEN = 24, 240
CONCENTRATION = 0.1
K = 10  # neighbors voting, in embedding space and among alignments
TOKENIZER = tokenizer.TokenizerConfig(k=3, mode="nonoverlap")
TRAIN = dict(architecture="dm", dim=32, window=5, objective="ns", negative=5,
             epochs=10, alpha0=0.12, seed=1, workers=1)
INFER_EPOCHS = 2 * TRAIN["epochs"]
PROGRAM_SEED = 1
REFERENCE_SAMPLES = 3  # align_query queries whose top hits are re-scored


def _stratified_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.floor(MIN_LEN * (MAX_LEN / MIN_LEN) ** u).astype(int)


def make_corpus(seed: int) -> tuple[list[SequenceRecord], list[SequenceRecord]]:
    """(database, queries), a pure function of ``seed``."""
    records = markov_family_corpus(N_FAMILIES, 2 * PER_SPLIT, MAX_LEN, seed=seed,
                                   concentration=CONCENTRATION)
    rng = np.random.default_rng([seed, 1])
    db, queries = [], []
    for f in range(N_FAMILIES):
        members = records[f * 2 * PER_SPLIT:(f + 1) * 2 * PER_SPLIT]
        order = rng.permutation(len(members))
        db += [members[i] for i in order[:PER_SPLIT]]
        queries += [members[i] for i in order[PER_SPLIT:]]

    def cut(recs):
        return [SequenceRecord(r.id, r.description, r.residues[:n], r.family)
                for r, n in zip(recs, _stratified_lengths(rng, len(recs)))]

    return cut(db), cut(queries)


def length_summary(records: list[SequenceRecord]) -> dict:
    lengths = np.array([len(r.residues) for r in records])
    q10, q50, q90 = np.percentile(lengths, [10, 50, 90])
    return {"n": len(lengths), "min": int(lengths.min()), "p10": float(q10),
            "p50": float(q50), "p90": float(q90), "max": int(lengths.max()),
            "total": int(lengths.sum())}


class Tally:
    """Operations attempted and failed, and per-operation latencies.

    A wrong result counts as a failed operation; it never stops the run.
    """

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.tracer = tracer

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    @contextmanager
    def op(self, run_id: str, timed: bool = True):
        """One operation: timed, traced under ``run_id``, failures counted."""
        self.attempted += 1
        root = self.tracer.run(run_id) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with root:
                yield
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            self.errors.append(f"{run_id}: {traceback.format_exc()}")
        finally:
            if timed:
                self.latencies.append(time.perf_counter() - start)


class Workload:
    """setup() builds the inputs; run_pass() works through them once and
    returns the pass's accuracies (None if an operation they need failed).
    """

    name = ""
    # Accuracy floors, well under the lowest value seen over the seeds tried
    # (1-15); a result below its floor counts as a failed operation.
    floors: dict[str, float] = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.db, self.queries = make_corpus(self.seed)
        self.labels = {r.id: r.family for r in self.db}

    def inputs(self) -> dict:
        return {"database": length_summary(self.db),
                "queries": length_summary(self.queries)}

    def final_checks(self, tally: Tally) -> None:
        pass


class Pipeline(Workload):
    """The CLI workflow, run in-process with files in a temp directory."""

    name = "pipeline"
    floors = {"knn10_acc": 0.70, "alt_acc": 0.70}

    def setup(self) -> None:
        super().setup()
        self.dir = tempfile.mkdtemp(dir=self.workdir)
        with open(self._path("db.fasta"), "w") as fh:
            write_fasta(self.db, fh)
        with open(self._path("labels.tsv"), "w") as fh:
            fh.writelines(f"{rid}\t{fam}\n" for rid, fam in self.labels.items())

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def inputs(self) -> dict:
        return {"database": length_summary(self.db)}

    def _commands(self):
        p, seed = self._path, str(PROGRAM_SEED)
        common = ["--vectors", p("vectors.txt"), "--labels", p("labels.tsv"),
                  "--folds", "10", "--seed", seed]
        objective = f"{TRAIN['objective']}:{TRAIN['negative']}"
        return [
            ("tokenize", ["tokenize", "--input", p("db.fasta"), "--k", str(TOKENIZER.k),
                          "--mode", TOKENIZER.mode, "--output", p("corpus.txt")]),
            ("train", ["train", "--corpus", p("corpus.txt"),
                       "--arch", TRAIN["architecture"], "--dim", str(TRAIN["dim"]),
                       "--window", str(TRAIN["window"]), "--objective", objective,
                       "--epochs", str(TRAIN["epochs"]), "--alpha", str(TRAIN["alpha0"]),
                       "--seed", str(TRAIN["seed"]), "--workers", str(TRAIN["workers"]),
                       "--output", p("model.bin")]),
            ("vectors", ["vectors", "--model", p("model.bin"), "--output", p("vectors.txt")]),
            ("knn-eval", ["knn-eval", *common, "--output", p("knn.tsv")]),
            ("svm-multiclass", ["svm-eval", *common, "--mode", "multiclass",
                                "--output", p("multiclass.tsv")]),
            ("svm-binary", ["svm-eval", *common, "--mode", "binary",
                            "--output", p("binary.tsv")]),
        ]

    def run_pass(self, tally: Tally, n: int):
        report = {}
        with tally.op(f"{self.name}.{n}"):
            for what, argv in self._commands():
                err = io.StringIO()
                with redirect_stderr(err), redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the flags
                        code = exc.code
                ok = code == 0 and self._parse(what, err.getvalue(), report)
                tally.check(ok, f"pipeline{n} {what}: exit {code}, {err.getvalue()[-300:]}")
        if "knn10_acc" not in report or "alt_acc" not in report:
            return None
        return report

    def _parse(self, what: str, stderr: str, report: dict) -> bool:
        """Check one command's output; record the accuracies it reports."""
        n_seq = len(self.db)
        if what == "tokenize":
            with open(self._path("corpus.txt")) as fh:
                lines = fh.read().splitlines()
            return (lines[0] == f"#meta k={TOKENIZER.k} mode={TOKENIZER.mode}"
                    and sum(ln.startswith("#doc ") for ln in lines) == n_seq
                    and len(lines) == 1 + n_seq + TOKENIZER.k * n_seq)
        if what == "train":
            m = re.search(r"initial loss (\S+), final loss (\S+)", stderr)
            with open(self._path("model.bin"), "rb") as fh:
                magic = fh.read(4)
            return bool(m) and float(m[2]) < float(m[1]) and magic == model_io.MAGIC
        if what == "vectors":
            with open(self._path("vectors.txt")) as fh:
                lines = fh.read().splitlines()
            return (lines[0] == f"{n_seq} {TRAIN['dim']}" and len(lines) == n_seq + 1
                    and all(len(ln.split()) == TRAIN["dim"] + 1 for ln in lines[1:]))
        rows = self._table(what)
        if what == "knn-eval":
            by_k = {int(r[0]): float(r[1]) / 100 for r in rows}
            report["knn10_acc"] = by_k[K]
            return set(by_k) == {1, 3, 5, 10}
        if what == "svm-multiclass":
            (row,) = rows
            report["alt_acc"] = float(row[4]) / 100
            return len(row) == 6
        families = sorted(set(self.labels.values()))
        return sorted(r[0] for r in rows) == families and all(
            len(r) == 7 and 0 <= float(r[5]) <= 100 for r in rows)

    def _table(self, what: str) -> list[list[str]]:
        name = {"knn-eval": "knn.tsv", "svm-multiclass": "multiclass.tsv",
                "svm-binary": "binary.tsv"}[what]
        with open(self._path(name)) as fh:
            header, *rows = fh.read().splitlines()
        if "Accuracy(%)" not in header.split("\t"):
            raise ValueError(f"{name}: unexpected header {header!r}")
        return [row.split("\t") for row in rows]


class EmbedQuery(Workload):
    """Classify held-out queries through a trained model file."""

    name = "embed_query"
    floors = {"knn10_acc": 0.80, "alt_acc": 0.80}

    def setup(self) -> None:
        super().setup()
        corpus = tokenizer.build_corpus(self.db, TOKENIZER)
        cfg = embedding.TrainConfig(**TRAIN)
        model = embedding.init_model(corpus.vocab, len(corpus.doc_ids), cfg,
                                     corpus.doc_ids, TOKENIZER)
        embedding.train(model, corpus.docs)
        buf = io.BytesIO()
        model_io.save_model(model, buf)
        self.model_bytes = buf.getvalue()

    def run_pass(self, tally: Tally, n: int):
        loaded = []
        with tally.op(f"{self.name}.{n}.load", timed=False):
            model = model_io.load_model(self.model_bytes)
            loaded.append(knn.VectorIndex(model.D, model.doc_ids,
                                          [self.labels[i] for i in model.doc_ids]))
        if not loaded:
            return None
        index = loaded[0]
        tok, lookup = model.tokenizer, model.vocab.index
        votes = nearest = 0
        for i, query in enumerate(self.queries):
            with tally.op(f"{self.name}.{n}.{query.id}"):
                phases = tokenizer.kmers_nonoverlapping(query.residues, tok.k)
                token_lists = [tl for tl in ([lookup[km] for km in ph if km in lookup]
                                             for ph in phases) if tl]
                vec = embedding.infer_docs(model, token_lists,
                                           infer_epochs=INFER_EPOCHS, seed=PROGRAM_SEED)
                hits = knn.neighbors(index, vec, K)
                votes += knn.majority_vote(hits, self.labels) == query.family
                nearest += self.labels[hits[0].id] == query.family
        return {"knn10_acc": votes / len(self.queries),
                "alt_acc": nearest / len(self.queries)}

    def final_checks(self, tally: Tally) -> None:
        buf = io.BytesIO()
        model_io.save_model(model_io.load_model(self.model_bytes), buf)
        tally.check(buf.getvalue() == self.model_bytes,
                    "save_model(load_model(b)) differs from b")


class AlignQuery(Workload):
    """Classify the same queries by Smith-Waterman retrieval: no embedding."""

    name = "align_query"
    floors = {"knn10_acc": 0.90, "alt_acc": 0.90}

    def __init__(self, seed: int, workdir: str, reference_sw):
        super().__init__(seed, workdir)
        self.reference_sw = reference_sw

    def setup(self) -> None:
        super().setup()
        self.params = align.blosum62_params()
        self.hits = {}  # query index -> top hits, for final_checks

    def run_pass(self, tally: Tally, n: int):
        votes = nearest = 0
        for i, query in enumerate(self.queries):
            # the body of align_classify, keeping the hits for checking
            with tally.op(f"{self.name}.{n}.{query.id}"):
                hits = align.align_topk(self.db, query, K, self.params)
                votes += knn.majority_vote(hits, self.labels, similarity=True) == query.family
                nearest += self.labels[hits[0].id] == query.family
                self.hits.setdefault(i, hits)
        return {"knn10_acc": votes / len(self.queries),
                "alt_acc": nearest / len(self.queries)}

    def final_checks(self, tally: Tally) -> None:
        """Re-score sampled top hits with the test suite's full-matrix oracle."""
        rng = np.random.default_rng([self.seed, 2])
        by_id = {r.id: r for r in self.db}
        p = self.params
        for i in rng.choice(sorted(self.hits), size=REFERENCE_SAMPLES, replace=False):
            query, hits = self.queries[i], self.hits[i]
            for hit in (hits[0], hits[-1]):
                ref = self.reference_sw(query.residues, by_id[hit.id].residues,
                                        p.substitution, p.gap_open, p.gap_extend)
                tally.check(ref == hit.score,
                            f"{query.id} vs {hit.id}: score {hit.score}, reference {ref}")
            fam = align.align_classify(self.db, query, K, p, self.labels)
            tally.check(fam == knn.majority_vote(hits, self.labels, similarity=True),
                        f"{query.id}: align_classify disagrees with its top-{K} vote")


WORKLOADS = {w.name: w for w in (Pipeline, EmbedQuery, AlignQuery)}
