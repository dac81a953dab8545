"""Span tracing around the public functions of each seqvec layer.

The tracer wraps functions from outside the package: every module of
``seqvec`` that holds a reference to a traced function (its home module,
``seqvec.cli`` which binds library names at import, sibling modules that
import it, the package namespace) gets the wrapper, so a call is recorded
however it is looked up. Spans stay in memory and are written out once,
at the end of the run.

Throughput counts are computed from each call's arguments (corpus
tokens, in-vocabulary positions, alignment cells, SVM steps), not from
inside the program, so they stay valid when an implementation stops
calling its inner helpers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _train_tokens(args, kwargs, result):
    model, docs = args[0], _arg(args, kwargs, 1, "docs")
    cfg = _arg(args, kwargs, 2, "cfg") or model.config
    return cfg.epochs * sum(len(d.tokens) for d in docs)


def _infer_positions(args, kwargs, result):
    model, token_lists = args[0], _arg(args, kwargs, 1, "token_lists")
    epochs = _arg(args, kwargs, 2, "infer_epochs")
    if epochs is None:
        epochs = 2 * model.config.epochs
    V = len(model.vocab)
    return epochs * sum(sum(1 for t in tl if 0 <= t < V) for tl in token_lists)


def _align_cells(args, kwargs, result):
    db, query = _arg(args, kwargs, 0, "db"), _arg(args, kwargs, 1, "query")
    n = len(query.residues)
    return sum(n * len(rec.residues) for rec in db if rec.id != query.id)


def _svm_steps(args, kwargs, result):
    return _arg(args, kwargs, 3, "epochs", 20) * len(_arg(args, kwargs, 0, "X"))


def _size_read(data):
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, str):
        return len(data.encode("utf-8"))
    return os.fstat(data.fileno()).st_size


def _model_written(args, kwargs, result):
    return _arg(args, kwargs, 1, "stream").tell()


def _vectors_written(args, kwargs, result):
    return _arg(args, kwargs, 2, "stream").tell()


def _bytes_read(args, kwargs, result):
    return _size_read(_arg(args, kwargs, 0, "data"))


# (module, function, counter name or None, counter function)
TRACED = [
    ("sequences", "parse_fasta", None, None),
    ("tokenizer", "build_corpus", None, None),
    ("tokenizer", "write_corpus", None, None),
    ("tokenizer", "read_corpus", None, None),
    ("embedding", "train", "embedding.train.tokens", _train_tokens),
    ("embedding", "loss_estimate", None, None),
    ("embedding", "infer_docs", "embedding.infer_docs.positions", _infer_positions),
    ("model_io", "save_model", "model_io.bytes", _model_written),
    ("model_io", "load_model", "model_io.bytes", _bytes_read),
    ("model_io", "write_vectors", "model_io.bytes", _vectors_written),
    ("model_io", "read_vectors", "model_io.bytes", _bytes_read),
    ("knn", "knn_cross_validate", None, None),
    ("knn", "neighbors", None, None),
    ("knn", "majority_vote", None, None),
    ("classify", "multiclass_protocol", None, None),
    ("classify", "binary_family_protocol", None, None),
    ("classify", "train_linear_svm", "classify.svm_steps", _svm_steps),
    ("align", "align_topk", "align.cells", _align_cells),
    # traced only so that align_topk's self time excludes the scoring
    ("align", "smith_waterman", None, None),
    ("cli", "cmd_tokenize", None, None),
    ("cli", "cmd_train", None, None),
    ("cli", "cmd_vectors", None, None),
    ("cli", "cmd_knn_eval", None, None),
    ("cli", "cmd_svm_eval", None, None),
]

CLI_COMMANDS = ["tokenize", "train", "vectors", "knn-eval", "svm-eval"]


class Tracer:
    """Records (name, start, end, parent, run id) spans in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._run_id = "setup"
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self._run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def run(self, run_id: str):
        """Root span for one operation; spans inside it share ``run_id``."""
        self._run_id = run_id
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, counter, count):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                self.counters[counter] += count(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Patch every seqvec module attribute that names a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seqvec" or n.startswith("seqvec."))]
        for mod_name, fn_name, counter, count in TRACED:
            home = sys.modules[f"seqvec.{mod_name}"]
            original = getattr(home, fn_name)
            label = f"{mod_name}.{fn_name}"
            if mod_name == "cli":
                label = "cli." + fn_name[len("cmd_"):].replace("_", "-")
            wrapper = self._wrap(label, original, counter, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON object per span; times are seconds on perf_counter."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Total and self seconds per span name, plus derived throughputs."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            dur = span["end"] - span["start"]
            total[span["name"]] += dur
            calls[span["name"]] += 1
            if span["parent"] is not None:
                child[span["parent"]] += dur
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            self_s[span["name"]] += span["end"] - span["start"] - child[span["id"]]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = self.counters
        out = {
            f"{mod}.{fn}.s": total[f"{mod}.{fn}"]
            for mod, fn, _, _ in TRACED if mod != "cli" and fn != "smith_waterman"
        }
        out.update({
            "embedding.train.tokens_per_s":
                rate(c["embedding.train.tokens"], total["embedding.train"]),
            "embedding.infer_docs.positions_per_s":
                rate(c["embedding.infer_docs.positions"], total["embedding.infer_docs"]),
            "classify.train_linear_svm.calls": float(calls["classify.train_linear_svm"]),
            "classify.svm_steps_per_s":
                rate(c["classify.svm_steps"], total["classify.train_linear_svm"]),
            "align.mcups": rate(c["align.cells"], total["align.align_topk"]) / 1e6,
            "align.align_topk.self_s": self_s["align.align_topk"],
            "model_io.bytes": c["model_io.bytes"],
        })
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
        return out
