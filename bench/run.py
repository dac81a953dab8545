#!/usr/bin/env python3
"""seqvec benchmark: the CLI pipeline and two ways to classify queries.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One workload runs in this process; ``all`` runs each workload in a fresh
process, so ``peak_rss_mb`` is per workload, and prints a summary with the
alignment/embedding query-throughput ratio. Workloads, metrics, units and
bounds are listed in BENCHMARK.json at the repository root.

A run imports the package from ``src/`` of the checkout it sits in and
sets up SETUP_REPEATS times (``setup_s`` is the time to import it plus
the median set-up). It then works through the workload's inputs in whole
passes for at most ``--seconds`` (always at least one pass): one pass is a
whole CLI pipeline, or one classification of every held-out query.
Accuracies come from the first pass.

With ``--trace 1`` it instead sets up and makes one pass of every
workload, whichever is named, first untraced and then with spans around
every public function of every layer. It reports per-layer metrics from
the spans plus ``trace.overhead_s``, the traced wall time minus the
untraced one. Spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is the JSON result: ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it, ``info``,
records the machine and the input length distributions. Standard error
and warnings raised by the program are captured, not printed or timed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import nullcontext, redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 900

# Names the end-to-end metrics also go by on each workload:
# name -> (metric, scale, unit)
ALIASES = {
    "pipeline": {"pipeline_s": ("op_p50_ms", 1e-3, "s"),
                 "knn_acc": ("knn10_acc", 1.0, "fraction"),
                 "svm_acc": ("alt_acc", 1.0, "fraction")},
    "query": {"query_per_s": ("ops_per_s", 1.0, "1/s"),
              "query_p50_ms": ("op_p50_ms", 1.0, "ms"),
              "query_p90_ms": ("op_p90_ms", 1.0, "ms"),
              "query_acc": ("knn10_acc", 1.0, "fraction")},
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_program():
    """Import seqvec from this checkout.

    Returns the import time and the test suite's Smith-Waterman oracle.
    """
    oracle = ROOT / "tests" / "test_align.py"
    for need in (SRC / "seqvec" / "__init__.py", oracle):
        if not need.is_file():
            raise SystemExit(f"bench: {need.relative_to(ROOT)} not found; "
                             "run from a seqvec checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import seqvec  # numpy too: nothing above imports it, so setup_s counts it

    import_s = time.perf_counter() - start
    if Path(seqvec.__file__).resolve().parent != SRC / "seqvec":
        raise SystemExit(f"bench: imported seqvec from {seqvec.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("seqvec_test_align", oracle)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return import_s, module.reference_sw


def _blas_threads():
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "seqvec").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def timed_run(w, tally, seconds: float, import_s: float) -> tuple[dict, dict]:
    import numpy as np

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t)
    # Whole passes only, so every input weighs the same in the percentiles;
    # another pass starts if one more of the mean length still fits.
    start = time.perf_counter()
    acc = w.run_pass(tally, 0)
    passes = 1
    while (elapsed := time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        w.run_pass(tally, passes)
        passes += 1
    w.final_checks(tally)
    acc = check_floors(tally, w, acc)
    p50, p90 = np.percentile(tally.latencies, [50, 90])
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(tally.latencies) / elapsed,
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        **acc,
    }
    return metrics, {"passes": passes, "timed_ops": len(tally.latencies),
                     "timed_s": elapsed, "setup_s_each": setups}


def traced_run(ws, tally, spans_path) -> tuple[dict, dict]:
    """One set-up and pass of every workload untraced, then again traced.

    Every workload runs, whichever one was named, so that each per-layer
    metric is measured in every traced run.
    """
    from spans import Tracer

    def one_of_each(tracer=None):
        start = time.perf_counter()
        for w in ws:
            with tracer.run(f"{w.name}.setup") if tracer else nullcontext():
                w.setup()
            check_floors(tally, w, w.run_pass(tally, 0))
        return time.perf_counter() - start

    untraced = one_of_each()
    tracer = Tracer()
    tally.tracer = tracer
    tracer.install()
    try:
        traced = one_of_each(tracer)
    finally:
        tracer.uninstall()
        tally.tracer = None
    for w in ws:
        w.final_checks(tally)
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(ROOT))}


def check_floors(tally, w, acc) -> dict:
    acc = acc or {}
    for name, floor in w.floors.items():
        tally.check(acc.get(name, 0.0) >= floor,
                    f"{w.name}: {name} {acc.get(name)} below floor {floor}")
    return {name: acc.get(name, 0.0) for name in w.floors}


def run_one(args, spec) -> int:
    import_s, reference_sw = load_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()
    captured = io.StringIO()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, \
            warnings.catch_warnings(record=True) as caught, redirect_stderr(captured):
        warnings.simplefilter("always")
        ws = [cls(args.seed, workdir, *((reference_sw,) if cls is workloads.AlignQuery else ()))
              for cls in workloads.WORKLOADS.values()]
        w = next(w for w in ws if w.name == args.workload)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, run = traced_run(ws, tally, spans_path)
        else:
            metrics, run = timed_run(w, tally, args.seconds, import_s)
        inputs = w.inputs()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in listed} - set(metrics)
    if missing:
        raise SystemExit(f"bench: metrics not measured: {sorted(missing)}")
    info = {"workload": args.workload, "machine": machine_info(args.seed),
            "inputs": inputs, "run": run, "warnings_captured": len(caught),
            "stderr_chars_captured": len(captured.getvalue())}
    for err in tally.errors:
        print(f"bench: failed: {err}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    for m in listed:
        print(f"{args.workload}\t{m['name']}\t{metrics[m['name']]:.6g}\t{m['unit']}")
    if not args.trace:
        group = "pipeline" if args.workload == "pipeline" else "query"
        for alias, (name, scale, unit) in ALIASES[group].items():
            print(f"{args.workload}\t{alias}\t{metrics[name] * scale:.6g}\t{unit}")
        print(f"{args.workload}\tfail_ratio\t{tally.failed / tally.attempted:.6g}\tratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result,
                                  "errors": tally.errors}, indent=1))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Each workload in a fresh process, then the query-throughput trade-off."""
    results = {}
    for w in spec["workloads"]:
        name = w["name"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("info ")))
        results[name] = json.loads(lines[-1])
    if not args.trace:
        align_qps = results["align_query"]["metrics"]["ops_per_s"]["value"]
        embed_qps = results["embed_query"]["metrics"]["ops_per_s"]["value"]
        print(f"trade-off\tquery_per_s align_query/embed_query\t{align_qps / embed_qps:.4g}"
              f"\t(align_query {align_qps:.4g} 1/s, embed_query {embed_qps:.4g} 1/s)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
