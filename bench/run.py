"""Benchmark for treedefect: one workload per process, end to end or traced.

    python3 bench/run.py --workload pretrain-cv --seed 1 --seconds 20 --trace 0

Run from the repository root. The run imports the package from `src/`,
makes the workload's inputs from the seed (five times, to time set-up),
then runs passes back to back until `--seconds` have gone by. Every pass is
checked (see workloads.py); each failed check is a failed operation. With
`--trace 0` the passes run unwrapped and the end-to-end metrics are
reported; with `--trace 1` untraced and traced passes alternate, and the
per-layer metrics come from the traced ones. End-to-end times and rates are
wall-clock figures rescaled to the reference machine's speed, sampled
before and after every timed section (calibrate.py); per-layer times are
plain wall time. The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-caller closed loops, and a pinned
# thread count keeps the timings comparable across machines with more cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from tracing import COUNT_NAMES, SPAN_NAMES, Tracer, nesting_errors  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_PASSES = 3  # untraced passes in a --trace 0 run

END_TO_END = {
    "setup_s": "s", "run_s": "s", "train_nodes_per_s": "nodes/s",
    "featurize_files_per_s": "files/s", "ingest_files_per_s": "files/s",
    "auc_forest": "1", "f_forest": "1", "auc_logistic": "1", "f_logistic": "1",
    "val_perplexity": "1", "peak_rss_mb": "MB", "ok_share": "1",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        if name == "minilang.parse_mini":
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_NAMES:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["pretrain.rmsprop_step.calls"] = "count"
    units["treelstm.forward.ns_per_node"] = "ns"
    units["treelstm.backward.ns_per_node"] = "ns"
    units["trace.coverage"] = "1"
    units["trace.overhead_share"] = "1"
    return units


PER_LAYER = _per_layer_units()


def import_package():
    """Import treedefect afresh from this checkout's src/ (timed as set-up)."""
    for name in [m for m in sys.modules if m == "treedefect" or m.startswith("treedefect.")]:
        del sys.modules[name]
    td = importlib.import_module("treedefect")
    importlib.import_module("treedefect.cli")
    if Path(td.__file__).resolve().parent != SRC / "treedefect":
        raise RuntimeError(f"imported treedefect from {td.__file__}, not {SRC}")
    return td


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        rev = "not a git checkout"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "git_revision": rev, "src_lines": src_lines}


def workload_record(wl, td, inputs, seed: int, size: str) -> dict:
    return {"name": wl.name, "seed": seed, "size": size, "why": wl.why,
            **wl.describe(td, inputs)}


def _hashes(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        tamper=None, trace_file: Path | None = None) -> dict:
    """One benchmark run; returns the result object the command prints.

    `tamper(pass_index, out_dir)`, when given, runs after each pass writes
    its artifacts and before they are hashed (used by the self-test)."""
    wl = WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    gauge = calibrate.Gauge()
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            gauge.sample()
            t0 = time.perf_counter()
            td = import_package()
            inputs = wl.setup(td, seed, size, work / "inputs")
            setup_s.append(time.perf_counter() - t0)
        print("# workload " + json.dumps(workload_record(wl, td, inputs, seed, size)))
        print("# environment " + json.dumps(environment()))
        trace_file = trace_file or WORK / f"trace-{workload}-{seed}.jsonl"
        return _passes(wl, td, inputs, work, seconds, trace, tamper, trace_file, gauge,
                       statistics.median(setup_s))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _passes(wl, td, inputs, work, seconds, trace, tamper, trace_file, gauge, setup_s):
    attempted = failed = 0
    reference: dict[str, str] | None = None
    untraced: list[dict] = []
    traced: list[tuple[float, dict]] = []
    last_tracer = None
    start = time.perf_counter()
    index = 0
    while True:
        tracer = Tracer() if trace and len(traced) < len(untraced) else None
        out = work / f"pass{index}"
        out.mkdir()
        gauge.sample()
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.install()
            try:
                result = wl.run_pass(td, inputs, out)
            finally:
                if tracer:
                    tracer.uninstall()
            run_s = time.perf_counter() - t0
            gauge.sample()
            print(f"# pass {index}{' traced' if tracer else ''}: {run_s:.4f} s wall",
                  file=sys.stderr)
            failures = result.failures
            if tamper:
                tamper(index, out)
            hashes = _hashes(result.artifacts)
            if reference is None:
                reference = hashes
            elif hashes != reference:
                failures.append("artifacts differ from the first pass: " + ", ".join(
                    sorted(n for n in reference.keys() | hashes.keys()
                           if reference.get(n) != hashes.get(n))))
            if tracer:
                summary = tracer.summary()
                failures += [f"traced layer {n} recorded no calls" for n in wl.layers
                             if not summary[f"{n}.calls"]]
                failures += nesting_errors(tracer.closed_spans())
                traced.append((run_s, summary))
                last_tracer = tracer
            else:
                untraced.append({**result.metrics, "run_s": run_s})
                for name, (files, probe) in result.probes.items():
                    t0 = time.perf_counter()
                    probe()
                    untraced[-1][name] = files / (time.perf_counter() - t0)
                    gauge.sample()
            attempted += result.attempted
            failed += min(len(failures), result.attempted)
            for message in failures:
                print(f"# check failed in pass {index}: {message}", file=sys.stderr)
        except Exception:  # a crashed pass is one failed operation; keep measuring
            traceback.print_exc()
            attempted += 1
            failed += 1
        shutil.rmtree(out, ignore_errors=True)
        index += 1
        enough = (len(untraced) >= 1 and len(traced) >= 1) if trace \
            else len(untraced) >= MIN_PASSES
        if time.perf_counter() - start >= seconds and (enough or index >= 2 * MIN_PASSES):
            break

    if trace:
        metrics = _per_layer(traced, untraced)
        if last_tracer is not None:
            last_tracer.write(trace_file)
        units = PER_LAYER
    else:
        speed = gauge.speed()
        print(f"# machine speed {speed:.4f} of the reference", file=sys.stderr)
        metrics = {name: statistics.median(p[name] for p in untraced if name in p)
                   for name in END_TO_END if any(name in p for p in untraced)}
        metrics = {name: value / speed if name.endswith("_per_s") else value
                   for name, value in metrics.items()}
        metrics["run_s"] = metrics.get("run_s", 0.0) * speed
        metrics["setup_s"] = setup_s * speed
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_share"] = 1 - failed / max(attempted, 1)
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                        for name, unit in units.items()}}


def _per_layer(traced, untraced) -> dict[str, float]:
    if not traced:
        return {}
    out = {}
    for name in PER_LAYER:
        values = [s[name] for _, s in traced if name in s]
        if values:
            out[name] = statistics.median(values)
    for kind in ("forward", "backward"):
        nodes = out.get(f"treelstm.{kind}.nodes", 0)
        out[f"treelstm.{kind}.ns_per_node"] = (
            out[f"treelstm.{kind}.self_s"] * 1e9 / nodes if nodes else 0.0)
    out["trace.coverage"] = statistics.median(s["trace.self_s"] / r for r, s in traced)
    if untraced:
        out["trace.overhead_share"] = (statistics.median(r for r, _ in traced)
                                       / statistics.median(p["run_s"] for p in untraced) - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treedefect" / "__init__.py").is_file():
        print(f"error: no treedefect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
