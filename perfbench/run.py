"""Closed-loop benchmark of the modecover CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sine-40k --seed 11 --seconds 30 --trace 0

One client calls `modecover.cli.main` in this process, one pass of the
workload after another, each pass starting when the previous one returned,
until the next pass would end past `--seconds` (at least one pass runs).
Every pass's outputs are checked and hashed. The last stdout line is the
result: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones from the traced passes. The
line before it carries the environment, every pass time and the failed
checks; the same record and the spans of the last traced pass are written
under `.perfbench-work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

PACKAGE = "modecover"
WORK_DIR = ".perfbench-work"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; defaults to the workload's pinned seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads(nproc: int) -> None:
    """Limit BLAS threads to the cores this process may use; must run before
    numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "load": "one closed-loop client in one process, no extra threads",
    }


def tree_digest(root: Path, skip=()) -> dict[str, str]:
    """sha256 of every regular file below `root`, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip and "__pycache__" not in path.parts:
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def run_pass(cli, calls, out_dir: Path) -> dict:
    """One pass: every call of the workload, back to back, then the checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    codes, ends = [], []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for i, call in enumerate(calls):
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's JSON summary
            codes.append(cli.main([*call.argv, "--out", str(out_dir / str(i))]))
        ends.append(time.perf_counter())
    run_s = ends[-1] - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    checks = []
    for i, (call, code) in enumerate(zip(calls, codes)):
        label = " ".join(call.argv[:2])
        checks.append((f"{label}:exit_code_0", code == 0))
        try:
            checks.extend(call.check(out_dir / str(i)))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.append((f"{label}:outputs_readable ({type(exc).__name__})", False))
    digest = tree_digest(out_dir, skip=("meta.json",))
    return {
        "run_s": run_s,
        "call_s": {" ".join(c.argv[:2]): b - a for c, a, b in zip(calls, [start, *ends], ends)},
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "checks": checks,
        "digest": digest,
        "output_bytes": sum((out_dir / rel).stat().st_size for rel in digest),
    }


def compare_with_stored(state_path: Path, key: str, digest: dict) -> bool:
    """Byte identity across runs: the first run of a key stores its digest,
    later runs must match it."""
    stored = json.loads(state_path.read_text()) if state_path.exists() else {}
    if key not in stored:
        stored[key] = digest
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        os.replace(tmp, state_path)
        return True
    return stored[key] == digest


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: {src / PACKAGE} not found; run from the repository root",
              file=sys.stderr)
        return 2
    cap_blas_threads(len(os.sched_getaffinity(0)))

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - t0
    package_file = Path(sys.modules[PACKAGE].__file__).resolve()
    if src.resolve() not in package_file.parents:
        print(f"perfbench: imported {package_file}, not the checkout's sources",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.pinned_seed if args.seed is None else args.seed

    work = root / WORK_DIR
    run_dir = work / f"{workload.name}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(cli, workload, seed, args, import_s, work, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(cli, workload, seed, args, import_s, work, run_dir) -> int:
    env = environment()
    src_digest = hashlib.sha256(
        json.dumps(tree_digest(Path.cwd() / "src"), sort_keys=True).encode()
    ).hexdigest()

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        calls = workload.prepare(seed, run_dir)
        prepare_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(prepare_s)

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_pass(cli, calls, run_dir / "out")
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        if traced:
            result["spans"] = tracer.take()
            result["layers"] = tracing.layer_metrics(result["spans"], result["run_s"])
        passes.append(result)
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(p["run_s"] for p in passes)
        if len(passes) >= (2 if tracer else 1) and elapsed + typical > args.seconds:
            break

    checks = [c for p in passes for c in p["checks"]]
    first = passes[0]["digest"]
    checks += [(f"byte_identity:pass{i}", p["digest"] == first)
               for i, p in enumerate(passes[1:], start=1)]
    key = f"{workload.name}/{seed}/{src_digest}"
    checks.append(("byte_identity:earlier_runs", compare_with_stored(work / "digests.json", key, first)))
    failed = [name for name, ok in checks if not ok]

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    run_s = statistics.median(p["run_s"] for p in untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer(traced_passes, run_s, env)
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "env": env,
        "src_sha256": src_digest,
        "import_s": import_s,
        "prepare_s": prepare_s,
        "pass_run_s": [p["run_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "pass_call_s": [p["call_s"] for p in passes],
        "run_s_samples": len(untraced),
        # the highest percentile with ten samples beyond it needs 11 or more
        "run_s_tail": None if len(untraced) < 11 else sorted(p["run_s"] for p in untraced)[-11],
        "fail_ratio": len(failed) / len(checks),
        "failed_checks": failed,
        "missing_trace_targets": tracer.missing if tracer else [],
    }
    (work / f"result-{workload.name}-{seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": metrics}, indent=1, sort_keys=True))
    if traced_passes:
        (work / f"spans-{workload.name}-{seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "info"],
             "spans": traced_passes[-1]["spans"]}))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB-computed"),
                         ("_share", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(traced_passes, untraced_run_s, env) -> dict:
    """Medians over the traced passes of each per-layer number, plus the
    process diagnostics and the tracing overhead."""
    metrics = {
        name: (statistics.median(p["layers"][name] for p in traced_passes), unit_of(name))
        for name in traced_passes[0]["layers"]
    }
    traced_run_s = statistics.median(p["run_s"] for p in traced_passes)
    metrics.update({
        "cli.output_bytes": (float(traced_passes[-1]["output_bytes"]), "bytes"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in traced_passes), "s"),
        "blas_threads": (float(env["blas"]["threads"] or 0), "count"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
