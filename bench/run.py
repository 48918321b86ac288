"""Offline benchmark of the spa-witness command line.

Run from the repository root (see bench/README.md):

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload all --untimed

One workload per invocation: generate its inputs from the seed, start fresh
worker processes (bench/worker.py) that import ``spa_witness.cli`` from
``src/`` and run ops through ``cli.main(argv)``, check every output, and
print the metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A result file
with the machine and set-up goes to bench/out/.  ``--workload all`` runs
every workload untraced and traced and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from tracer import per_layer_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# End-to-end metrics gated in BENCHMARK.json, and the ones only reported.
END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED_ONLY = {"op_p50_ms": "ms", "op_p90_ms": "ms", "failed_op_ratio": "ratio"}
ITEM_NAMES = {"scan": "points", "analyze": "witnesses", "cmax": "densities", "geometry": "rows"}
# Timed worker processes per run; each is preceded by a set-up-only process.
TIMED_CHUNKS = 4
# op_p90_ms is reported only when at least ten ops lie beyond it.
P90_MIN_OPS = 100
RUN_LIMIT_S = 170.0
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKERS_ENV = "SPA_WITNESS_THREADS"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info(seed: int) -> dict:
    """The machine and set-up every result file records."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "spa_witness_threads_env": os.environ.get(WORKERS_ENV),
        **_git_state(),
        "seed": seed,
    }


def _run_worker(manifest_path: Path, mode: str, seconds: float, deadline: float,
                spans: Path | None = None) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
            "--manifest", str(manifest_path), "--mode", mode, "--seconds", repr(seconds)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    # The scan stays serial (the default users get): the worker-count
    # variable is removed, and BLAS thread variables pass through as found.
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} worker")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _timing_metrics(op_seconds: list[float], ops: list[dict]) -> dict:
    """Throughput and op-time percentiles of whole passes of `ops`.

    items_per_s divides a pass's items by the sum, over the pass's ops, of
    each op's 90th-percentile time: the rate that nine passes in ten reach.
    """
    per_position = [op_seconds[i::len(ops)] for i in range(len(ops))]
    pass_p90 = sum(_p90(times) for times in per_position)
    ms = [t * 1e3 for t in op_seconds]
    n = len(ms)
    out = {
        "items_per_s": (sum(op["items"] for op in ops) / pass_p90, n),
        "op_p50_ms": (statistics.median(ms), n),
    }
    if n >= P90_MIN_OPS:
        out["op_p90_ms"] = (_p90(ms), n)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, untimed: bool = False) -> dict:
    """Run one workload; returns the result document (also written to bench/out/)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    in_dir = OUT_DIR / "inputs" / f"{workload}-{seed}"
    manifest = inputs.build(workload, seed, in_dir.relative_to(ROOT))
    manifest_path = in_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    ops = manifest["ops"]

    workers = []
    metrics: dict[str, tuple[float, int]] = {}
    extra: dict = {}
    if untimed:
        workers.append(_run_worker(manifest_path, "timed", 0.0, deadline))
    elif trace:
        spans = OUT_DIR / f"spans-{workload}.npz"
        traced = _run_worker(manifest_path, "traced", seconds, deadline, spans)
        workers.append(traced)
        traced_rate = _timing_metrics(traced["op_seconds"], ops)["items_per_s"][0]
        untraced_rate = _timing_metrics(traced["untraced"]["op_seconds"], ops)["items_per_s"][0]
        n_traced = len(traced["op_seconds"])
        metrics.update({name: (value, n_traced) for name, value in traced["per_layer"].items()})
        metrics["trace.items_per_s_ratio"] = (traced_rate / untraced_rate, n_traced)
        extra = {
            "kernel_counts": traced["kernel_counts"],
            "items_per_s_untraced": untraced_rate,
            "items_per_s_traced": traced_rate,
            "spans_file": str(spans.relative_to(ROOT)),
        }
    else:
        # The host's speed can change for seconds at a time, so set-up
        # samples and timed chunks alternate over the whole run.
        _run_worker(manifest_path, "setup", 0.0, deadline)  # warm-up, discarded
        chunks = []
        for _ in range(TIMED_CHUNKS):
            workers.append(_run_worker(manifest_path, "setup", 0.0, deadline))
            chunks.append(_run_worker(manifest_path, "timed", seconds / TIMED_CHUNKS, deadline))
        workers += chunks
        op_seconds = [t for chunk in chunks for t in chunk["op_seconds"]]
        metrics.update(_timing_metrics(op_seconds, ops))
        setup_samples = [w["setup_s"] for w in workers]
        metrics["setup_s"] = (statistics.median(setup_samples), len(setup_samples))
        rss = [chunk["peak_rss_mb"] for chunk in chunks]
        metrics["peak_rss_mb"] = (statistics.median(rss), len(rss))
        extra = {"setup_s_samples": setup_samples, "op_seconds": op_seconds}

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if not untimed and not trace:
        metrics["failed_op_ratio"] = (failed / attempted, attempted)
    first_failure = next((w["first_failure"] for w in workers if w["first_failure"]), None)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "untimed": untimed,
        "machine": machine_info(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
        "metrics": {
            name: {"value": value, "unit": _unit(name), "n": n} for name, (value, n) in metrics.items()
        },
        **extra,
    }
    out_file = OUT_DIR / f"result-{workload}-trace{int(trace)}-seed{seed}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _unit(name: str) -> str:
    return {**END_TO_END, **REPORTED_ONLY, **per_layer_units()}[name]


def _print_result(result: dict) -> None:
    workload = result["workload"]
    print(
        f"== {workload} seed={result['seed']} trace={result['trace']}: "
        f"{result['failed']} failed of {result['attempted']} ops attempted"
    )
    if result["first_failure"]:
        print(f"   first failure: {result['first_failure']}")
    for name, m in result["metrics"].items():
        unit = f"{ITEM_NAMES[workload]}/s" if name.startswith("items_per_s") else m["unit"]
        print(f"   {name:<40} {m['value']:>14.6g} {unit:<12} n={m['n']}")
    for label, counts in result.get("kernel_counts", {}).items():
        print(f"   kernel calls per op [{label}]: eigh={counts['eigh']} eigvalsh={counts['eigvalsh']}")


def _result_line(result: dict, names) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
                for name in names if name in result["metrics"]
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Offline benchmark of the spa-witness CLI.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untimed", action="store_true", help="one checked pass per workload, no timing")
    parser.add_argument("--out", type=Path, default=None, help="with --workload all: the combined result file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spa_witness" / "cli.py").is_file():
        print(f"error: no spa_witness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.untimed)
            _print_result(result)
            names = per_layer_units() if args.trace else END_TO_END
            print(_result_line(result, names))
            return 0
        results = []
        for workload in inputs.WORKLOADS:
            runs = [False] if args.untimed else [False, True]
            for trace in runs:
                result = run_workload(workload, args.seed, args.seconds, trace, args.untimed)
                _print_result(result)
                # Raw op times stay in the per-run result files.
                results.append({k: v for k, v in result.items() if k != "op_seconds"})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    combined = {"machine": machine_info(args.seed), "runs": results}
    out = args.out or OUT_DIR / "BENCH.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    ok = all(r["correct"] for r in results)
    print(f"all workloads: {'correct' if ok else 'FAILURES'}; results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
