"""Benchmark launcher: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload repair_entropic --seed 1 --seconds 10 --trace 0

Run from anywhere; the checkout is the directory above this file. A run
does a fixed number of whole batches, ``--seconds`` divided by the
workload's nominal batch time, so it lasts about ``--seconds`` on a 2-core
x86 host and does the same work on any host. The workload runs in fresh
processes of its own (``worker.py``) with BLAS pinned to BLAS_THREADS
threads, so peak RSS and set-up time belong to that workload alone. Set-up is timed in SETUP_PROCESSES processes and reported as their
median; the last of them goes on to measure. With ``--trace 0`` the result
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Without ``--workload`` every workload runs in turn, each printing its own
result line. ``--smoke`` runs every workload's warm-up operation once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("repair_entropic", "check_pathspace", "cli_desk")
SETUP_PROCESSES = 5
BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady on a shared host
CHILD_TIMEOUT_S = 170.0

# units of the metrics whose name does not end in _s (seconds)
UNITS = {
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
    "entropic.matvec_bytes": "bytes_computed",
    "grid.dense_bytes": "bytes_computed",
    "lp.kkt_bytes": "bytes_computed",
    "lp.feasibility_vars": "count_computed",
    "lp.feasibility_rows": "count_computed",
    "lp.coupling_vars": "count_computed",
    "repair.paths": "count_computed",
    "repair.rows": "count_computed",
    "constraints.lp_checked_frac": "ratio",
    "fail_frac": "ratio",
    "cli.bytes_written": "bytes",
    "max_violation_after": "price",
}


def unit(name: str) -> str:
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def blas_threads() -> int:
    return min(BLAS_THREADS, os.cpu_count() or 1)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    # compile from source every time, so set-up does not depend on a cache
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, mode: str) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode} ({args.workload}, {mode})")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def result_line(runs: list[dict], trace: bool) -> dict:
    final = runs[-1]
    digests = {r["warm_digest"] for r in runs}
    inputs = {r["inputs"] for r in runs}
    agree = len(digests) == 1 and len(inputs) == 1
    silent = final["silent"] + sum(r["warm_silent"] for r in runs) + (not agree)
    attempted, failed = final["attempted"], final["failed"]
    extra = {
        "fail_frac": failed / attempted,
        "max_violation_after": final["max_violation_after"],
    }
    if trace:
        metrics = {k: v for k, v in final["layers"].items() if k != "samples"}
        metrics["cli.bytes_written"] = final["bytes_written"]
        metrics.update({k: v or 0.0 for k, v in extra.items()})
        samples = final["layers"]["samples"]
    else:
        metrics = {k: v for k, v in final["e2e"].items() if k not in ("samples", "per_op_s")}
        for name, value in final["e2e"]["per_op_s"].items():
            print(f"  op {name:40s} {value:.4f} s (median)")
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        metrics["peak_rss_mb"] = final["peak_rss_mb"]
        samples = final["e2e"]["samples"]
    base = metrics.get("op_traced_s")
    for name, value in sorted({**metrics, **extra}.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        share = f"{value / base:7.1%} of op time" if base and unit(name) == "s" else ""
        print(f"{name:32s} {shown:>14s} {unit(name):15s} {share}")
    print(f"samples {samples}, attempted {attempted}, failed {failed}, silent {silent}, "
          f"BLAS threads {blas_threads()}, "
          f"inputs and warm-up output agree across {len(runs)} processes: {agree}")
    for reason in final["reasons"]:
        print(f"  failure: {reason}", file=sys.stderr)
    return {
        "correct": silent == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "volrepair" / "__init__.py").is_file():
        print(f"no volrepair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        args.workload = name
        if len(names) > 1:
            print(f"== {name}")
        if args.smoke:
            runs = [spawn(args, "smoke")]
        else:
            runs = [spawn(args, "setup") for _ in range(SETUP_PROCESSES - 1)]
            runs.append(spawn(args, "run"))
        print(json.dumps(result_line(runs, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
