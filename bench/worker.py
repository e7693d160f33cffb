"""One workload in one process: set up, warm up, run, judge every operation.

Started by ``run.py``; prints one JSON object as its last stdout line. With
``--mode setup`` it stops once the first operation could be timed, so the
launcher can take set-up time from several processes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_library():
    """Import volrepair from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    names = ("", ".repair", ".constraints", ".cli")
    mods = {n: importlib.import_module("volrepair" + n) for n in names}
    where = Path(mods[""].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"volrepair imported from {where}, not from {ROOT / 'src'}")
    return types.SimpleNamespace(
        NormalizedSurface=mods[""].NormalizedSurface,
        RepairConfig=mods[""].RepairConfig,
        repair_module=mods[".repair"],
        constraints=mods[".constraints"],
        cli=mods[".cli"],
    )


def tail(latencies: list[float]) -> float:
    """Latency at the highest percentile with at least 10 samples beyond it;
    the maximum when there are 10 samples or fewer."""
    ordered = sorted(latencies)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


class Judge:
    """Per-op verdicts, plus the byte-determinism check across repeats."""

    def __init__(self):
        self.failed = 0
        self.silent = 0
        self.reasons: list[str] = []
        self.violation_after: float | None = None
        self.bytes_written: list[int] = []
        self.first_digest: dict[str, str] = {}

    def record(self, op, outcome) -> None:
        seen = self.first_digest.setdefault(op.name, outcome.digest)
        if outcome.digest and seen != outcome.digest:
            outcome.failed, outcome.silent = True, True
            outcome.reason = "output bytes differ from an earlier identical op"
        if outcome.failed:
            self.failed += 1
            self.reasons.append(f"{op.name}: {outcome.reason}")
        self.silent += outcome.silent
        if outcome.violation_after is not None:
            self.violation_after = max(self.violation_after or 0.0, outcome.violation_after)
        self.bytes_written.append(outcome.bytes_written)


class DeadlineExceeded(Exception):
    """An op ran past its workload's deadline and was interrupted."""


def _interrupt(signum, frame):
    raise DeadlineExceeded("op exceeded its deadline")


def guarded(op, deadline_s: float):
    """Run the op under a SIGALRM deadline, so one runaway solve (say, a
    simplex that stalls until its iteration cap) fails that op instead of
    the whole run."""
    signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        return workloads.run_guarded(op)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed(op, deadline_s: float):
    op.prepare()
    t0 = time.perf_counter()
    result = guarded(op, deadline_s)
    return result, time.perf_counter() - t0


def run_plain(ops, batches: int, deadline_s: float, judge: Judge) -> dict:
    """``batches`` whole batches, untraced."""
    latencies = []
    per_op: dict[str, list[float]] = {}
    start = time.perf_counter()
    for _ in range(batches):
        for op in ops:
            result, dt = timed(op, deadline_s)
            latencies.append(dt)
            per_op.setdefault(op.name, []).append(dt)
            judge.record(op, op.judge(result))
    wall = time.perf_counter() - start
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies),
        "throughput_ops_s": len(latencies) / wall,
        "samples": len(latencies),
        "per_op_s": {name: statistics.median(v) for name, v in per_op.items()},
    }


def run_traced(ops, batches: int, deadline_s: float, judge: Judge, spans_path: Path) -> dict:
    """``batches`` whole batches. Each op runs untraced and then traced; the
    judge requires the two outputs to be byte-identical."""
    tracer = tracing.Tracer()
    plain_total = traced_total = 0.0
    n = 0
    for _ in range(batches):
        for op in ops:
            result, dt = timed(op, deadline_s)
            plain_total += dt
            judge.record(op, op.judge(result))
            op.prepare()
            with tracer:
                span = tracer.open("bench.op", op=op.name)
                t0 = time.perf_counter()
                result = guarded(op, deadline_s)
                dt = time.perf_counter() - t0
                tracer.close(span)
            traced_total += dt
            judge.record(op, op.judge(result))
            n += 1
    tracer.dump(spans_path)
    layers = tracing.layer_metrics(tracer, n)
    layers["trace_overhead_s"] = (traced_total - plain_total) / n
    layers["op_traced_s"] = traced_total / n
    layers["samples"] = n
    return layers


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "smoke"), default="run")
    parser.add_argument("--t0", type=float, default=None, help="launcher's monotonic clock at spawn")
    args = parser.parse_args(argv)
    t0 = t_start if args.t0 is None else args.t0

    vr = load_library()
    scratch = OUT_DIR / f"{args.workload}-{args.seed}"
    wl = workloads.WORKLOADS[args.workload](vr, args.seed, scratch)
    judge = Judge()
    try:
        warm_result, _ = timed(wl.warmup, wl.deadline_s)
        warm = wl.warmup.judge(warm_result)
        judge.record(wl.warmup, warm)
        out = {
            "setup_s": time.monotonic() - t0,
            "warm_digest": warm.digest,
            "warm_silent": judge.silent,
            "inputs": wl.inputs,
        }
        if args.mode != "setup":
            smoke = args.mode == "smoke"
            ops = [wl.warmup] if smoke else wl.ops
            batches = 1 if smoke else wl.batches(args.seconds, bool(args.trace))
            judge = Judge()  # the warm-up does not count as an attempted op
            if args.trace:
                spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
                out["layers"] = run_traced(ops, batches, wl.deadline_s, judge, spans)
                out["attempted"] = 2 * out["layers"]["samples"]
            else:
                out["e2e"] = run_plain(ops, batches, wl.deadline_s, judge)
                out["attempted"] = out["e2e"]["samples"]
            out["failed"] = judge.failed
            out["silent"] = judge.silent
            out["reasons"] = judge.reasons
            out["max_violation_after"] = judge.violation_after
            out["bytes_written"] = float(np.mean(judge.bytes_written))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.cleanup()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
