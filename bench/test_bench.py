"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
VR = worker.load_library()
FAR_FACTOR = 10.0  # top grid point of the cross-check LP, far beyond every strike


def pathspace_residual(spec: workloads.SurfaceSpec) -> float:
    """Smallest L1 residual of {mu >= 0 martingale on the quoted strikes plus
    0 and a far point, repricing all quotes}, from scipy's HiGHS."""
    from scipy.optimize import linprog

    prices = spec.prices()
    all_k = sorted({k for ks in spec.strikes for k in ks})
    top = FAR_FACTOR * max(1.0, all_k[-1])
    theta = np.array([0.0] + all_k + [top])
    l, m = theta.size, spec.m
    paths = np.array(list(itertools.product(range(l), repeat=m)))
    x = theta[paths]
    rows, rhs = [np.ones(len(paths)), x[:, 0]], [1.0, 1.0]
    for level in range(1, m):
        for prefix in itertools.product(range(l), repeat=level):
            sel = np.all(paths[:, :level] == prefix, axis=1)
            rows.append(np.where(sel, x[:, level] - x[:, level - 1], 0.0))
            rhs.append(0.0)
    for i, (ks, cs) in enumerate(zip(spec.strikes, prices)):
        for k, c in zip(ks, cs):
            rows.append(np.maximum(x[:, i] - k, 0.0))
            rhs.append(c)
    a = np.array(rows)
    n_rows, n = a.shape
    a_eq = np.hstack([a, np.eye(n_rows), -np.eye(n_rows)])
    cost = np.concatenate([np.zeros(n), np.ones(2 * n_rows)])
    res = linprog(cost, A_eq=a_eq, b_eq=np.array(rhs), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"labelling LP failed: {res.message}")
    return float(res.fun)




@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(VR, 7, tmp_path / "a")
    again = make(VR, 7, tmp_path / "b")
    other = make(VR, 8, tmp_path / "c")
    assert first.inputs == again.inputs
    assert first.inputs != other.inputs
    assert [op.name for op in first.ops] == [op.name for op in other.ops]


def test_lp_only_labels_agree_with_an_independent_lp():
    pytest.importorskip("scipy")
    for seed in range(3):
        for spec in workloads.find_lp_only(np.random.default_rng([seed, 2]), (2, 3, 3)):
            assert workloads.passes_node_checks(spec)
            assert pathspace_residual(spec) > workloads.INFEASIBLE_GAP
    clean = workloads.SurfaceSpec((workloads._grid(4),) * 2, workloads._smile(np.random.default_rng(0)))
    assert pathspace_residual(clean) < 1e-9


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    wl = workloads.WORKLOADS[name](VR, 3, tmp_path)
    op = wl.warmup
    op.prepare()
    plain = op.judge(workloads.run_guarded(op))
    originals = {
        site: getattr(importlib.import_module(site.split(":")[0]), site.split(":")[1])
        for point in tracing.POINTS
        for site in point.sites
    }
    op.prepare()
    with tracing.Tracer() as tracer:
        root = tracer.open("bench.op")
        traced = op.judge(workloads.run_guarded(op))
        tracer.close(root)
    assert traced.digest == plain.digest
    assert len(tracer.spans) > 1
    assert all(s.parent is not None for s in tracer.spans[1:])
    for site, fn in originals.items():
        mod, attr = site.split(":")
        assert getattr(importlib.import_module(mod), attr) is fn


def test_self_time_subtracts_children_and_aggregated_calls():
    tracer = tracing.Tracer(points=())
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    outer.start, outer.end = 0.0, 10.0
    inner.start, inner.end = 1.0, 4.0
    outer.calls["many"] = [1000, 2.5]
    own = tracer.self_times()
    assert own[outer.id] == pytest.approx(4.5)
    assert own[inner.id] == pytest.approx(3.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert worker.tail(list(range(1, 6))) == 5
    assert worker.tail(list(range(1, 101))) == 90


def test_a_run_is_a_fixed_number_of_whole_batches():
    wl = workloads.Workload("w", [], None, deadline_s=1.0, batch_s=3.0)
    assert wl.batches(30) == 10
    assert wl.batches(30, traced=True) == 5
    assert wl.batches(1) == 1


def test_smoke_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] == 1
        assert set(res["metrics"]) == {
            "latency_p50_s", "latency_tail_s", "throughput_ops_s", "setup_s", "peak_rss_mb",
        }


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
