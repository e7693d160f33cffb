"""Spans around the library's public functions, recorded from outside it.

A :class:`Tracer` replaces a function at each module attribute where the
pipeline looks it up (``volrepair.repair.detect_arbitrage``,
``volrepair.entropic.root_find`` ...) with a ``functools.wraps`` wrapper
and puts the originals back on exit. Each call opens a span with the id of
the span that was open when it started, so self time is a span's duration
minus the time its children cover. Functions called many thousands of times
per operation (the Sinkhorn root-finds, implied-vol inversions) are
aggregated into a count and a total per parent span instead.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


def _shape(args, kwargs, result) -> dict:
    a = args[0]
    return {"rows": int(a.shape[0]), "vars": int(a.shape[1])}


def _dist(args, kwargs, result) -> dict:
    return {"N": int(result.shape[0])}


def _kernel(args, kwargs, result) -> dict:
    return {"floored": int(result.floored_entries)}


def _sinkhorn(args, kwargs, result) -> dict:
    coupling, _, report = result
    return {"sweeps": int(report.iterations), "N": int(coupling.shape[0])}


def _solve_lp(args, kwargs, result) -> dict:
    return {"pivots": int(result.iterations), "vars": int(args[0].n_vars)}


def _repair(args, kwargs, result) -> dict:
    return {"N": int(result.diagnostics["n_paths"]), "rows": int(result.diagnostics["n_rows"])}


def _detect(args, kwargs, result) -> dict:
    return {"lp_checked": bool(result.lp_checked), "feasible": bool(result.feasible)}


@dataclass(frozen=True)
class Point:
    """One function to trace, under one span name, at every lookup site."""

    name: str
    sites: tuple[str, ...]  # "module:attribute"
    aggregate: bool = False
    attrs: Callable[[Any, Any, Any], dict] | None = None


# Span names are "<module>.<function>" of the function's home module.
POINTS = (
    Point("cli.main", ("volrepair.cli:main",)),
    Point("cli._load_surface", ("volrepair.cli:_load_surface",)),
    Point("market_data.apply_stress", ("volrepair.cli:apply_stress",)),
    Point(
        "market_data.surface_vols",
        ("volrepair.cli:surface_vols", "volrepair.market_data:surface_vols"),
    ),
    Point("market_data.implied_vol", ("volrepair.market_data:implied_vol",), aggregate=True),
    Point("repair.repair", ("volrepair.repair:repair", "volrepair.cli:repair"), attrs=_repair),
    Point("repair.prepare_projection", ("volrepair.repair:prepare_projection",)),
    Point("repair._repriced_surface", ("volrepair.repair:_repriced_surface",)),
    Point(
        "constraints.detect_arbitrage",
        (
            "volrepair.constraints:detect_arbitrage",
            "volrepair.repair:detect_arbitrage",
            "volrepair.cli:detect_arbitrage",
        ),
        attrs=_detect,
    ),
    Point(
        "constraints.build_martingale_system",
        (
            "volrepair.constraints:build_martingale_system",
            "volrepair.repair:build_martingale_system",
        ),
    ),
    Point(
        "constraints.build_calibrated_system",
        (
            "volrepair.constraints:build_calibrated_system",
            "volrepair.repair:build_calibrated_system",
        ),
    ),
    Point("constraints.build_joint_system", ("volrepair.repair:build_joint_system",)),
    Point("signed_measure.marginal_weights", ("volrepair.repair:marginal_weights",)),
    Point("signed_measure.build_joint", ("volrepair.repair:build_joint",)),
    Point("grid.distance_matrix", ("volrepair.repair:distance_matrix",), attrs=_dist),
    Point("lp.check_feasibility", ("volrepair.lp:check_feasibility",), attrs=_shape),
    Point("lp.solve_eq_lsq", ("volrepair.lp:solve_eq_lsq",), attrs=_shape),
    Point("lp.solve_p_prime", ("volrepair.lp:solve_p_prime",)),
    Point("lp.solve_lp", ("volrepair.lp:solve_lp",), attrs=_solve_lp),
    Point("entropic.gibbs_kernel", ("volrepair.entropic:gibbs_kernel",), attrs=_kernel),
    Point("entropic.sinkhorn_run", ("volrepair.entropic:sinkhorn_run",), attrs=_sinkhorn),
    Point("entropic.root_find", ("volrepair.entropic:root_find",), aggregate=True),
    Point("entropic.duality_gap", ("volrepair.entropic:duality_gap",)),
    Point("entropic.kl_divergence", ("volrepair.entropic:kl_divergence",)),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    # aggregated callees: name -> [calls, seconds]
    calls: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self, points=POINTS):
        self.points = points
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, point: Point):
        if point.aggregate:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    entry = self._stack[-1].calls.setdefault(point.name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - t0

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(point.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if point.attrs is not None:
                span.attrs.update(point.attrs(args, kwargs, result))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for point in self.points:
            for site in point.sites:
                mod_name, attr = site.split(":")
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, point))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Duration minus child coverage, for every span.

        Calls are sequential in one thread, so children never overlap and
        their coverage is the sum of their durations plus aggregated time.
        """
        out = {s.id: s.duration - sum(sec for _, sec in s.calls.values()) for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path: Path) -> None:
        rows = [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "attrs": s.attrs,
                "aggregated": {k: {"calls": c, "seconds": t} for k, (c, t) in s.calls.items()},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")


OBJECTIVES = ("entropic.duality_gap", "entropic.kl_divergence")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics as means per traced operation.

    Names ending in ``_s`` are seconds; sizes marked computed in the README
    are derived from array shapes, not measured.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = tracer.self_times()

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, of=lambda s: s.duration):
        return sum(of(s) for s in named(name))

    def aggregated(name, slot):
        return sum(s.calls.get(name, (0, 0.0))[slot] for s in spans)

    def under(span, name) -> bool:
        p = span.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    detects = named("constraints.detect_arbitrage")
    feas = named("lp.check_feasibility")
    couplings = [s for s in named("lp.solve_lp") if under(s, "lp.solve_p_prime")]
    sinkhorns = named("entropic.sinkhorn_run")
    objective = sum(
        s.duration
        for s in spans
        if s.name in OBJECTIVES
        and (s.parent is None or by_id[s.parent].name not in OBJECTIVES)
    )
    raw = {
        "entropic.root_find_calls": aggregated("entropic.root_find", 0),
        "entropic.root_find_s": aggregated("entropic.root_find", 1),
        "entropic.sweeps": total("entropic.sinkhorn_run", lambda s: s.attrs.get("sweeps", 0)),
        "entropic.sinkhorn_s": total("entropic.sinkhorn_run"),
        "entropic.sweep_self_s": sum(own[s.id] for s in sinkhorns),
        "entropic.objective_s": objective,
        "entropic.kernel_s": total("entropic.gibbs_kernel"),
        "entropic.kernel_floored": total("entropic.gibbs_kernel", lambda s: s.attrs.get("floored", 0)),
        "entropic.matvec_bytes": sum(
            s.attrs.get("sweeps", 0) * 2 * s.attrs.get("N", 0) ** 2 * 8 for s in sinkhorns
        ),
        "grid.distance_s": total("grid.distance_matrix"),
        "grid.dense_bytes": total("grid.distance_matrix", lambda s: s.attrs.get("N", 0) ** 2 * 8),
        "constraints.detect_s": total("constraints.detect_arbitrage"),
        "constraints.detect_calls": len(detects),
        "constraints.node_checks_s": sum(own[s.id] for s in detects),
        "lp.feasibility_s": total("lp.check_feasibility"),
        "lp.coupling_s": total("lp.solve_p_prime"),
        "lp.coupling_pivots": sum(s.attrs.get("pivots", 0) for s in couplings),
        "repair.prepare_s": total("repair.prepare_projection"),
        "constraints.joint_system_s": total("constraints.build_joint_system"),
        "lp.kkt_s": total("lp.solve_eq_lsq"),
        "lp.kkt_bytes": total(
            "lp.solve_eq_lsq", lambda s: (s.attrs.get("vars", 0) + s.attrs.get("rows", 0)) ** 2 * 8
        ),
        "signed_measure.build_joint_s": total("signed_measure.build_joint"),
        "signed_measure.marginals_s": total("signed_measure.marginal_weights"),
        "repair.reprice_s": total("repair._repriced_surface"),
        "repair.self_s": sum(own[s.id] for s in named("repair.repair")),
        "market_data.load_s": total("cli._load_surface"),
        "market_data.stress_s": total("market_data.apply_stress"),
        "market_data.vols_s": total("market_data.surface_vols"),
        "market_data.implied_vol_calls": aggregated("market_data.implied_vol", 0),
        "cli.self_s": sum(own[s.id] for s in named("cli.main")),
    }
    out = {k: v / n_ops for k, v in raw.items()}
    # ratios and per-call sizes are not divided by the operation count
    out["constraints.lp_checked_frac"] = (
        sum(s.attrs.get("lp_checked", False) for s in detects) / len(detects) if detects else 0.0
    )
    out["lp.feasibility_vars"] = _mean(s.attrs.get("vars", 0) for s in feas)
    out["lp.feasibility_rows"] = _mean(s.attrs.get("rows", 0) for s in feas)
    out["lp.coupling_vars"] = _mean(s.attrs.get("vars", 0) for s in couplings)
    out["repair.paths"] = _mean(s.attrs.get("N", 0) for s in named("repair.repair"))
    out["repair.rows"] = _mean(s.attrs.get("rows", 0) for s in named("repair.repair"))
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
