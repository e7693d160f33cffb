"""End-to-end arbitrage removal: detect, project, re-price, re-express.

The pipeline fixes the grid, builds the signed measure from the (possibly
stressed) prices, projects it onto the martingale set with either the exact
LP or the entropic scaling solver, and reads repaired prices back off the
projected marginals so the output is a bona fide model-consistent price set.

A surface the detector finds arbitrage-free has nothing to remove: it comes
back unchanged, at cost 0, on the detector's grid, with a martingale built
from the detector's marginals as its measure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import entropic, lp
from .constraints import (
    ConstraintSystem,
    build_calibrated_system,
    build_joint_system,
    build_martingale_system,
    detect_arbitrage,
    martingale_chain,
    ArbitrageReport,
)
from .errors import (
    DuplicateConstraintError,
    InvalidCalibrationError,
    ProblemTooLargeError,
)
from .grid import (
    CalibrationTarget,
    DEFAULT_KMAX_MARGIN,
    Theta,
    build_theta,
    choose_kmax,
    distance_matrix,
    extract_marginal,
)
from .market_data import NormalizedSurface
from .signed_measure import (
    DEFAULT_SHIFT,
    JointSignedMeasure,
    SignedMarginal,
    build_joint,
    marginal_weights,
)

MODES = ("lp_exact", "entropic")
# largest path space N = L^m a projection is built on; one dense N x N
# float64 matrix is 128 MiB at the cap, and the solvers hold several
MAX_PATHS = 4096


@dataclass(frozen=True)
class RepairConfig:
    mode: str = "lp_exact"
    epsilon: float = 1.0
    e_tol: float = entropic.DEFAULT_E_TOL
    max_iters: int = entropic.DEFAULT_MAX_ITERS
    kmax_margin: float = DEFAULT_KMAX_MARGIN
    shift: float = DEFAULT_SHIFT
    calibration_marks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # a run must stop and its report must be valid JSON
        for name in ("epsilon", "e_tol", "kmax_margin", "shift"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.mode == "entropic" and not self.epsilon > 0:
            raise ValueError("entropic mode needs epsilon > 0")
        if not self.e_tol > 0:
            raise ValueError(f"e_tol must be > 0, got {self.e_tol}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if not self.shift > 0:
            raise ValueError("shift must be > 0")
        if not self.kmax_margin > 0:
            raise ValueError("kmax_margin must be > 0")


@dataclass
class ProjectionProblem:
    """Everything the solvers need, assembled once from a surface."""

    surface: NormalizedSurface
    theta: Theta
    m: int
    marginals: list[SignedMarginal]
    nu: JointSignedMeasure
    base_system: ConstraintSystem
    system: ConstraintSystem
    calibration: list[CalibrationTarget]
    k_max: float

    @cached_property
    def dist(self) -> np.ndarray:
        """Path-to-path distances, N x N, built on first use: a clean
        repair never solves a projection and never needs them."""
        return distance_matrix(self.theta, self.m)


@dataclass
class RepairResult:
    mu: np.ndarray
    theta: Theta
    repaired_surface: NormalizedSurface
    transport_cost: float
    report_before: ArbitrageReport
    report_after: ArbitrageReport
    diagnostics: dict = field(default_factory=dict)
    problem: "ProjectionProblem | None" = None


def calibration_targets(
    surface: NormalizedSurface, marks: tuple[tuple[int, int], ...]
) -> list[CalibrationTarget]:
    if len(set(marks)) < len(marks):
        raise DuplicateConstraintError(f"calibration marks {list(marks)} repeat a node")
    targets = []
    for i, j in marks:
        if not (0 <= i < surface.n_maturities and 0 <= j < len(surface.strikes[i])):
            raise InvalidCalibrationError(f"calibration mark ({i}, {j}) names no quote")
        k, c = surface.node(i, j)
        targets.append((i, k, c))
    return targets


def _marked_subsurface(
    surface: NormalizedSurface, targets: list[CalibrationTarget]
) -> NormalizedSurface:
    by_mat: dict[int, list[tuple[float, float]]] = {}
    for i, k, c in targets:
        by_mat.setdefault(i, []).append((k, c))
    mats, strikes, prices, fwds, dscs = [], [], [], [], []
    for i in sorted(by_mat):
        nodes = sorted(by_mat[i])
        mats.append(surface.maturities[i])
        strikes.append(np.array([k for k, _ in nodes]))
        prices.append(np.array([c for _, c in nodes]))
        fwds.append(surface.forwards[i])
        dscs.append(surface.discounts[i])
    return NormalizedSurface(
        tuple(mats), tuple(strikes), tuple(prices), tuple(fwds), tuple(dscs)
    )


def prepare_projection(
    surface: NormalizedSurface, config: RepairConfig, theta: Theta | None = None
) -> ProjectionProblem:
    """Fix the grid, build marginals, the joint measure, and the system.

    The grid is ``theta`` when given, else its k_max comes from the marks
    and ``config.kmax_margin`` (:func:`~volrepair.grid.choose_kmax`).
    """
    targets = calibration_targets(surface, config.calibration_marks)
    if targets:
        sub = _marked_subsurface(surface, targets)
        sub_report = detect_arbitrage(sub, kmax_margin=config.kmax_margin)
        if not sub_report.feasible:
            raise InvalidCalibrationError(
                "calibration sub-grid is arbitrageable: "
                + "; ".join(v.kind for v in sub_report.violations)
            )
    if theta is None:
        theta = build_theta(
            surface, choose_kmax(surface, targets or None, margin=config.kmax_margin)
        )
    m = surface.n_maturities
    if theta.l**m > MAX_PATHS:
        raise ProblemTooLargeError(
            f"path space has {theta.l}^{m} = {theta.l**m} paths (cap {MAX_PATHS})"
        )
    marginals = []
    for i in range(m):
        ks = np.concatenate([[0.0], surface.strikes[i], [theta.k_max]])
        cs = np.concatenate([[1.0], surface.prices[i], [0.0]])
        marginals.append(marginal_weights(ks, cs, theta))
    base = build_martingale_system(theta, m)
    joint_sys = build_joint_system(base, marginals)
    nu = build_joint(marginals, joint_sys, shift=config.shift)
    system = build_calibrated_system(base, targets, theta) if targets else base
    return ProjectionProblem(
        surface=surface,
        theta=theta,
        m=m,
        marginals=marginals,
        nu=nu,
        base_system=base,
        system=system,
        calibration=targets,
        k_max=theta.k_max,
    )


def price_from_marginal(weights: np.ndarray, strikes: np.ndarray, k: float) -> float:
    """Call price sum (x - k)+ under a discrete marginal on the grid."""
    return float(np.maximum(np.asarray(strikes) - k, 0.0) @ np.asarray(weights))


def _repriced_surface(
    surface: NormalizedSurface, theta: Theta, mu: np.ndarray, m: int
) -> NormalizedSurface:
    prices = []
    for i in range(m):
        marg = extract_marginal(mu, theta.l, m, i + 1)
        cs = np.array(
            [price_from_marginal(marg, theta.strikes, float(k)) for k in surface.strikes[i]]
        )
        prices.append(np.maximum(cs, 0.0))  # solver noise can leave -1e-13
    return replace(surface, prices=tuple(prices))


def repair(surface: NormalizedSurface, config: RepairConfig) -> RepairResult:
    """Project the surface's signed measure onto the martingale set.

    A surface the detector finds feasible is returned as it is, with cost 0,
    ``report_after`` equal to ``report_before`` and the problem on the
    detector's grid; its ``mu`` is :func:`martingale_chain` of the detector's
    marginals, which reprices every quote.
    """
    report_before = detect_arbitrage(surface, kmax_margin=config.kmax_margin)
    clean = report_before.feasible
    theta, marginals = report_before.certificate if clean else (None, None)
    problem = prepare_projection(surface, config, theta)
    diagnostics: dict = {
        "mode": config.mode,
        "clean_input": clean,
        "k_max": problem.k_max,
        "shift": config.shift,
        "alpha": problem.nu.alpha,
        "n_paths": problem.system.n_paths,
        "n_rows": problem.system.n_rows,
    }
    if clean:
        mu, cost = martingale_chain(theta, marginals), 0.0
        repaired, report_after = surface, report_before
    else:
        mu, cost = _project(problem, config, diagnostics)
        repaired = _repriced_surface(surface, problem.theta, mu, problem.m)
        report_after = detect_arbitrage(repaired, kmax_margin=config.kmax_margin)
    if problem.calibration:
        marg_cache = {
            i: extract_marginal(mu, problem.theta.l, problem.m, i + 1)
            for i in sorted({t[0] for t in problem.calibration})
        }
        diagnostics["marked_price_errors"] = [
            {
                "maturity_index": i,
                "k": k,
                "target": c,
                "error": abs(
                    price_from_marginal(marg_cache[i], problem.theta.strikes, k) - c
                ),
            }
            for i, k, c in problem.calibration
        ]
    diagnostics["price_changes_currency"] = _price_changes(surface, repaired)
    return RepairResult(
        mu=mu,
        theta=problem.theta,
        repaired_surface=repaired,
        transport_cost=cost,
        report_before=report_before,
        report_after=report_after,
        diagnostics=diagnostics,
        problem=problem,
    )


def _project(
    problem: ProjectionProblem, config: RepairConfig, diagnostics: dict
) -> tuple[np.ndarray, float]:
    """Solve the projection in the configured mode; returns (mu, cost) and
    records the solver's figures in ``diagnostics``."""
    if config.mode == "lp_exact":
        _, mu, cost = lp.solve_p_prime(
            problem.dist,
            problem.nu.nu_plus,
            problem.nu.nu_minus,
            problem.system.A,
            problem.system.b,
        )
        diagnostics["w1_value"] = cost
        return mu, cost
    kernel = entropic.gibbs_kernel(problem.dist, config.epsilon)
    coupling, _, run_report = entropic.sinkhorn_run(
        kernel,
        problem.system,
        problem.nu,
        e_tol=config.e_tol,
        max_iters=config.max_iters,
    )
    diagnostics.update(
        {
            "row_blocks": run_report.row_blocks,
            "epsilon": config.epsilon,
            "e_tol": config.e_tol,
            "converged": run_report.converged,
            "iterations": run_report.iterations,
            "final_criterion": run_report.final_criterion,
            "kl_value": run_report.primal_kl,
            "duality_gap": run_report.duality_gap,
            "history": run_report.history,
            "kernel_floored_entries": kernel.floored_entries,
        }
    )
    mu = coupling.sum(axis=1) - problem.nu.nu_minus
    return mu, float((coupling * problem.dist).sum())


def _price_changes(before: NormalizedSurface, after: NormalizedSurface) -> list[dict]:
    rows = []
    for i, t in enumerate(before.maturities):
        scale = before.forwards[i] * before.discounts[i]
        for j, k in enumerate(before.strikes[i]):
            delta = float(after.prices[i][j] - before.prices[i][j]) * scale
            rows.append(
                {
                    "maturity_years": t,
                    "strike": float(k) * before.forwards[i],
                    "price_change": delta,
                }
            )
    return rows

