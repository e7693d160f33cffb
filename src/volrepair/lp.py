"""Exact small-scale solvers: dense simplex, coupling LP, constrained least squares.

The simplex here serves the coupling LP of ``lp_exact`` repairs and the test
oracles; the detector and the clean-input chain run none. It is
deterministic (Bland's rule), dense, and capped in size. Larger instances
must go through the entropic solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    KmaxTooSmallError,
    ProblemTooLargeError,
    SingularSystemError,
    SolverError,
)

DEFAULT_VAR_CAP = 5000
_RC_TOL = 1e-9  # reduced-cost / dual feasibility tolerance
_PIV_TOL = 1e-11  # smallest pivot magnitude accepted
_FEAS_TOL = 1e-9  # phase-1 objective below this counts as feasible


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  s.t.  eq_matrix x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        b = np.asarray(self.eq_rhs, dtype=float)
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent LP dimensions: A{a.shape}, b({b.size}), c({c.size})"
            )
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    reduced_costs: np.ndarray | None = None
    infeasibility: float = 0.0


def _bland_simplex(c, a, b, basis, iter_cap=200_000):
    """Run simplex on standard form from a given feasible basis (in place).

    Returns (status, basis, x_basic, y, iterations); Bland's rule for both
    the entering and leaving choices prevents cycling.
    """
    m, n = a.shape
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    iters = 0
    while True:
        bmat = a[:, basis]
        try:
            x_b = np.linalg.solve(bmat, b)
            y = np.linalg.solve(bmat.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("singular basis matrix in simplex") from exc
        reduced = c - a.T @ y
        eligible = ~in_basis & (reduced < -_RC_TOL)
        if not eligible.any():
            return "optimal", basis, x_b, y, iters
        entering = int(np.argmax(eligible))  # smallest eligible index (Bland)
        w = np.linalg.solve(bmat, a[:, entering])
        ratios = np.full(m, np.inf)
        mask = w > _PIV_TOL
        ratios[mask] = np.maximum(x_b[mask], 0.0) / w[mask]
        theta = ratios.min()
        if not np.isfinite(theta):
            return "unbounded", basis, x_b, y, iters
        # Bland: among (near-)minimal ratios, leave the smallest basic index
        tied = np.where(ratios <= theta * (1 + 1e-12) + 1e-300)[0]
        leaving_row = min(tied, key=lambda r: basis[r])
        in_basis[basis[leaving_row]] = False
        in_basis[entering] = True
        basis[leaving_row] = entering
        iters += 1
        if iters > iter_cap:
            raise SolverError("simplex iteration cap exceeded")


def _solve_standard_form(c, a, b):
    """Two-phase simplex for min c.x s.t. a x = b, x >= 0."""
    a = a.copy()
    b = b.copy()
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1
    b[flip] *= -1

    # phase 1: artificial identity basis
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    status, basis, x_b, _, it1 = _bland_simplex(c1, a1, b, basis)
    if status != "optimal":
        raise SolverError("phase 1 cannot be unbounded")
    infeas = float(c1[basis] @ x_b)
    if infeas > _FEAS_TOL:
        return LpSolution(status="infeasible", iterations=it1, infeasibility=infeas)

    # Drive artificials out. An artificial whose tableau row is zero over the
    # originals cannot leave: its own constraint, the one where its unit
    # column has the 1, is a combination of the others and is dropped along
    # with its basis position.
    keep_rows, keep_pos = list(range(m)), list(range(m))
    basis_set = set(basis)
    for pos in range(m):
        if basis[pos] < n:
            continue
        bmat = a1[:, basis]
        tab_row = np.linalg.solve(bmat, a)[pos]
        candidates = np.where(np.abs(tab_row) > 1e-9)[0]
        pivot = next((int(j) for j in candidates if j not in basis_set), -1)
        if pivot >= 0:
            basis_set.discard(basis[pos])
            basis_set.add(pivot)
            basis[pos] = pivot
        else:
            keep_rows.remove(basis[pos] - n)
            keep_pos.remove(pos)
    if len(keep_rows) < m:
        a = a[keep_rows]
        b = b[keep_rows]
        basis = [basis[p] for p in keep_pos]
        m = len(keep_rows)

    status, basis, x_b, y, it2 = _bland_simplex(c, a, b, basis)
    iters = it1 + it2
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters)
    x = np.zeros(n)
    x[basis] = np.maximum(x_b, 0.0)
    reduced = c - a.T @ y
    return LpSolution(
        status="optimal",
        x=x,
        objective_value=float(c @ x),
        iterations=iters,
        reduced_costs=reduced,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LpProblem by the two-phase simplex, under a variable cap."""
    if problem.n_vars > DEFAULT_VAR_CAP:
        raise ProblemTooLargeError(
            f"{problem.n_vars} variables exceed the exact-path cap {DEFAULT_VAR_CAP}; "
            "use the entropic solver"
        )
    return _solve_standard_form(problem.objective, problem.eq_matrix, problem.eq_rhs)


def feasible_point(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Phase-1 search in {x >= 0 : a x = b}.

    Returns (a point of the set, 0.0), or (None, the phase-1 residual) when
    the set is empty.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    sol = _solve_standard_form(np.zeros(a.shape[1]), a, b)
    if sol.status == "infeasible":
        return None, sol.infeasibility
    return sol.x, 0.0


def check_feasibility(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    """Phase-1 test of {x >= 0 : a x = b}; returns (feasible, residual)."""
    x, residual = feasible_point(a, b)
    return x is not None, residual


def solve_p_prime(
    dist: np.ndarray,
    nu_plus: np.ndarray,
    nu_minus: np.ndarray,
    a_sys: np.ndarray,
    b_sys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact coupling program: min <M, D> over M >= 0 with slack variables s.

    Constraints: M 1 - s = nu_minus, (a_sys) s = b_sys, M^T 1 = nu_plus,
    so s is the projected measure mu = M 1 - nu_minus >= 0. Returns
    (optimal coupling, mu, transport cost).
    """
    n = int(nu_plus.size)
    a_sys = np.atleast_2d(np.asarray(a_sys, dtype=float))
    n_rows = a_sys.shape[0]
    n_vars = n * n + n
    if n_vars > DEFAULT_VAR_CAP:
        raise ProblemTooLargeError(
            f"coupling LP needs {n_vars} variables (cap {DEFAULT_VAR_CAP}); "
            "use the entropic solver"
        )
    # filled in place: one np.block of the blocks would triple the peak memory
    eye, ones = np.eye(n), np.ones(n)
    a = np.zeros((n + n_rows + n, n_vars))
    a[:n, : n * n] = np.kron(eye, ones)  # row sums
    a[:n, n * n :] = np.diag(-ones)  # minus slack
    a[n : n + n_rows, n * n :] = a_sys
    a[n + n_rows :, : n * n] = np.kron(ones, eye)  # column sums
    b = np.concatenate([nu_minus, b_sys, nu_plus])
    cost = np.concatenate([dist.reshape(-1), np.zeros(n)])
    sol = solve_lp(LpProblem(cost, a, b))
    if sol.status == "infeasible":
        raise KmaxTooSmallError(
            "coupling program infeasible; the grid upper bound was too small"
        )
    if sol.status != "optimal":
        raise SolverError(f"unexpected LP status {sol.status}")
    coupling = sol.x[: n * n].reshape(n, n)
    mu = coupling.sum(axis=1) - nu_minus
    return coupling, mu, float(sol.objective_value)


def solve_eq_lsq(a: np.ndarray, b: np.ndarray, target: np.ndarray) -> np.ndarray:
    """min ||x - target||^2 s.t. a x = b, for a consistent system.

    The answer is target plus the minimum-norm solution of
    a d = b - a target, which does not depend on how the rows are written,
    so dependent rows need no special handling.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    target = np.asarray(target, dtype=float)
    if not a.shape[0]:
        return target.copy()
    delta = np.linalg.lstsq(a, b - a @ target, rcond=None)[0]
    x = target + delta
    residual = float(np.max(np.abs(a @ x - b)))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(b)))):
        raise SolverError(
            f"least-squares lift left residual {residual}; the system is inconsistent"
        )
    return x
