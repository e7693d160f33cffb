"""Entropically regularized projection onto the martingale constraint set.

The regularized coupling is a diagonal scaling of the Gibbs kernel: one
positive vector per constraint block (affine rows of the martingale system,
the box constraint from the negative part, and the fixed column marginal).
Each sweep updates the scalings in turn; affine substeps reduce to finding
the root of an explicit monotone scalar function. The test references it is
checked against (full-matrix Dykstra, per-substep iterates, the single-block
prox and the dense stopping criterion) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolationError, InstabilityError, SolverError
from .signed_measure import JointSignedMeasure

SAFE_EXPONENT = 700.0
ROOT_TOL = 1e-12
DEFAULT_E_TOL = 1e-4
DEFAULT_MAX_ITERS = 100_000


@dataclass(frozen=True)
class GibbsKernel:
    """Entrywise exp(-D/epsilon), strictly positive by construction."""

    G: np.ndarray
    epsilon: float
    floored_entries: int = 0


@dataclass
class SinkhornReport:
    converged: bool
    iterations: int
    final_criterion: float
    history: list[dict] = field(default_factory=list)
    primal_kl: float | None = None
    duality_gap: float | None = None


@dataclass(frozen=True)
class SweepEntry:
    epsilon: float
    cost: float | None
    final_criterion: float | None
    converged: bool
    error: str | None = None


def gibbs_kernel(dist: np.ndarray, epsilon: float) -> GibbsKernel:
    """Kernel exp(-D/eps); underflowed entries are floored, not zeroed."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    g = np.exp(-np.asarray(dist, dtype=float) / epsilon)
    tiny = np.finfo(float).tiny
    floored = int(np.count_nonzero(g < tiny))
    if floored:
        g = np.maximum(g, tiny)
    return GibbsKernel(G=g, epsilon=float(epsilon), floored_entries=floored)


def kl_divergence(m: np.ndarray, g: np.ndarray) -> float:
    """Relative entropy KL(M | G); +inf if M has a negative entry."""
    m = np.asarray(m, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(m < 0):
        return float("inf")
    out = np.array(g, dtype=float, copy=True)  # M = 0 entries contribute G
    pos = m > 0
    out[pos] = m[pos] * np.log(m[pos] / g[pos]) - m[pos] + g[pos]
    return float(out.sum())


def root_find(
    coeffs: np.ndarray, x: np.ndarray, rhs: float, label=None, x0: float | None = None
) -> float:
    """Root of lam -> <exp(lam c), c * x> - rhs for nonzero c and x > 0.

    The map is strictly increasing, so every evaluation pins the root to one
    side. Each step is the Newton step when it is finite, keeps every
    exponent argument within ``SAFE_EXPONENT``, stays inside the bracket
    (once both sides are known) and is at most half the previous step: the
    step-halving test of ``rtsafe`` (Press et al., Numerical Recipes 9.4).
    Otherwise the step is a bisection of the bracket or, before a bracket
    exists, a geometric jump (stride x4) clamped to the cap. ``x0``
    warm-starts the search, typically from the previous sweep's root, so
    Newton usually settles in a few steps. ``InstabilityError`` means the
    function at the cap still has its starting sign: the root lies beyond.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    cx = coeffs * x
    c2x = coeffs * cx
    amax = float(np.max(np.abs(coeffs)))
    if amax == 0.0:
        raise ValueError("root_find needs a nonzero row")
    safe_lam = SAFE_EXPONENT / amax

    def g_pair(lam: float) -> tuple[float, float]:
        e = np.exp(lam * coeffs)
        return float(e @ cx) - rhs, float(e @ c2x)

    def newton_step(lam: float, val: float, gp: float) -> float | None:
        """The Newton iterate if it is finite and inside the cap."""
        if not (gp > 0 and np.isfinite(val)):
            return None
        cand = lam - val / gp
        return cand if abs(cand) <= safe_lam else None

    tol_abs = ROOT_TOL * max(1.0, abs(rhs))
    lam = 0.0
    if x0 is not None and np.isfinite(x0) and abs(x0) < safe_lam:
        lam = float(x0)
    lo, hi = -np.inf, np.inf
    stride = 1.0
    step_prev = np.inf
    val, gp = g_pair(lam)
    for _ in range(200):
        if abs(val) <= tol_abs:
            break
        if val > 0:
            hi = lam
        else:
            lo = lam
        bracketed = np.isfinite(lo) and np.isfinite(hi)
        if bracketed and hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            # bracket exhausted: the root is resolved to float precision even
            # if cancellation noise keeps |g| above the absolute tolerance
            break
        if not bracketed and (lam <= -safe_lam if val > 0 else lam >= safe_lam):
            # still on the starting side at the cap: the root lies beyond it
            raise InstabilityError(label, "bracket expansion exceeded safe exponent")
        cand = newton_step(lam, val, gp)
        if cand is None or not lo < cand < hi or abs(cand - lam) > 0.5 * step_prev:
            if bracketed:
                cand = 0.5 * (lo + hi)
            else:
                jump = lam - stride if val > 0 else lam + stride
                cand = min(max(jump, -safe_lam), safe_lam)
                stride *= 4.0
        step_prev = abs(cand - lam)
        lam = cand
        val, gp = g_pair(lam)
    else:
        raise SolverError(f"root_find failed to converge (rhs={rhs})")
    # polish: a few extra Newton steps while they strictly help
    best, best_g, best_gp = lam, val, gp
    for _ in range(3):
        if abs(best_g) <= 1e-3 * tol_abs:
            break
        cand = newton_step(best, best_g, best_gp)
        if cand is None:
            break
        cand_g, cand_gp = g_pair(cand)
        if not np.isfinite(cand_g) or abs(cand_g) >= abs(best_g):
            break
        best, best_g, best_gp = cand, cand_g, cand_gp
    return best


class _Blocks:
    """The R constraint blocks: affine rows, the box row, the column marginal.

    Every block's KL projection is a diagonal scaling of the coupling, so
    ``scaling(r, y)`` returns the new scaling vector of 0-based block ``r``
    given the block's current image ``y`` (row sums for row blocks, column
    sums for the last). Affine roots warm-start from the block's last root.
    """

    def __init__(self, system, nu: JointSignedMeasure):
        self.A = system.A
        self.rows = []  # (support, nonzero coefficients) of each affine row
        for row in system.A:
            support = np.nonzero(row)[0]
            self.rows.append((support, row[support]))
        self.rhs = system.b + system.A @ nu.nu_minus  # shifted by the box part
        self.nu = nu
        self.roots: list[float | None] = [None] * system.n_rows

    def scaling(self, r: int, y: np.ndarray) -> np.ndarray:
        n_aff = len(self.rows)
        if r < n_aff:
            support, coef = self.rows[r]
            lam = root_find(
                coef, y[support], float(self.rhs[r]), label=r + 1, x0=self.roots[r]
            )
            self.roots[r] = lam
            return np.exp(lam * self.A[r])
        if r == n_aff:
            return np.maximum(self.nu.nu_minus / y, 1.0)
        return self.nu.nu_plus / y


class _Sweep:
    """Gauss-Seidel pass over the blocks, in scaling space.

    Keeps the product ``rho`` of the row scalings and the kernel image
    ``g_acol`` of the column scaling, so no substep materializes a coupling.
    Starts from copies of ``scalings``, or from unit scalings.
    """

    def __init__(self, kernel: GibbsKernel, system, nu, scalings=None):
        self.g = kernel.G
        self.blocks = _Blocks(system, nu)
        n_blocks = system.n_rows + 2
        if scalings is None:
            scalings = [np.ones(self.g.shape[0])] * n_blocks
        elif len(scalings) != n_blocks:
            raise ValueError("initial scalings block count mismatch")
        self.a = [np.array(v, dtype=float) for v in scalings]
        self.rho = np.ones(self.g.shape[0])
        for v in self.a[:-1]:
            self.rho = self.rho * v
        self.g_acol = self.g @ self.a[-1]

    def row_substeps(self):
        """Affine rows, then the box row; yields after each substep."""
        a = self.a
        for r in range(len(a) - 1):
            y = (self.rho / a[r]) * self.g_acol
            _check_finite_positive(y, r + 1, "scaled kernel image")
            new = self.blocks.scaling(r, y)
            self.rho = self.rho * (new / a[r])
            a[r] = new
            _check_finite_positive(self.rho, r + 1, "row scaling product")
            yield

    def column_update(self, gt_rho: np.ndarray):
        """Column-marginal substep; ``gt_rho`` is G^T rho."""
        self.a[-1] = self.blocks.scaling(len(self.a) - 1, gt_rho)
        _check_finite_positive(self.a[-1], len(self.a), "column scaling")
        self.g_acol = self.g @ self.a[-1]

    def coupling(self) -> np.ndarray:
        return (self.rho[:, None] * self.g) * self.a[-1][None, :]


def _marginal_criterion(row: np.ndarray, col: np.ndarray, system, nu) -> float:
    affine = float(np.max(np.abs(system.A @ (row - nu.nu_minus) - system.b)))
    box = float(np.max(np.maximum(nu.nu_minus - row, 0.0)))
    fixed = float(np.max(np.abs(col - nu.nu_plus)))
    return max(affine, box, fixed)


def _check_finite_positive(vec: np.ndarray, substep: int, what: str):
    low = float(vec.min())
    high = float(vec.max())
    if not (low > 0.0) or not np.isfinite(high):
        raise InstabilityError(substep, f"{what} left the positive range")


def sinkhorn_run(
    kernel: GibbsKernel,
    system,
    nu: JointSignedMeasure,
    e_tol: float = DEFAULT_E_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    initial_scalings: list[np.ndarray] | None = None,
    objective_every: int | None = 1,
) -> tuple[np.ndarray, list[np.ndarray], SinkhornReport]:
    """Multi-constrained scaling iteration until the criterion drops below e_tol.

    Never materializes couplings during substeps: each sweep costs two
    kernel matrix-vector products plus one scalar root-find per affine row.
    The returned coupling is the one whose criterion met the tolerance,
    together with the R scaling vectors that reproduce it (affine rows, the
    box row, then the column marginal). Objective columns in the
    history are filled every ``objective_every`` sweeps (they need a dense
    reconstruction, unlike the criterion itself); ``None`` skips them and
    the report's objective values.
    """
    g = kernel.G
    sweep = _Sweep(kernel, system, nu, initial_scalings)
    history: list[dict] = []

    def objectives(m: np.ndarray) -> dict:
        # eps * KL(m, G) is both the primal and the first term of the gap
        primal = kernel.epsilon * kl_divergence(m, g)
        gap = primal - _dual_value(m, sweep.a, kernel, system, nu)
        return {"primal_kl": primal, "duality_gap": gap}

    # sweep n ends at the (n, R-1) iterate; the (0, R-1) iterate is the raw
    # kernel. The column substep closing a sweep runs only if another follows.
    n_iter = 0
    gt_rho = g.T @ sweep.rho
    while True:
        row, col = sweep.rho * sweep.g_acol, sweep.a[-1] * gt_rho
        crit = _marginal_criterion(row, col, system, nu)
        entry = {"n": n_iter, "substep": system.n_rows + 1, "criterion": crit}
        if objective_every and n_iter % objective_every == 0:
            entry.update(objectives(sweep.coupling()))
        history.append(entry)
        if crit < e_tol or n_iter == max_iters:
            break
        if n_iter:
            sweep.column_update(gt_rho)
        n_iter += 1
        for _ in sweep.row_substeps():
            pass
        gt_rho = g.T @ sweep.rho

    m = sweep.coupling()
    report = SinkhornReport(crit < e_tol, n_iter, crit, history)
    if objective_every:
        # the last row already holds them when it fell on the stride
        final = entry if "primal_kl" in entry else objectives(m)
        report.primal_kl = final["primal_kl"]
        report.duality_gap = final["duality_gap"]
    return m, sweep.a, report


def duality_gap(
    m: np.ndarray,
    scalings: list[np.ndarray],
    kernel: GibbsKernel,
    system,
    nu: JointSignedMeasure,
) -> float:
    """Primal regularized objective at ``m`` minus the dual value at the scalings.

    ``m`` is the coupling the scalings reproduce, diag(product of the row
    scalings) G diag(column scaling); its mass enters the dual.
    """
    primal = kernel.epsilon * kl_divergence(m, kernel.G)
    return primal - _dual_value(m, scalings, kernel, system, nu)


def _dual_value(
    m: np.ndarray,
    scalings: list[np.ndarray],
    kernel: GibbsKernel,
    system,
    nu: JointSignedMeasure,
) -> float:
    """Dual objective at the scalings; ``m`` is the coupling they reproduce.

    The conjugate terms have closed forms: affine rows contribute their
    multiplier times the shifted right-hand side, the box row pairs with the
    negative part (its dual variable must stay nonnegative), the fixed row
    pairs with the positive part.
    """
    eps = kernel.epsilon
    blocks = _Blocks(system, nu)
    n_aff = system.n_rows
    dual = 0.0
    for r, (support, coef) in enumerate(blocks.rows):
        log_a = np.log(scalings[r][support])
        lam = float((coef @ log_a) / (coef @ coef))
        dual += eps * lam * float(blocks.rhs[r])
    u_box = eps * np.log(scalings[n_aff])
    if np.any(u_box < -1e-10):
        raise DomainViolationError(
            f"box-row dual variable has negative component {u_box.min()}"
        )
    dual += float(u_box @ nu.nu_minus)
    u_col = eps * np.log(scalings[-1])
    dual += float(u_col @ nu.nu_plus)
    return dual - eps * float(m.sum() - kernel.G.sum())


def epsilon_sweep(
    dist: np.ndarray,
    nu: JointSignedMeasure,
    system,
    eps_list: list[float],
    e_tol: float = DEFAULT_E_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[SweepEntry]:
    """Run the scaling solver along a decreasing epsilon schedule.

    Scalings warm-start from the previous successful epsilon; failures are
    recorded and the sweep continues.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr or any(e <= 0 for e in eps_arr):
        raise ValueError("eps_list must be nonempty positive values")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    entries: list[SweepEntry] = []
    warm: list[np.ndarray] | None = None
    for eps in eps_arr:
        kernel = gibbs_kernel(dist, eps)
        try:
            m, scalings, report = sinkhorn_run(
                kernel,
                system,
                nu,
                e_tol=e_tol,
                max_iters=max_iters,
                initial_scalings=warm,
                objective_every=None,
            )
        except InstabilityError as exc:
            entries.append(SweepEntry(eps, None, None, False, error=str(exc)))
            continue
        cost = float((m * dist).sum())
        entries.append(
            SweepEntry(eps, cost, report.final_criterion, report.converged)
        )
        if report.converged:
            warm = [v.copy() for v in scalings]
    return entries
