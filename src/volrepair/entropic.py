"""Entropically regularized projection onto the martingale constraint set.

The regularized coupling is a diagonal scaling of the Gibbs kernel: one
positive vector per constraint block (affine rows of the martingale system,
the box constraint from the negative part, and the fixed column marginal).
Each sweep updates the scalings in turn; an affine row's projection reduces
to the root of an explicit monotone scalar function. The martingality rows
of one level touch disjoint paths, so their projections commute and the
sweep takes them as one block: one vectorized Newton finds all their roots,
and a row it cannot settle falls back to the scalar root-find. Mass,
centering and calibration rows are scalar root-finds. The test references it is
checked against (full-matrix Dykstra, per-substep iterates, the single-block
prox and the dense stopping criterion) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError, InstabilityError, InvalidConfigError, SolverError
from .signed_measure import JointSignedMeasure

SAFE_EXPONENT = 700.0
ROOT_TOL = 1e-12
NEWTON_STEPS = 8  # vectorized Newton steps per level before lanes go scalar
DEFAULT_E_TOL = 1e-4
DEFAULT_MAX_ITERS = 100_000
OBJECTIVES_EVERY = 50  # sweeps between history rows with objectives; the last has them


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
    history: list[dict]
    primal_kl: float  # the last history row's objectives
    duality_gap: float
    row_blocks: int  # affine projections per sweep


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

    tol_abs = _residual_tol(coeffs, rhs)
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


def _residual_tol(coeffs: np.ndarray, rhs: float) -> float:
    """Residual at which a row's root is accepted.

    ROOT_TOL * max(1, |rhs|) in general. When the coefficients share one
    sign, the function flattens towards -rhs on one side, so below |rhs| = 1
    that absolute tolerance leaves the root loose (and with |rhs| under it,
    any lam far enough out passes); such rows stop on ROOT_TOL * |rhs|.
    """
    if abs(rhs) < 1.0 and (np.all(coeffs > 0) or np.all(coeffs < 0)):
        return ROOT_TOL * abs(rhs)
    return ROOT_TOL * max(1.0, abs(rhs))


class _Affine:
    """Consecutive affine rows with disjoint supports, projected as one block.

    Row ``j`` of the block (row ``start + j`` of the system) has the
    coefficients ``coef[bounds[j]:bounds[j + 1]]`` on the paths
    ``support[bounds[j]:bounds[j + 1]]``; ``seg`` holds ``j`` for each of
    them. Disjoint supports make the rows' KL projections commute, so one
    step solves all their roots and scales each path by the root of its row.
    """

    def __init__(self, start, stop, support, seg, coef, rhs):
        self.start, self.stop = start, stop
        self.support, self.seg, self.coef, self.rhs = support, seg, coef, rhs
        self.bounds = np.searchsorted(seg, np.arange(stop - start + 1))
        heads = self.bounds[:-1]
        self.safe_lam = SAFE_EXPONENT / np.maximum.reduceat(np.abs(coef), heads)
        self.tol = np.array(
            [_residual_tol(coef[i:j], r) for i, j, r in zip(heads, self.bounds[1:], rhs)]
        )
        # last root(s), the next warm start: a float for a single row
        self.lam: float | np.ndarray | None = None

    def scaling(self, y: np.ndarray) -> np.ndarray:
        x = y[self.support]
        if self.stop - self.start == 1:
            self.lam = root_find(
                self.coef, x, float(self.rhs[0]), label=self.start + 1, x0=self.lam
            )
            exponent = self.lam * self.coef
        else:
            warm = np.zeros(self.rhs.size) if self.lam is None else self.lam
            self.lam = self._roots(x, warm)
            exponent = self.lam[self.seg] * self.coef
        out = np.ones(y.size)
        out[self.support] = np.exp(exponent)
        return out

    def _roots(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Every row's root from one vectorized Newton, warm-started at ``lam``.

        Each lane takes ``root_find``'s Newton test: the step is finite,
        inside the lane's cap and at most half its previous step. A lane
        within its tolerance stops once at 1e-3 of it, or when a step would
        not shrink its residual. A lane whose step fails the test before it
        meets its tolerance, or that is still outside it after
        ``NEWTON_STEPS``, is handed to ``root_find`` warm-started where it
        stands, which brackets, caps and raises on that row alone.
        """
        seg, coef, rhs, tol = self.seg, self.coef, self.rhs, self.tol
        k = rhs.size
        cx = coef * x
        c2x = coef * cx

        def evaluate(lam):
            e = np.exp(lam[seg] * coef)
            return np.bincount(seg, e * cx, k) - rhs, np.bincount(seg, e * c2x, k)

        val, gp = evaluate(lam)
        res = np.abs(val)
        step_prev = np.full(k, np.inf)
        active = ~(res <= 1e-3 * tol)
        with np.errstate(all="ignore"):  # a bad step fails its lane's test
            for _ in range(NEWTON_STEPS):
                if not active.any():
                    break
                delta = val / gp
                step = np.abs(delta)
                cand = lam - delta
                ok = active & (np.abs(cand) <= self.safe_lam) & (step <= 0.5 * step_prev)
                if not ok.any():
                    break
                new_val, new_gp = evaluate(np.where(ok, cand, lam))
                new_res = np.abs(new_val)
                take = ok & ((res > tol) | (new_res < res))
                lam = np.where(take, cand, lam)
                val = np.where(take, new_val, val)
                res = np.where(take, new_res, res)
                gp = np.where(take, new_gp, gp)
                step_prev = np.where(take, step, step_prev)
                active = take & ~(res <= 1e-3 * tol)
        for j in np.flatnonzero(~(res <= tol)).tolist():
            i, e = self.bounds[j], self.bounds[j + 1]
            lam[j] = root_find(
                coef[i:e], x[i:e], float(rhs[j]), label=self.start + j + 1, x0=float(lam[j])
            )
        return lam

    def rows(self, vec: np.ndarray) -> list[np.ndarray]:
        """The block's scaling split into one vector per row.

        Row 0 also keeps whatever the block holds off its rows' supports, so
        the rows' product is ``vec`` exactly.
        """
        if self.stop - self.start == 1:
            return [vec]
        out = [vec.copy()]
        out[0][self.support[self.bounds[1]:]] = 1.0
        for i, j in zip(self.bounds[1:-1], self.bounds[2:]):
            row = np.ones(vec.size)
            row[self.support[i:j]] = vec[self.support[i:j]]
            out.append(row)
        return out


class _Blocks:
    """The sweep's blocks: affine blocks, the box row, the column marginal.

    Martingality rows of one level touch disjoint paths and form one affine
    block; every other affine row is a block of its own. Every block's KL
    projection is a diagonal scaling of the coupling, so ``scaling(b, y)``
    returns the new scaling vector of 0-based block ``b`` given the block's
    current image ``y`` (row sums for row blocks, column sums for the last).
    ``substeps[b]`` is the 1-based substep of the block's first row.
    """

    def __init__(self, system, nu: JointSignedMeasure):
        row_of, support = np.nonzero(system.A)
        coef = system.A[row_of, support]
        self.n_rows = system.n_rows
        self.row_of, self.coef = row_of, coef
        self.coef_sq = np.bincount(row_of, coef * coef, self.n_rows)
        self.rhs = system.b + system.A @ nu.nu_minus  # shifted by the box part
        self.nu = nu
        ptr = np.searchsorted(row_of, np.arange(self.n_rows + 1))
        self.affine: list[_Affine] = []
        for start, stop in _row_groups(system.row_kinds):
            i, j = ptr[start], ptr[stop]
            if np.bincount(support[i:j]).max() > 1:  # overlapping: one by one
                spans = [(r, r + 1) for r in range(start, stop)]
            else:
                spans = [(start, stop)]
            for s, e in spans:
                i, j = ptr[s], ptr[e]
                self.affine.append(
                    _Affine(s, e, support[i:j], row_of[i:j] - s, coef[i:j], self.rhs[s:e])
                )
        self.substeps = [blk.start + 1 for blk in self.affine]
        self.substeps += [self.n_rows + 1, self.n_rows + 2]

    def scaling(self, b: int, y: np.ndarray) -> np.ndarray:
        n_aff = len(self.affine)
        if b < n_aff:
            return self.affine[b].scaling(y)
        if b == n_aff:
            return np.maximum(self.nu.nu_minus / y, 1.0)
        return self.nu.nu_plus / y

    def join(self, scalings: list[np.ndarray]) -> list[np.ndarray]:
        """One vector per block from the R per-row scalings."""
        if len(scalings) != self.n_rows + 2:
            raise ValueError("initial scalings block count mismatch")
        out = [np.prod(scalings[b.start:b.stop], axis=0, dtype=float) for b in self.affine]
        return out + [np.array(v, dtype=float) for v in scalings[-2:]]

    def split(self, a: list[np.ndarray]) -> list[np.ndarray]:
        """The R per-row scalings from one vector per block."""
        out = []
        for blk, vec in zip(self.affine, a):
            out += blk.rows(vec)
        return out + a[-2:]


def _row_groups(kinds) -> list[tuple[int, int]]:
    """Row spans [start, stop): one per martingality level, one per other row."""
    spans: list[tuple[int, int]] = []
    for r, kind in enumerate(kinds):
        prev = kinds[r - 1] if r else None
        if kind[0] == "martingality" and prev and prev[:2] == kind[:2]:
            spans[-1] = (spans[-1][0], r + 1)
        else:
            spans.append((r, r + 1))
    return spans


class _Sweep:
    """Gauss-Seidel pass over the blocks, in scaling space.

    Keeps one scaling per block, the product ``rho`` of the row-side ones
    and the kernel image ``g_acol`` of the column scaling, so no substep
    materializes a coupling. Starts from ``scalings`` (R per-row vectors; a
    level's rows are multiplied into its block), or from unit scalings.
    """

    def __init__(self, kernel: GibbsKernel, system, nu, scalings=None):
        self.g = kernel.G
        self.blocks = _Blocks(system, nu)
        n = self.g.shape[0]
        # summed as the row marginals are, so the raw kernel's KL is exactly 0
        self.eps, self.g_mass = kernel.epsilon, float((self.g @ np.ones(n)).sum())
        if scalings is None:
            self.a = [np.ones(n) for _ in self.blocks.substeps]
        else:
            self.a = self.blocks.join(scalings)
        self.rho = np.ones(n)
        for v in self.a[:-1]:
            self.rho = self.rho * v
        self.g_acol = self.g @ self.a[-1]

    def row_substeps(self):
        """Affine blocks, then the box row; yields each block's index after its step."""
        a = self.a
        for b in range(len(a) - 1):
            substep = self.blocks.substeps[b]
            y = (self.rho / a[b]) * self.g_acol
            _check_finite_positive(y, substep, "scaled kernel image")
            new = self.blocks.scaling(b, y)
            self.rho = self.rho * (new / a[b])
            a[b] = new
            _check_finite_positive(self.rho, substep, "row scaling product")
            yield b

    def column_update(self, gt_rho: np.ndarray):
        """Column-marginal substep; ``gt_rho`` is G^T rho."""
        self.a[-1] = self.blocks.scaling(len(self.a) - 1, gt_rho)
        _check_finite_positive(self.a[-1], self.blocks.substeps[-1], "column scaling")
        self.g_acol = self.g @ self.a[-1]

    def coupling(self) -> np.ndarray:
        return (self.rho[:, None] * self.g) * self.a[-1][None, :]

    def objectives(self, row: np.ndarray, col: np.ndarray) -> dict:
        """eps * KL(M | G) and the duality gap at the coupling M, from its marginals.

        As log(M / G) = log rho_p + log a_q entrywise, KL(M | G) = <row, log
        rho> + <col, log a_col> - sum M + sum G, so no N x N array is formed.
        """
        mass = float(row.sum())
        kl = float(row @ np.log(self.rho) + col @ np.log(self.a[-1])) - mass + self.g_mass
        primal = self.eps * kl
        dual = _dual_value(mass, self.blocks, self.a, self.eps, self.g_mass)
        return {"primal_kl": primal, "duality_gap": primal - dual}

    def row_scalings(self) -> list[np.ndarray]:
        """The R per-row scaling vectors the blocks amount to."""
        return self.blocks.split(self.a)


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
) -> tuple[np.ndarray, list[np.ndarray], SinkhornReport]:
    """Multi-constrained scaling iteration until the criterion drops below e_tol.

    Never materializes couplings during substeps: each sweep costs two
    kernel matrix-vector products plus one projection per affine block.
    The martingality rows of one level form one block whose roots come from
    one vectorized Newton; every other affine row is a scalar root-find.
    The returned coupling is the one whose criterion met the tolerance,
    together with the R scaling vectors that reproduce it (affine rows, the
    box row, then the column marginal). History rows carry the objective
    columns every ``OBJECTIVES_EVERY`` sweeps and on the last row, whose
    values the report repeats; like the criterion, they come from the
    coupling's marginals (:meth:`_Sweep.objectives`).
    """
    sweep = _Sweep(kernel, system, nu, initial_scalings)
    history: list[dict] = []

    # sweep n ends at the (n, R-1) iterate; the (0, R-1) iterate is the raw
    # kernel. The column substep closing a sweep runs only if another follows.
    n_iter = 0
    gt_rho = sweep.g.T @ sweep.rho
    while True:
        row, col = sweep.rho * sweep.g_acol, sweep.a[-1] * gt_rho
        crit = _marginal_criterion(row, col, system, nu)
        entry = {"n": n_iter, "substep": system.n_rows + 1, "criterion": crit}
        last = crit < e_tol or n_iter == max_iters
        if last or n_iter % OBJECTIVES_EVERY == 0:
            entry.update(sweep.objectives(row, col))
        history.append(entry)
        if last:
            break
        if n_iter:
            sweep.column_update(gt_rho)
        n_iter += 1
        for _ in sweep.row_substeps():
            pass
        gt_rho = sweep.g.T @ sweep.rho

    report = SinkhornReport(
        crit < e_tol, n_iter, crit, history, entry["primal_kl"], entry["duality_gap"],
        len(sweep.blocks.affine),
    )
    return sweep.coupling(), sweep.row_scalings(), report


def duality_gap(
    m: np.ndarray,
    scalings: list[np.ndarray],
    kernel: GibbsKernel,
    system,
    nu: JointSignedMeasure,
) -> float:
    """Primal regularized objective at ``m`` minus the dual value at the scalings.

    ``m`` is the coupling the scalings reproduce, diag(product of the row
    scalings) G diag(column scaling); its marginals enter both objectives.
    """
    sweep = _Sweep(kernel, system, nu, scalings)
    return sweep.objectives(m.sum(axis=1), m.sum(axis=0))["duality_gap"]


def _dual_value(
    mass: float, blocks: _Blocks, a: list[np.ndarray], eps: float, g_mass: float
) -> float:
    """Dual objective at the block scalings ``a``, whose coupling sums to ``mass``.

    The conjugate terms have closed forms: affine rows contribute their
    multiplier times the shifted right-hand side, the box row pairs with the
    negative part (its dual variable must stay nonnegative), the fixed row
    pairs with the positive part. A row's multiplier is the least-squares
    fit of log(scaling) = lam * coefficient on its support.
    """
    log_a = np.concatenate([np.log(v[b.support]) for b, v in zip(blocks.affine, a)])
    fit = np.bincount(blocks.row_of, blocks.coef * log_a, blocks.n_rows)
    dual = eps * float((fit / blocks.coef_sq) @ blocks.rhs)
    u_box = eps * np.log(a[-2])
    if np.any(u_box < -1e-10):
        raise DomainViolationError(
            f"box-row dual variable has negative component {u_box.min()}"
        )
    dual += float(u_box @ blocks.nu.nu_minus)
    u_col = eps * np.log(a[-1])
    dual += float(u_col @ blocks.nu.nu_plus)
    return dual - eps * (mass - g_mass)


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
    if not eps_arr or not all(np.isfinite(e) and e > 0 for e in eps_arr):
        raise InvalidConfigError(f"eps_list must be finite values > 0, got {eps_arr}")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise InvalidConfigError(f"eps_list must be strictly decreasing, got {eps_arr}")
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
