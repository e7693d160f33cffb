"""Independent oracles and test-only references used to freeze expected values.

The oracles deliberately avoid the code paths they check: quadrature instead
of closed-form normal CDFs, exhaustive vertex enumeration instead of simplex,
scipy's LP for dual-side cross-checks, a solve on the Gram matrix A A^T
instead of the least-squares lift, the marginal-space and the full
path-space LPs instead of the detector's backward hull pass, and
full-matrix Dykstra projections instead of the scaling sweep.

The references expose what the library keeps internal: the backward hull
pass's verdict on its own, the entropy, the per-substep dense iterates of the
scaling sweep, the single-block prox, the stopping criterion and the
objectives on a dense coupling, and the piecewise-linear price curve with its
pricing identity.
"""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from volrepair import lp
from volrepair.constraints import (
    DETECT_TOL,
    _backward_pass,
    _detector_grid,
    build_calibrated_system,
    build_martingale_system,
)
from volrepair.entropic import _Blocks, _marginal_criterion, _Sweep, kl_divergence, root_find
from volrepair.grid import DEFAULT_KMAX_MARGIN
from volrepair.signed_measure import _validate_augmented


def lognormal_call_quadrature(k: float, vol: float, maturity: float) -> float:
    """E[(X - k)+] for X lognormal with E[X]=1 via trapezoid quadrature."""
    s = vol * np.sqrt(maturity)
    z = np.linspace(-13.0, 13.0, 400_001)
    x = np.exp(-0.5 * s * s + s * z)
    payoff = np.maximum(x - k, 0.0)
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return float(np.trapezoid(payoff * density, z))


def vertex_enumeration_lp(c, a, b, tol=1e-9):
    """Minimum of c.x over {x >= 0 : a x = b} by basic-solution enumeration.

    Only for tiny instances. Returns (value, x) or (None, None) if no basic
    feasible solution exists.
    """
    c = np.asarray(c, float)
    a = np.atleast_2d(np.asarray(a, float))
    b = np.asarray(b, float)
    m, n = a.shape
    rank = np.linalg.matrix_rank(a)
    best_val, best_x = None, None
    for cols in combinations(range(n), rank):
        sub = a[:, cols]
        sol, residuals, rk, _ = np.linalg.lstsq(sub, b, rcond=None)
        if rk < rank:
            continue
        if np.max(np.abs(sub @ sol - b)) > tol:
            continue
        if np.min(sol) < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(sol, 0.0)
        val = float(c @ x)
        if best_val is None or val < best_val - 1e-15:
            best_val, best_x = val, x
    return best_val, best_x


def kantorovich_dual_value(dist, delta):
    """sup <phi, delta> over 1-Lipschitz phi on the metric points.

    LP over free phi with constraints phi_p - phi_q <= dist[p, q]; solved
    with scipy's HiGHS as an independent route.
    """
    dist = np.asarray(dist, float)
    delta = np.asarray(delta, float)
    n = delta.size
    rows, rhs = [], []
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            row = np.zeros(n)
            row[p] = 1.0
            row[q] = -1.0
            rows.append(row)
            rhs.append(dist[p, q])
    res = linprog(
        -delta,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(None, None)] * n,
        method="highs",
    )
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(-res.fun)


def scipy_lp_value(c, a_eq, b_eq):
    """Independent solve of min c.x, a x = b, x >= 0."""
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * len(c), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(res.fun)


def projection_formula(a, b, target):
    """x = t - A^T (A A^T)^{-1} (A t - b) via an independent factorization."""
    a = np.atleast_2d(np.asarray(a, float))
    gram = a @ a.T
    correction = a.T @ np.linalg.lstsq(gram, a @ target - b, rcond=None)[0]
    return target - correction


def _marginal_feasibility_system(theta, m, targets):
    """Equality rows {a x = b, x >= 0} of the marginal-space detector LP.

    The variables are mu_1..mu_m on the grid (m * L values, period-major)
    followed by one slack s_{i,l} >= 0 per convex-order row ((m - 1) * L
    values). Rows, in order: the m mass rows, the m mean rows, one pricing
    row sum_j (theta_j - k)+ mu_i(theta_j) = c per target, and per adjacent
    pair (i, i + 1) and knot theta_l the convex-order row
    sum_j (theta_j - theta_l)+ (mu_{i+1} - mu_i)(theta_j) - s_{i,l} = 0.
    For m = 1 this is the path-space system, row for row.
    """
    k = theta.strikes
    l = theta.l  # noqa: E741
    n_mu = m * l
    n_quotes = len(targets)
    period = np.array([t[0] for t in targets], dtype=int)
    strike = np.array([t[1] for t in targets], dtype=float)
    price = np.array([t[2] for t in targets], dtype=float)

    a = np.zeros((2 * m + n_quotes + (m - 1) * l, (2 * m - 1) * l))
    a[:m, :n_mu] = np.kron(np.eye(m), np.ones(l))
    a[m : 2 * m, :n_mu] = np.kron(np.eye(m), k)
    quote_rows = 2 * m + np.arange(n_quotes)
    a[quote_rows[:, None], period[:, None] * l + np.arange(l)] = np.maximum(
        k[None, :] - strike[:, None], 0.0
    )
    calls = np.maximum(k[None, :] - k[:, None], 0.0)  # calls[l, j] = (k_j - k_l)+
    step = np.eye(m - 1, m, k=1) - np.eye(m - 1, m)  # mu_{i+1} - mu_i
    a[2 * m + n_quotes :, :n_mu] = np.kron(step, calls)
    a[2 * m + n_quotes :, n_mu:] = -np.eye((m - 1) * l)
    b = np.concatenate([np.ones(2 * m), price, np.zeros((m - 1) * l)])
    return a, b


def _marginal_certificate(surface, kmax_margin=DEFAULT_KMAX_MARGIN):
    """The detector LP by the in-repo phase-1 simplex: (its grid, the (m, L)
    marginals or None, the phase-1 residual)."""
    targets, theta = _detector_grid(surface, kmax_margin)
    m = surface.n_maturities
    a, b = _marginal_feasibility_system(theta, m, targets)
    x, residual = lp.feasible_point(a, b)
    marginals = None if x is None else x[: m * theta.l].reshape(m, theta.l)
    return theta, marginals, residual


def highs_marginal_feasible(surface, kmax_margin=DEFAULT_KMAX_MARGIN):
    """HiGHS's verdict on the detector LP's rows, with the grid and the rows.

    The primal feasibility tolerance is the in-repo phase-1's 1e-9, tighter
    than HiGHS's default 1e-7 and the detector's ``tol``. When HiGHS's
    default solver reports numerical trouble, its interior-point method decides.
    """
    targets, theta = _detector_grid(surface, kmax_margin)
    a, b = _marginal_feasibility_system(theta, surface.n_maturities, targets)
    for method in ("highs", "highs-ipm"):
        res = linprog(
            np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None), method=method,
            options={"primal_feasibility_tolerance": 1e-9},
        )
        if res.status in (0, 2):
            return res.status == 0, theta, a, b
    raise AssertionError(f"oracle LP failed: {res.message}")


def martingale_feasible(surface, kmax_margin=DEFAULT_KMAX_MARGIN):
    """The backward hull pass alone, with the detector's default ``tol``.

    Returns (feasible, the gap of the first failing step, 0 when feasible).
    """
    report = _backward_pass(surface, kmax_margin, DETECT_TOL)
    return report.feasible, max((v.magnitude for v in report.violations), default=0.0)


def pathspace_feasible(surface, kmax_margin=DEFAULT_KMAX_MARGIN):
    """Is there a martingale on the path space Theta^m matching all quotes?

    Phase-1 simplex over all L^m paths: mass, centering and per-prefix
    martingality rows plus one pricing row per quote, on the grid the
    detector uses. Returns (feasible, residual) like ``martingale_feasible``.
    """
    targets, theta = _detector_grid(surface, kmax_margin)
    base = build_martingale_system(theta, surface.n_maturities)
    system = build_calibrated_system(base, targets, theta)
    return lp.check_feasibility(system.A, system.b)


def dykstra_run(kernel, system, nu, sweeps):
    """Full-matrix Dykstra reference: X(n, r) and the q correction matrices.

    Iterated Bregman (KL) projections of the whole coupling onto each
    constraint block in turn, with one multiplicative correction matrix per
    block (Benamou et al. 2015).
    """
    g = kernel.G
    a = system.A
    rhs = system.b + a @ nu.nu_minus
    n_aff = system.n_rows
    n_blocks = n_aff + 2
    x = g.copy()
    q = [np.ones_like(g) for _ in range(n_blocks)]
    lam_cache = [None] * n_aff
    couplings, q_history = [], []
    for _ in range(sweeps):
        per_sweep = []
        for r in range(n_blocks):
            x_prev = x
            v = x_prev * q[r]
            if r < n_aff:
                support = np.nonzero(a[r])[0]
                vrow = v.sum(axis=1)
                lam = root_find(
                    a[r][support], vrow[support], float(rhs[r]), label=r + 1,
                    x0=lam_cache[r],
                )
                lam_cache[r] = lam
                x = np.exp(lam * a[r])[:, None] * v
            elif r == n_aff:
                scale = np.maximum(nu.nu_minus / v.sum(axis=1), 1.0)
                x = scale[:, None] * v
            else:
                scale = nu.nu_plus / v.sum(axis=0)
                x = v * scale[None, :]
            q[r] = q[r] * x_prev / x
            per_sweep.append(x.copy())
        couplings.append(per_sweep)
        q_history.append([qq.copy() for qq in q])
    return couplings, q_history


def entropy(m):
    """H(M) = -sum M (log M - 1) with the 0 log 0 = 0 convention."""
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        return -np.inf
    terms = np.zeros_like(m)
    pos = m > 0
    terms[pos] = m[pos] * (np.log(m[pos]) - 1.0)
    return float(-terms.sum())


def prox_vector(r, x, system, nu):
    """KL-closest point of the r-th constraint set to a positive vector.

    ``r`` is 1-based: affine rows first, then the box constraint, then the
    fixed column marginal.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("prox input must be strictly positive")
    n_aff = system.n_rows
    if not 1 <= r <= n_aff + 2:
        raise IndexError(f"substep {r} outside [1, {n_aff + 2}]")
    if r <= n_aff:
        row = system.A[r - 1]
        support = np.nonzero(row)[0]
        rhs = float(system.b[r - 1] + row @ nu.nu_minus)
        return x * np.exp(root_find(row[support], x[support], rhs, label=r) * row)
    blocks = _Blocks(system, nu)
    return x * blocks.scaling(len(blocks.affine) + r - n_aff - 1, x)


def stopping_criterion(m, system, nu):
    """Max sup-norm violation of affine, box and column-marginal constraints."""
    return _marginal_criterion(m.sum(axis=1), m.sum(axis=0), system, nu)


def dense_objectives(m, scalings, kernel, system, nu):
    """(eps * KL(m | G), duality gap) with the KL summed over the coupling ``m``.

    The dual value is the library's closed form at the block scalings, with
    the masses of ``m`` and G summed from the dense arrays.
    """
    eps = kernel.epsilon
    primal = eps * kl_divergence(m, kernel.G)
    blocks = _Blocks(system, nu)
    a = blocks.join(scalings)
    log_a = np.concatenate([np.log(v[b.support]) for b, v in zip(blocks.affine, a)])
    fit = np.bincount(blocks.row_of, blocks.coef * log_a, blocks.n_rows)
    dual = eps * float((fit / blocks.coef_sq) @ blocks.rhs)
    dual += float(eps * np.log(a[-2]) @ nu.nu_minus)
    dual += float(eps * np.log(a[-1]) @ nu.nu_plus)
    dual -= eps * float(m.sum() - kernel.G.sum())
    return primal, primal - dual


def sinkhorn_iterates(kernel, system, nu, sweeps):
    """Dense couplings M(n, r) for every substep of a fixed number of sweeps.

    Runs the sweep of ``sinkhorn_run`` from unit scalings, for comparison
    with the Dykstra reference; also returns the R per-row scaling vectors
    after each sweep. The sweep takes a martingality level as one block
    step; its rows touch disjoint paths, so the iterate after each of them
    takes ``rho`` from after the step on the paths of the rows done so far
    and from before it elsewhere.
    """
    g = kernel.G
    sweep = _Sweep(kernel, system, nu)
    affine = sweep.blocks.affine
    couplings, scalings = [], []
    for _ in range(sweeps):
        per_sweep = []
        before = sweep.rho
        for b in sweep.row_substeps():
            if b < len(affine):
                blk = affine[b]
                for end in blk.bounds[1:-1]:  # every row of the level but its last
                    done = blk.support[:end]
                    rho = before.copy()
                    rho[done] = sweep.rho[done]
                    per_sweep.append((rho[:, None] * g) * sweep.a[-1][None, :])
            per_sweep.append(sweep.coupling())
            before = sweep.rho
        sweep.column_update(g.T @ sweep.rho)
        per_sweep.append(sweep.coupling())
        couplings.append(per_sweep)
        scalings.append(sweep.row_scalings())
    return couplings, scalings


def pricing_function(strikes, prices, k):
    """Piecewise-linear call price curve; zero at and beyond the last strike."""
    strikes, prices = _validate_augmented(strikes, prices)
    return np.interp(k, strikes, prices, right=0.0)


def check_lemma_identity(marginal, strikes, prices, k):
    """| sum (x-k)+ d(marginal) - price curve at k |."""
    lhs = float(np.maximum(marginal.theta.strikes - k, 0.0) @ marginal.weights)
    rhs = float(pricing_function(strikes, prices, k))
    return abs(lhs - rhs)
