"""Linear systems for martingale measures and the static-arbitrage detector.

The martingale set on the path space is {mu >= 0, A mu = b} with one mass
row, one centering row, and one zero-mean increment row per conditioning
prefix; calibration appends one row per pinned price. The repair solvers
work on that system.

The detector does not: it decides in closed form. A martingale on the
grid's path space reprices every quote iff marginals mu_1..mu_m exist with
unit mass and mean that reprice the quotes and increase in convex order
(Strassen). In call prices C_i(k) = sum_j (theta_j - k)+ mu_i(theta_j): each
C_i is convex with slopes in [-1, 0] through (0, 1), its quotes and
(k_max, 0), and C_i <= C_{i+1} (Carr & Madan 2005; Davis & Hobson 2007).
Such C_i are closed under max, so the greatest one below a bound is the
bound's lower convex hull: the backward pass takes C_i as the hull of
min(chord_i, C_{i+1}) lifted to at least 1 - k (which keeps the slopes in
[-1, 0]), and the surface is feasible iff every C_i meets its fixed points.
(No forward pass works: convex interpolants have no least one.) That pass
alone gives the verdict; the smile and calendar checks at the quoted nodes
run only on a failure, to name it. The marginals, the slope steps of the
C_i, are the certificate that :func:`martingale_chain` turns into a
path-space martingale, one closed-form stopped mean-preserving walk per
adjacent pair (Chacon & Walsh 1976).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCalibrationError, DuplicateConstraintError, SolverError
from .grid import (
    CalibrationTarget,
    DEFAULT_KMAX_MARGIN,
    Theta,
    build_theta,
    choose_kmax,
    path_components,
)
from .market_data import NormalizedSurface
from .signed_measure import SignedMarginal

DETECT_TOL = 1e-8  # the backward pass's price tolerance; the node checks reuse it


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality system A mu = b over the path space, with per-row tags."""

    A: np.ndarray
    b: np.ndarray
    row_kinds: tuple[tuple, ...]
    theta: Theta
    m: int

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)
        if a.shape[0] != b.size or a.shape[0] != len(self.row_kinds):
            raise ValueError("row count mismatch between A, b and row_kinds")
        norms = np.max(np.abs(a), axis=1) if a.shape[0] else np.array([])
        if a.shape[0] and norms.min() == 0.0:
            raise ValueError("constraint system contains a zero row")

    @property
    def n_rows(self) -> int:
        return int(self.A.shape[0])

    @property
    def n_paths(self) -> int:
        return int(self.A.shape[1])


@dataclass(frozen=True)
class Violation:
    kind: str  # monotonicity | convexity | calendar | bounds | lp_infeasible
    location: tuple
    magnitude: float


@dataclass(frozen=True)
class ArbitrageReport:
    feasible: bool
    violations: tuple[Violation, ...] = ()
    # False exactly when the node checks named the violations; True when the
    # backward pass's verdict stands alone (feasible, or lp_infeasible)
    lp_checked: bool = False
    # when the backward pass found the surface feasible: its grid and the
    # (m, L) marginals that reprice every quote and increase in convex order
    certificate: tuple[Theta, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def to_json_dict(self, surface: NormalizedSurface | None = None) -> dict:
        rows = []
        for v in self.violations:
            entry = {
                "kind": v.kind,
                "location": list(np.ravel(np.asarray(v.location, dtype=object))),
                "magnitude": v.magnitude,
            }
            if surface is not None and v.kind != "calendar":  # (i, strikes)
                i = v.location[0]
                f = surface.forwards[i]
                entry["original_units"] = {
                    "maturity_years": surface.maturities[i],
                    "strikes": [float(k) * f for k in np.atleast_1d(v.location[1])],
                }
            rows.append(entry)
        return {
            "feasible": self.feasible,
            "lp_checked": self.lp_checked,
            "violations": rows,
        }


def build_martingale_system(theta: Theta, m: int) -> ConstraintSystem:
    """Mass, centering and per-prefix zero-mean-increment rows."""
    if m < 1:
        raise ValueError("need at least one period")
    l = theta.l  # noqa: E741
    idx = path_components(l, m)
    n = idx.shape[0]
    k = theta.strikes

    n_mart = (n - l) // (l - 1) if l > 1 else 0
    rows = 2 + n_mart
    a = np.zeros((rows, n))
    b = np.zeros(rows)
    kinds: list[tuple] = [("mass",), ("centering",)]
    a[0] = 1.0
    b[0] = 1.0
    a[1] = k[idx[:, 0]]
    b[1] = 1.0
    offset = 2
    for level in range(1, m):
        prefix_id = np.arange(n) // l ** (m - level)  # first `level` digits
        coeff = k[idx[:, level]] - k[idx[:, level - 1]]
        a[offset + prefix_id, np.arange(n)] = coeff
        prefixes = (path_components(l, level) + 1).tolist()
        kinds += [("martingality", level, tuple(p)) for p in prefixes]
        offset += l**level
    return ConstraintSystem(A=a, b=b, row_kinds=tuple(kinds), theta=theta, m=m)


def build_calibrated_system(
    base: ConstraintSystem, calibration: list[CalibrationTarget], theta: Theta
) -> ConstraintSystem:
    """Append one (k_path_i - strike)+ pricing row per calibrated node."""
    if not calibration:
        return base
    seen = set()
    for i, strike, _ in calibration:
        key = (i, round(float(strike), 15))
        if key in seen:
            raise DuplicateConstraintError(f"calibration node {key} supplied twice")
        seen.add(key)
    idx = path_components(theta.l, base.m)
    k = theta.strikes
    new_rows, new_b, new_kinds = [], [], []
    for i, strike, price in calibration:
        if not 0 <= i < base.m:
            raise IndexError(f"maturity index {i} outside [0, {base.m})")
        new_rows.append(np.maximum(k[idx[:, i]] - float(strike), 0.0))
        new_b.append(float(price))
        new_kinds.append(("calibration", i, float(strike)))
    return ConstraintSystem(
        A=np.vstack([base.A, np.array(new_rows)]),
        b=np.concatenate([base.b, np.array(new_b)]),
        row_kinds=base.row_kinds + tuple(new_kinds),
        theta=theta,
        m=base.m,
    )


def build_joint_system(
    base: ConstraintSystem, marginals: list[SignedMarginal]
) -> ConstraintSystem:
    """Martingality plus marginal-fixing rows, stacked as they are.

    Mass and centering rows are dropped (implied by the marginal rows since
    each signed marginal has unit mass and unit mean). The remaining rows
    are still linearly dependent for m >= 2; the least-squares lift in
    :func:`~volrepair.signed_measure.build_joint` does not need them reduced.
    """
    theta, m = base.theta, base.m
    l = theta.l  # noqa: E741
    if len(marginals) != m:
        raise ValueError(f"expected {m} marginals, got {len(marginals)}")
    idx = path_components(l, m)
    mart = [r for r, kind in enumerate(base.row_kinds) if kind[0] == "martingality"]
    rows = [base.A[r] for r in mart]
    rhs = [base.b[r] for r in mart]
    kinds = [base.row_kinds[r] for r in mart]
    for i, marg in enumerate(marginals):
        for p_i in range(l):
            rows.append((idx[:, i] == p_i).astype(float))
            rhs.append(float(marg.weights[p_i]))
            kinds.append(("marginal", i + 1, p_i + 1))
    return ConstraintSystem(
        A=np.array(rows),
        b=np.array(rhs),
        row_kinds=tuple(kinds),
        theta=theta,
        m=m,
    )


def _smile_violations(surface: NormalizedSurface, tol: float) -> list[Violation]:
    out = []
    for i in range(surface.n_maturities):
        ks = np.concatenate([[0.0], surface.strikes[i]])
        cs = np.concatenate([[1.0], surface.prices[i]])
        for j in range(1, ks.size):
            k, c = ks[j], cs[j]
            lower = max(1.0 - k, 0.0)
            if c < lower - tol:
                out.append(Violation("bounds", (i, k), float(lower - c)))
            if c > 1.0 + tol:
                out.append(Violation("bounds", (i, k), float(c - 1.0)))
        dc = np.diff(cs)
        dk = np.diff(ks)
        for j in range(dc.size):
            if dc[j] > tol:
                out.append(
                    Violation("monotonicity", (i, (ks[j], ks[j + 1])), float(dc[j]))
                )
            if -dc[j] - dk[j] > tol:
                out.append(
                    Violation("bounds", (i, (ks[j], ks[j + 1])), float(-dc[j] - dk[j]))
                )
        slopes = dc / dk
        butterfly = np.diff(slopes)
        for j in range(butterfly.size):
            if butterfly[j] < -tol:
                out.append(
                    Violation("convexity", (i, ks[j + 1]), float(-butterfly[j]))
                )
    return out


def _calendar_violations(surface: NormalizedSurface, tol: float) -> list[Violation]:
    out = []
    for i in range(surface.n_maturities - 1):
        ks_next = np.concatenate([[0.0], surface.strikes[i + 1]])
        cs_next = np.concatenate([[1.0], surface.prices[i + 1]])
        top = float(surface.strikes[i + 1][-1])
        for k, c in zip(surface.strikes[i], surface.prices[i]):
            if k > top:  # avoid extrapolating the later smile
                continue
            later = float(np.interp(k, ks_next, cs_next))
            if c - later > tol:
                out.append(Violation("calendar", ((i, i + 1), float(k)), float(c - later)))
    return out


def all_node_targets(surface: NormalizedSurface) -> list[CalibrationTarget]:
    return [
        (i, float(k), float(c))
        for i in range(surface.n_maturities)
        for k, c in zip(surface.strikes[i], surface.prices[i])
    ]


def _detector_grid(
    surface: NormalizedSurface, kmax_margin: float
) -> tuple[list[CalibrationTarget], Theta]:
    """Every quote as a pricing target, and the grid the detector checks on.

    k_max treats the quotes as calibration targets, falling back to the
    uncalibrated bound when they are degenerate.
    """
    targets = all_node_targets(surface)
    try:
        k_max = choose_kmax(surface, targets, margin=kmax_margin)
    except DegenerateCalibrationError:
        k_max = choose_kmax(surface, margin=kmax_margin)
    return targets, build_theta(surface, k_max)


def _lower_hull(x: np.ndarray, u: np.ndarray) -> tuple[list[int], list[float]]:
    """Vertices of the greatest convex minorant of u on the knots x and its
    slopes (Andrew's monotone chain). The kept slopes are the very numbers
    compared, so they strictly increase in floating point.
    """
    verts: list[int] = [0]
    slopes: list[float] = []
    for j in range(1, x.size):
        s = (u[j] - u[verts[-1]]) / (x[j] - x[verts[-1]])
        while slopes and slopes[-1] >= s:
            slopes.pop()
            verts.pop()
            s = (u[j] - u[verts[-1]]) / (x[j] - x[verts[-1]])
        verts.append(j)
        slopes.append(s)
    return verts, slopes


def _backward_pass(
    surface: NormalizedSurface, kmax_margin: float, tol: float
) -> ArbitrageReport:
    """The backward hull pass. Each bound is lifted to at least 1 - k, so every
    C_i has C_i(0) = 1 and slopes in [-1, 0], and its slope steps are exact
    martingale marginals in convex order. Feasible, with those marginals as
    the certificate, when every C_i meets its quotes and (k_max, 0) within
    ``tol``; else the first failing step's ``lp_infeasible`` violation at its
    worst fixed point.
    """
    _, theta = _detector_grid(surface, kmax_margin)
    x = theta.strikes
    marginals = np.zeros((surface.n_maturities, theta.l))
    later = np.full(theta.l, np.inf)
    for i in range(surface.n_maturities - 1, -1, -1):
        ks = np.r_[0.0, surface.strikes[i], x[-1]]
        cs = np.r_[1.0, surface.prices[i], 0.0]
        u = np.maximum(np.minimum(np.interp(x, ks, cs), later), 1.0 - x)
        verts, slopes = _lower_hull(x, u)
        later = np.interp(x, x[verts], u[verts])
        gaps = np.abs(np.interp(ks, x, later) - cs)
        worst = int(np.argmax(gaps))
        if gaps[worst] > tol:
            failure = Violation("lp_infeasible", (i, float(ks[worst])), float(gaps[worst]))
            return ArbitrageReport(feasible=False, violations=(failure,), lp_checked=True)
        # mass only on hull vertices: the slope steps, with slope -1 before 0
        # and 0 after k_max; the first step can round to -1e-16
        marginals[i, verts] = np.maximum(np.diff(np.r_[-1.0, slopes, 0.0]), 0.0)
    return ArbitrageReport(feasible=True, lp_checked=True, certificate=(theta, marginals))


def _walk_kernel(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, float]:
    """The stopped mean-preserving nearest-neighbour walk from lo to hi on x
    (Chacon & Walsh 1976) as a kernel K with lo K = hi, and its residual.

    With the call-price gap h_l = sum_j (x_j - x_l)+ (hi - lo)_j, the walk
    takes c_l = h_l (1/(x_l - x_{l-1}) + 1/(x_{l+1} - x_l)) steps from knot l
    and stops there with probability hi_l / (hi_l + c_l). K comes from
    first-passage recursions that never subtract, so K 1 = 1 and K x = x to
    rounding even where knots nearly touch. The residual (mass and mean gaps,
    -min h, |lo K - hi|) is 0 in convex order.
    """
    n = x.size
    gap = np.maximum(x[None, :] - x[:, None], 0.0) @ (hi - lo)
    h = np.r_[0.0, np.maximum(gap[1:-1], 0.0), 0.0]
    # expected stops and steps down and up at each knot, up to a per-knot scale
    stop = np.where(hi + h > 0, hi, 1.0)
    down, up = h / np.r_[1.0, np.diff(x)], h / np.r_[np.diff(x), 1.0]
    # reach[a, b]: the chance to reach b from a before stopping; no_rise[k]
    # (no_fall[k]): the chance never to reach k + 1 (k - 1) from k
    reach, no_rise, no_fall = np.eye(n), np.ones(n), np.ones(n)
    for k in range(1, n - 1):
        d = stop[k] + up[k] + down[k] * no_rise[k - 1]
        no_rise[k] = (stop[k] + down[k] * no_rise[k - 1]) / d
        reach[: k + 1, k + 1] = reach[: k + 1, k] * (up[k] / d)
    for k in range(n - 2, 0, -1):
        d = stop[k] + down[k] + up[k] * no_fall[k + 1]
        no_fall[k] = (stop[k] + up[k] * no_fall[k + 1]) / d
        reach[k:, k - 1] = reach[k:, k] * (down[k] / d)
    escape = stop + down * np.r_[1.0, no_rise[:-1]] + up * np.r_[no_fall[1:], 1.0]
    kernel = reach * (stop / escape)
    off = np.abs([hi.sum() - lo.sum(), x @ (hi - lo), *(lo @ kernel - hi)])
    return kernel, float(max(off.max(), -gap.min()))


def martingale_chain(theta: Theta, marginals: np.ndarray) -> np.ndarray:
    """A path-space martingale with the given marginals, path-major.

    ``marginals`` (m, L) must have equal means and increase in convex order,
    as the detector's certificate does. The measure is the Markov chain
    mu_1 (x) K_1 (x) ... (x) K_{m-1} of the walk kernels from mu_i to mu_{i+1}.
    """
    l = theta.l  # noqa: E741
    mu = marginals[0].copy()
    for i, (lo, hi) in enumerate(zip(marginals[:-1], marginals[1:]), start=1):
        kernel, residual = _walk_kernel(theta.strikes, lo, hi)
        if residual > 1e-9:
            raise SolverError(
                f"no martingale kernel from period {i} to {i + 1} (residual {residual:.3g})"
            )
        mu = (mu.reshape(-1, l, 1) * kernel).reshape(-1)
    return mu


def detect_arbitrage(
    surface: NormalizedSurface,
    tol: float = DETECT_TOL,
    kmax_margin: float = DEFAULT_KMAX_MARGIN,
) -> ArbitrageReport:
    """The backward hull pass's verdict within ``tol``, with its marginals as
    the ``certificate`` when feasible.

    A failure is named by the smile and calendar checks at the quoted nodes
    (bounds, monotonicity, convexity, calendar); when they find nothing, by
    the pass's first failing step, one ``lp_infeasible`` violation at
    (maturity index, strike) with the step's gap as magnitude. Convexity
    magnitudes are butterflies in slope units: labels, not verdicts.
    """
    report = _backward_pass(surface, kmax_margin, tol)
    if report.feasible:
        return report
    violations = _smile_violations(surface, tol) + _calendar_violations(surface, tol)
    if violations:
        return ArbitrageReport(feasible=False, violations=tuple(violations))
    return report
