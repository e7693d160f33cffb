"""Common strike grid, path indexing on its m-fold product, marginals, distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCalibrationError, InvalidKmaxError
from .market_data import NormalizedSurface

DEDUP_RTOL = 1e-12
DEFAULT_KMAX_MARGIN = 0.1

# (maturity index, strike, price) naming one calibrated node
CalibrationTarget = tuple[int, float, float]


@dataclass(frozen=True)
class Theta:
    """Sorted strike set with 0 prepended and the chosen upper bound last."""

    strikes: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.strikes, dtype=float)
        object.__setattr__(self, "strikes", ks)
        if ks.ndim != 1 or ks.size < 2:
            raise ValueError("theta needs at least the endpoints 0 and k_max")
        if ks[0] != 0.0:
            raise ValueError("theta must start at 0")
        if not np.all(np.diff(ks) > 0):
            raise ValueError("theta strikes must be strictly increasing")

    @property
    def l(self) -> int:  # noqa: E743 - matches the grid-size naming used throughout
        return int(self.strikes.size)

    @property
    def k_max(self) -> float:
        return float(self.strikes[-1])

    def index_of(self, k: float) -> int:
        """Position of a strike already known to be on the grid."""
        j = int(np.searchsorted(self.strikes, k))
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < self.l and abs(self.strikes[cand] - k) <= DEDUP_RTOL * max(
                1.0, abs(k)
            ):
                return cand
        raise KeyError(f"strike {k} is not on the grid")


def build_theta(surface: NormalizedSurface, k_max: float) -> Theta:
    """Union of all quoted strikes, deduplicated, with 0 and k_max added."""
    all_strikes = np.concatenate([np.asarray(ks) for ks in surface.strikes])
    top = float(all_strikes.max())
    if k_max <= top * (1 + DEDUP_RTOL):
        raise InvalidKmaxError(f"k_max {k_max} must exceed the largest strike {top}")
    merged = [0.0]
    for k in np.sort(all_strikes):
        if k - merged[-1] > DEDUP_RTOL * max(1.0, k):
            merged.append(float(k))
    merged.append(float(k_max))
    return Theta(np.array(merged))


def choose_kmax(
    surface: NormalizedSurface,
    calibration: list[CalibrationTarget] | None = None,
    margin: float = DEFAULT_KMAX_MARGIN,
) -> float:
    """Upper grid bound guaranteeing a calibrating martingale exists.

    Without calibration the bound is (1+margin) * max(1, largest strike).
    With calibration the augmented sub-grid (including the cash node (0, 1))
    determines the steepest admissible slope a < 0, and the bound pushes past
    the x-intercept implied by each maturity's last calibrated node.
    """
    if margin <= 0:
        raise ValueError(f"margin must be > 0, got {margin}")
    top = surface.max_strike()
    if not calibration:
        return (1.0 + margin) * max(1.0, top)

    by_maturity: dict[int, list[tuple[float, float]]] = {}
    for i, k, c in calibration:
        by_maturity.setdefault(i, []).append((float(k), float(c)))
    points = {(0.0, 1.0)}
    for pts in by_maturity.values():
        points.update(pts)
    pts = sorted(points)
    quotients = [
        (c2 - c1) / (k2 - k1)
        for a_, (k1, c1) in enumerate(pts)
        for (k2, c2) in pts[a_ + 1 :]
        if k2 > k1
    ]
    negative = [q for q in quotients if q < 0]
    if not negative:
        raise DegenerateCalibrationError(
            "no negative difference quotient in the calibration sub-grid"
        )
    a = max(negative)
    bounds = []
    for pts_i in by_maturity.values():
        k_last, c_last = max(pts_i)
        bounds.append(k_last - (2.0 / a) * c_last)
    return (1.0 + margin) * max(top, max(bounds))


def path_components(l: int, m: int) -> np.ndarray:  # noqa: E741
    """(L^m, m) array of 0-based strike indices per path, path-major order.

    Path p (0-based) is the base-L expansion of p, the first period being
    the most significant digit.
    """
    return np.indices((l,) * m).reshape(m, -1).T


def extract_marginal(mu: np.ndarray, l: int, m: int, period: int) -> np.ndarray:  # noqa: E741
    """Sum the path-space measure over every index except the given period."""
    if not 1 <= period <= m:
        raise IndexError(f"period {period} outside [1, {m}]")
    tensor = np.asarray(mu, dtype=float).reshape((l,) * m)
    axes = tuple(ax for ax in range(m) if ax != period - 1)
    return tensor.sum(axis=axes) if axes else tensor


def distance_matrix(theta: Theta, m: int) -> np.ndarray:
    """Pairwise Euclidean distances between the paths of Theta^m."""
    pts = theta.strikes[path_components(theta.l, m)]
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))
