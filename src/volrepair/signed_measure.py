"""Signed marginals from call prices and the joint signed measure.

A smile with arbitrage still defines a unit-mass discrete measure through
the second differences of its piecewise-linear price curve; the weights just
may go negative. The joint measure ties the per-maturity marginals together
as the signed martingale closest to their product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import SolverError
from .grid import Theta, extract_marginal

DEFAULT_SHIFT = 1e-3
RESIDUAL_TOL = 1e-9  # largest marginal or system residual the lift may leave


@dataclass(frozen=True)
class SignedMarginal:
    """Unit-mass signed weights on the common grid (zero off support)."""

    theta: Theta
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.theta.l,):
            raise ValueError("weights must align with the grid")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"marginal mass {total} != 1")


@dataclass(frozen=True)
class JointSignedMeasure:
    """Weight vector on the path space with a strictly positive split."""

    nu: np.ndarray
    nu_plus: np.ndarray
    nu_minus: np.ndarray

    def __post_init__(self):
        for name in ("nu", "nu_plus", "nu_minus"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if not (self.nu.shape == self.nu_plus.shape == self.nu_minus.shape):
            raise ValueError("component shapes disagree")
        if not (np.all(self.nu_plus > 0) and np.all(self.nu_minus > 0)):
            raise ValueError("decomposition must be strictly positive")
        if np.max(np.abs(self.nu_plus - self.nu_minus - self.nu)) > 1e-12:
            raise ValueError("decomposition does not reconstruct nu")

    @property
    def alpha(self) -> float:
        """Total transported mass, the L1 norm of the positive part."""
        return float(self.nu_plus.sum())


def _validate_augmented(strikes, prices):
    strikes = np.asarray(strikes, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if strikes.ndim != 1 or strikes.shape != prices.shape or strikes.size < 2:
        raise ValueError("need matching 1-d augmented strike/price vectors")
    if np.any(np.diff(strikes) <= 0):
        raise ZeroDivisionError("duplicate or unsorted strikes in augmented data")
    if strikes[0] != 0.0 or prices[0] != 1.0:
        raise ValueError("augmented data must start at (0, 1)")
    if prices[-1] != 0.0:
        raise ValueError("augmented data must end at price 0")
    return strikes, prices


def marginal_weights(strikes, prices, theta: Theta) -> SignedMarginal:
    """Second differences of the price curve, placed on the common grid.

    Input vectors are augmented: (0, 1) first, (k_max, 0) last. The first
    weight gets the extra +1 from the cash position, the last one the
    negated final slope; interior weights are slope differences.
    """
    strikes, prices = _validate_augmented(strikes, prices)
    slopes = np.diff(prices) / np.diff(strikes)
    w = np.empty(strikes.size)
    w[0] = 1.0 + slopes[0]
    w[1:-1] = slopes[1:] - slopes[:-1]
    w[-1] = -slopes[-1]
    out = np.zeros(theta.l)
    for k, weight in zip(strikes, w):
        out[theta.index_of(float(k))] += weight
    return SignedMarginal(theta=theta, weights=out)


def product_target(marginals: list[SignedMarginal]) -> np.ndarray:
    """Flattened tensor product of the marginal weights, path-major order."""
    out = marginals[0].weights
    for marg in marginals[1:]:
        out = np.multiply.outer(out, marg.weights)
    return out.reshape(-1)


def decompose(nu: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Split nu = nu_plus - nu_minus with both parts strictly positive.

    The same shift is added to both parts; strict positivity of the negative
    part is what guarantees the scalar root-finds in the scaling algorithm
    have solutions.
    """
    if not shift > 0:
        raise ValueError(f"shift must be > 0, got {shift}")
    nu = np.asarray(nu, dtype=float)
    nu_plus = np.maximum(nu, 0.0) + shift
    nu_minus = np.maximum(-nu, 0.0) + shift
    return nu_plus, nu_minus


def build_joint(
    marginals: list[SignedMarginal],
    system,
    shift: float = DEFAULT_SHIFT,
) -> JointSignedMeasure:
    """Signed martingale with the given marginals, closest to their product.

    ``system`` is the joint constraint system (anything exposing ``A`` and
    ``b``); its rows may be linearly dependent. The product measure is
    moved onto the system by the minimum-norm correction
    (:func:`~volrepair.lp.solve_eq_lsq`), then split into positive parts.
    """
    a_joint = np.atleast_2d(np.asarray(system.A, dtype=float))
    b_joint = np.asarray(system.b, dtype=float)
    target = product_target(marginals)
    nu = lp.solve_eq_lsq(a_joint, b_joint, target)

    l = marginals[0].theta.l  # noqa: E741
    m = len(marginals)
    for i, marg in enumerate(marginals):
        err = float(np.max(np.abs(extract_marginal(nu, l, m, i + 1) - marg.weights)))
        if err > RESIDUAL_TOL:
            raise SolverError(
                f"joint measure marginal {i + 1} off by {err}"
            )
    sys_err = float(np.max(np.abs(a_joint @ nu - b_joint)))
    if sys_err > RESIDUAL_TOL:
        raise SolverError(f"joint system residual {sys_err}")

    nu_plus, nu_minus = decompose(nu, shift)
    return JointSignedMeasure(nu=nu, nu_plus=nu_plus, nu_minus=nu_minus)
