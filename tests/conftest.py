"""Shared fixtures: synthetic surfaces and randomized projection instances."""

import numpy as np
import pytest

from volrepair.market_data import (
    MarketCurve,
    NormalizedSurface,
    OptionQuote,
    StressScenario,
    apply_stress,
    bs_call_price,
)
from volrepair.repair import RepairConfig, prepare_projection


def make_surface(maturities, strikes_list, vol_fns, forward=100.0, discount=0.99):
    """Arbitrage-free synthetic surface priced from smooth smiles."""
    ks_t, cs_t = [], []
    for t, ks, vf in zip(maturities, strikes_list, vol_fns):
        ks = np.asarray(ks, dtype=float)
        cs = np.array([bs_call_price(float(k), vf(float(k)), t) for k in ks])
        ks_t.append(ks)
        cs_t.append(cs)
    n = len(maturities)
    return NormalizedSurface(
        tuple(maturities),
        tuple(ks_t),
        tuple(cs_t),
        (forward,) * n,
        (discount,) * n,
    )


def denormalize(surface):
    """Inverse of ``normalize``; puts are synthesized from parity."""
    quotes = []
    for i, t in enumerate(surface.maturities):
        f, d = surface.forwards[i], surface.discounts[i]
        for k, c in zip(surface.strikes[i], surface.prices[i]):
            strike = float(k) * f
            call = float(c) * f * d
            put = call - d * (f - strike)
            quotes.append(OptionQuote(t, strike, call, put, volume=1.0))
    curve = MarketCurve(surface.maturities, surface.forwards, surface.discounts)
    return quotes, curve


DESK_STRIKES = [0.85, 0.90, 0.95, 0.975, 1.0, 1.025, 1.05, 1.10]


@pytest.fixture
def desk_surface():
    """m=1 desk fixture: 8 strikes, l = 10 after adding 0 and k_max."""
    return make_surface([0.16], [DESK_STRIKES], [lambda k: 0.2 + 0.35 * (k - 1) ** 2])


@pytest.fixture
def desk_stressed(desk_surface):
    """ATM band +20%: the paper-style butterfly stress (creates arbitrage)."""
    scen = StressScenario(bands={0: (((0.975, 1.025), 1.2),)})
    return apply_stress(desk_surface, scen)


TWO_MAT_STRIKES = [0.90, 0.95, 1.0, 1.05, 1.10]


@pytest.fixture
def two_maturity_surface():
    return make_surface(
        [0.16, 0.24],
        [TWO_MAT_STRIKES, TWO_MAT_STRIKES],
        [lambda k: 0.20 + 0.40 * (k - 1) ** 2, lambda k: 0.22 + 0.32 * (k - 1) ** 2],
    )


@pytest.fixture
def within_tol_surface():
    """m=1, its quote at k = 1.0 5e-9 above the chord of its neighbours:
    within the detector's price tol of a martingale, though the butterfly
    there is -2e-7 in slope units."""
    prices = [0.12, 0.08, 0.05 + 5e-9, 0.02, 0.005]
    return NormalizedSurface(
        (0.5,), (np.array(TWO_MAT_STRIKES),), (np.array(prices),), (1.0,), (1.0,)
    )


@pytest.fixture
def calendar_only_surface():
    """Far smile flattened low: each smile clean alone, calendar broken."""
    return make_surface(
        [0.16, 0.24],
        [TWO_MAT_STRIKES, TWO_MAT_STRIKES],
        [lambda k: 0.20 + 0.40 * (k - 1) ** 2, lambda k: 0.15],
    )


def random_instance(rng, m=1, max_interior=4, stress=True):
    """Random surface, stressed until it genuinely carries arbitrage.

    Strike count keeps l <= 6 so dense reference algorithms stay fast.
    """
    from volrepair.constraints import _smile_violations

    n_strikes = int(rng.integers(2, max_interior + 1))
    ks = np.sort(rng.uniform(0.8, 1.2, size=n_strikes))
    while np.min(np.diff(ks, prepend=0.0)) < 0.03:
        ks = np.sort(rng.uniform(0.8, 1.2, size=n_strikes))
    maturities = [0.16, 0.24][:m]
    base_vol = rng.uniform(0.15, 0.3)
    curv = rng.uniform(0.1, 0.5)
    vol_fns = [
        (lambda shift: (lambda k: base_vol + shift + curv * (k - 1) ** 2))(0.02 * i)
        for i in range(m)
    ]
    surface = make_surface(maturities, [ks] * m, vol_fns)
    if stress:
        node = float(ks[int(rng.integers(0, n_strikes))])
        mult = float(rng.uniform(1.3, 1.6))
        while True:
            scen = StressScenario(
                bands={i: (((node - 1e-9, node + 1e-9), mult),) for i in range(m)}
            )
            stressed = apply_stress(surface, scen)
            if _smile_violations(stressed, 1e-8):
                return stressed
            mult *= 1.25
            if mult > 20.0:
                raise AssertionError("could not provoke arbitrage on instance")
    return surface


def convex_ordered_pair(rng, n):
    """A grid x of n knots from 0, mu_from on it, and mu_from K for a random
    martingale kernel K: each row keeps its point or spreads it to two
    others around it with the same mean."""
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 3.0, n - 1))])
    mu_from = rng.dirichlet(np.ones(n))
    kernel = np.zeros((n, n))
    for i in range(n):
        lo, hi = int(rng.integers(0, i + 1)), int(rng.integers(i, n))
        stay = rng.uniform() if lo < i < hi else 1.0
        kernel[i, i] += stay
        if stay < 1.0:
            w_hi = (x[i] - x[lo]) / (x[hi] - x[lo])
            kernel[i, hi] += (1.0 - stay) * w_hi
            kernel[i, lo] += (1.0 - stay) * (1.0 - w_hi)
    return x, mu_from, mu_from @ kernel


def prepared(surface, **config_kwargs):
    return prepare_projection(surface, RepairConfig(**config_kwargs))
