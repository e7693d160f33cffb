"""Market data ingestion, normalization and vol-space stress scenarios.

All prices handled here are European call mids. Normalization divides strikes
by the forward and prices by forward times discount, so downstream modules
only ever see dimensionless (moneyness, price) pairs with unit forward.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateParityError,
    EmptyInputError,
    InsufficientDataError,
    InvalidPriceError,
    PriceOutOfBandError,
    QuoteParseError,
    SolverError,
)

QUOTE_HEADER = ["maturity_years", "strike", "call_mid", "put_mid", "volume"]


@dataclass(frozen=True)
class OptionQuote:
    """One raw call (and optional put) quote in currency units."""

    maturity_years: float
    strike: float
    call_mid: float
    put_mid: float | None = None
    volume: float = 0.0

    def __post_init__(self):
        for name in ("maturity_years", "strike", "call_mid", "put_mid", "volume"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.maturity_years > 0:
            raise ValueError(f"maturity_years must be > 0, got {self.maturity_years}")
        if not self.strike > 0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if self.call_mid < 0:
            raise ValueError(f"call_mid must be >= 0, got {self.call_mid}")
        if self.volume < 0:
            raise ValueError(f"volume must be >= 0, got {self.volume}")


@dataclass(frozen=True)
class MarketCurve:
    """Forward and discount factor per maturity."""

    maturities: tuple[float, ...]
    forwards: tuple[float, ...]
    discounts: tuple[float, ...]

    def __post_init__(self):
        for f, d in zip(self.forwards, self.discounts):
            if not f > 0:
                raise ValueError(f"forward must be > 0, got {f}")
            if not 0 < d <= 1.05:
                raise ValueError(f"discount must be in (0, 1.05], got {d}")

    def lookup(self, maturity: float) -> tuple[float, float]:
        for t, f, d in zip(self.maturities, self.forwards, self.discounts):
            if abs(t - maturity) <= 1e-12 * max(1.0, abs(maturity)):
                return f, d
        raise KeyError(f"curve does not cover maturity {maturity}")


@dataclass(frozen=True)
class NormalizedSurface:
    """Normalized call surface: strictly increasing strikes per maturity.

    ``strikes[i]`` and ``prices[i]`` are the moneyness/price arrays for
    ``maturities[i]``; grids may differ between maturities. Forwards and
    discounts are kept so original currency units can be recovered.
    """

    maturities: tuple[float, ...]
    strikes: tuple[np.ndarray, ...]
    prices: tuple[np.ndarray, ...]
    forwards: tuple[float, ...]
    discounts: tuple[float, ...]

    def __post_init__(self):
        if not all(
            t1 < t2 for t1, t2 in zip(self.maturities, self.maturities[1:])
        ):
            raise ValueError("maturities must be strictly increasing")
        if not (
            len(self.strikes)
            == len(self.prices)
            == len(self.forwards)
            == len(self.discounts)
            == len(self.maturities)
        ):
            raise ValueError("per-maturity field lengths disagree")
        object.__setattr__(
            self, "strikes", tuple(np.asarray(ks, dtype=float) for ks in self.strikes)
        )
        object.__setattr__(
            self, "prices", tuple(np.asarray(cs, dtype=float) for cs in self.prices)
        )
        for ks, cs in zip(self.strikes, self.prices):
            if ks.shape != cs.shape or ks.ndim != 1 or ks.size == 0:
                raise ValueError("strike/price arrays must be matching 1-d arrays")
            if not np.all(ks > 0):
                raise ValueError("strikes must be positive")
            if not np.all(np.diff(ks) > 0):
                raise ValueError("strikes must be strictly increasing")
            if np.any(cs < 0):
                raise InvalidPriceError(f"negative normalized price {cs.min()}")

    @property
    def n_maturities(self) -> int:
        return len(self.maturities)

    def max_strike(self) -> float:
        return max(float(ks[-1]) for ks in self.strikes)

    def node(self, i: int, j: int) -> tuple[float, float]:
        return float(self.strikes[i][j]), float(self.prices[i][j])


Band = tuple[tuple[float, float], float]  # ((lo, hi), vol multiplier)


@dataclass(frozen=True)
class StressScenario:
    """Vol-space stress bands per maturity index plus calibration marks.

    ``bands[i]`` lists ``((lo, hi), multiplier)`` moneyness bands applied to
    maturity ``i``; bands within one maturity must be pairwise disjoint.
    ``calibration_marks`` are (maturity index, strike index) pairs naming the
    sub-grid whose prices a repair should match exactly.
    """

    bands: dict[int, tuple[Band, ...]] = field(default_factory=dict)
    calibration_marks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for i, bands in self.bands.items():
            spans = []
            for (lo, hi), mult in bands:
                if not lo <= hi:
                    raise ValueError(f"band ({lo}, {hi}) is empty")
                if not 0 < mult < math.inf:
                    raise ValueError(f"vol multiplier must be finite and > 0, got {mult}")
                spans.append((lo, hi))
            spans.sort()
            for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
                if lo2 <= hi1:
                    raise ValueError(
                        f"bands overlap within maturity {i}: ({lo1},{hi1}) and ({lo2},{hi2})"
                    )
        if len(set(self.calibration_marks)) != len(self.calibration_marks):
            raise ValueError("duplicate calibration marks")

    def multiplier_for(self, i: int, k: float) -> float:
        for (lo, hi), mult in self.bands.get(i, ()):
            if lo <= k <= hi:
                return mult
        return 1.0


def parse_quotes(data: bytes | str) -> list[OptionQuote]:
    """Parse the documented quote CSV; rows with zero volume are dropped."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    reader = csv.reader(io.StringIO(data))
    rows = [(n, row) for n, row in enumerate(reader, start=1) if row and any(row)]
    if not rows:
        raise EmptyInputError("quote file is empty")
    start = 0
    if [c.strip().lower() for c in rows[0][1]] == QUOTE_HEADER:
        start = 1
    quotes = []
    for line_no, row in rows[start:]:
        if len(row) != 5:
            raise QuoteParseError(line_no, f"expected 5 fields, got {len(row)}")
        try:
            maturity = float(row[0])
            strike = float(row[1])
            call_mid = float(row[2])
            put_mid = float(row[3]) if row[3].strip() != "" else None
            volume = float(row[4])
        except ValueError as exc:
            raise QuoteParseError(line_no, str(exc)) from exc
        if volume == 0:
            continue
        try:
            quotes.append(
                OptionQuote(maturity, strike, call_mid, put_mid, volume)
            )
        except ValueError as exc:
            raise QuoteParseError(line_no, str(exc)) from exc
    if not quotes:
        raise EmptyInputError("no quotes survived filtering")
    return quotes


def fit_forward_discount(
    quotes: list[OptionQuote], maturity: float
) -> tuple[float, float, float]:
    """Fit C - P = a + b K by least squares at one maturity.

    Parity gives b = -D and a = D F. Returns (forward, discount, residual)
    where residual is the RMS regression error. Quotes missing either leg
    are excluded.
    """
    pairs = [
        (q.strike, q.call_mid - q.put_mid)
        for q in quotes
        if abs(q.maturity_years - maturity) <= 1e-12 * max(1.0, abs(maturity))
        and q.put_mid is not None
    ]
    strikes = sorted({k for k, _ in pairs})
    if len(strikes) < 2:
        raise InsufficientDataError(
            f"need >= 2 distinct strikes with call and put mids at T={maturity}, "
            f"got {len(strikes)}"
        )
    k = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    # plain OLS on y = a + b k; a huge strike overflows it to inf or NaN,
    # which the range checks below reject
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kbar, ybar = k.mean(), y.mean()
        b = float(np.sum((k - kbar) * (y - ybar)) / np.sum((k - kbar) ** 2))
        a = float(ybar - b * kbar)
        residual = float(np.sqrt(np.mean((a + b * k - y) ** 2)))
    discount = -b
    if not 0 < discount <= 1.05:
        raise DegenerateParityError(
            f"parity slope {b} implies a discount outside (0, 1.05] at T={maturity}"
        )
    forward = a / discount
    if not (0 < forward < np.inf and residual < np.inf):
        raise DegenerateParityError(
            f"parity fit gave forward {forward}, residual {residual} at T={maturity}"
        )
    return forward, discount, residual


def fit_curve(quotes: list[OptionQuote]) -> MarketCurve:
    """Run the parity regression for every quoted maturity."""
    maturities = sorted({q.maturity_years for q in quotes})
    fits = [fit_forward_discount(quotes, t) for t in maturities]
    return MarketCurve(
        maturities=tuple(maturities),
        forwards=tuple(f for f, _, _ in fits),
        discounts=tuple(d for _, d, _ in fits),
    )


def normalize(quotes: list[OptionQuote], curve: MarketCurve) -> NormalizedSurface:
    """Map quotes to (moneyness, normalized price) space.

    Duplicate (maturity, strike) quotes are merged by arithmetic mid
    averaging before normalization. Strikes come out sorted.
    """
    maturities = sorted({q.maturity_years for q in quotes})
    strikes_out, prices_out, forwards, discounts = [], [], [], []
    for t in maturities:
        f, d = curve.lookup(t)
        at_t = [q for q in quotes if q.maturity_years == t]
        by_strike: dict[float, list[float]] = {}
        for q in at_t:
            key = next(
                (s for s in by_strike if abs(s - q.strike) <= 1e-12 * q.strike),
                q.strike,
            )
            by_strike.setdefault(key, []).append(q.call_mid)
        ks, cs = [], []
        for strike in sorted(by_strike):
            mid = float(np.mean(by_strike[strike]))
            c = mid / (f * d)
            if c <= 0:
                raise InvalidPriceError(
                    f"nonpositive normalized price {c} at (T={t}, K={strike})"
                )
            ks.append(strike / f)
            cs.append(c)
        strikes_out.append(np.array(ks))
        prices_out.append(np.array(cs))
        forwards.append(f)
        discounts.append(d)
    return NormalizedSurface(
        maturities=tuple(maturities),
        strikes=tuple(strikes_out),
        prices=tuple(prices_out),
        forwards=tuple(forwards),
        discounts=tuple(discounts),
    )


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def bs_call_price(k: float, vol: float, maturity: float) -> float:
    """Forward-normalized undiscounted Black-Scholes call value.

    Unit forward, strike expressed as moneyness: value lies strictly
    between intrinsic (1-k)+ and 1 for vol > 0.
    """
    if not vol > 0:
        raise ValueError(f"vol must be > 0, got {vol}")
    if not maturity > 0:
        raise ValueError(f"maturity must be > 0, got {maturity}")
    if not k > 0:
        raise ValueError(f"moneyness must be > 0, got {k}")
    s = vol * math.sqrt(maturity)
    d1 = -math.log(k) / s + 0.5 * s
    d2 = d1 - s
    return _norm_cdf(d1) - k * _norm_cdf(d2)


def bs_vega(k: float, vol: float, maturity: float) -> float:
    s = vol * math.sqrt(maturity)
    d1 = -math.log(k) / s + 0.5 * s
    return _norm_pdf(d1) * math.sqrt(maturity)


def implied_vol(
    k: float, price: float, maturity: float, tol: float = 1e-12
) -> float:
    """Invert :func:`bs_call_price` by safeguarded Newton with bisection.

    The price must lie strictly inside the static band ((1-k)+, 1); prices
    on a bound raise :class:`PriceOutOfBandError` carrying the bound.
    """
    intrinsic = max(1.0 - k, 0.0)
    if price <= intrinsic:
        raise PriceOutOfBandError(price, "lower", intrinsic)
    if price >= 1.0:
        raise PriceOutOfBandError(price, "upper", 1.0)
    lo, hi = 1e-6, 5.0
    # guarantee a bracket; extreme but valid prices may need vol > 5
    while bs_call_price(k, hi, maturity) < price:
        hi *= 2.0
        if hi > 512.0:
            raise PriceOutOfBandError(price, "upper", 1.0)
    if bs_call_price(k, lo, maturity) > price:
        lo = 1e-12
    sigma = min(max(price * math.sqrt(2.0 * math.pi / maturity), lo), hi)
    for _ in range(200):
        f = bs_call_price(k, sigma, maturity) - price
        if abs(f) <= tol:
            return sigma
        if f > 0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(k, sigma, maturity)
        candidate = sigma - f / vega if vega > 1e-14 else None
        if candidate is not None and lo < candidate < hi:
            sigma = candidate
        else:
            sigma = 0.5 * (lo + hi)
    f = bs_call_price(k, sigma, maturity) - price
    if abs(f) <= tol:
        return sigma
    raise SolverError(
        f"implied vol did not converge at (k={k}, price={price}, T={maturity})"
    )


def apply_stress(
    surface: NormalizedSurface, scenario: StressScenario
) -> NormalizedSurface:
    """Scale in-band implied vols and reprice; out-of-band nodes untouched.

    Nodes whose multiplier is exactly 1 are passed through bit-for-bit
    (no vol round trip).
    """
    new_prices = []
    for i, t in enumerate(surface.maturities):
        ks = surface.strikes[i]
        cs = np.array(surface.prices[i], dtype=float)
        for j, (k, c) in enumerate(zip(ks, cs)):
            mult = scenario.multiplier_for(i, float(k))
            if mult == 1.0:
                continue
            try:
                vol = implied_vol(float(k), float(c), t)
            except PriceOutOfBandError as exc:
                raise PriceOutOfBandError(
                    exc.price, exc.bound_kind, exc.bound_value,
                    location=(t, float(k)),
                ) from exc
            cs[j] = bs_call_price(float(k), vol * mult, t)
        new_prices.append(cs)
    return replace(surface, prices=tuple(new_prices))


def surface_vols(surface: NormalizedSurface) -> tuple[np.ndarray, ...]:
    """Implied vols per node; NaN where the price touches its band."""
    out = []
    for i, t in enumerate(surface.maturities):
        vols = np.full(len(surface.strikes[i]), np.nan)
        for j, (k, c) in enumerate(zip(surface.strikes[i], surface.prices[i])):
            intrinsic = max(1.0 - float(k), 0.0)
            if c - intrinsic <= 1e-10 or 1.0 - c <= 1e-10:
                continue
            vols[j] = implied_vol(float(k), float(c), t)
        out.append(vols)
    return tuple(out)

