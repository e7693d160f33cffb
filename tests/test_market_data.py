import numpy as np
import pytest

from volrepair.errors import (
    DegenerateParityError,
    EmptyInputError,
    InsufficientDataError,
    PriceOutOfBandError,
    QuoteParseError,
    SolverError,
)
from volrepair.market_data import (
    MarketCurve,
    NormalizedSurface,
    OptionQuote,
    StressScenario,
    apply_stress,
    bs_call_price,
    fit_forward_discount,
    implied_vol,
    normalize,
    parse_quotes,
)

from conftest import denormalize
from oracles import lognormal_call_quadrature


class TestParseQuotes:
    def test_header_and_row(self):
        data = b"maturity_years,strike,call_mid,put_mid,volume\n0.16,5800,120.5,95.2,10\n"
        quotes = parse_quotes(data)
        assert len(quotes) == 1
        q = quotes[0]
        assert q.maturity_years == 0.16
        assert q.strike == 5800
        assert q.call_mid == 120.5
        assert q.put_mid == 95.2
        assert q.volume == 10

    def test_zero_volume_dropped(self):
        data = b"0.16,5800,120.5,95.2,10\n0.16,5900,80.0,110.0,0\n"
        quotes = parse_quotes(data)
        assert [q.strike for q in quotes] == [5800]

    def test_malformed_row_reports_line(self):
        data = b"0.16,5800,120.5,95.2,10\n0.16,abc,1,1,5\n"
        with pytest.raises(QuoteParseError) as err:
            parse_quotes(data)
        assert err.value.line_no == 2

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            parse_quotes(b"")

    def test_empty_put_mid(self):
        quotes = parse_quotes(b"0.16,5800,120.5,,10\n")
        assert quotes[0].put_mid is None


class TestParityFit:
    def test_exact_recovery(self):
        f_true, d_true = 100.0, 0.99
        quotes = []
        for strike in (90.0, 100.0, 110.0):
            call = 7.0 + max(f_true - strike, 0.0) * 0.5
            put = call - d_true * (f_true - strike)
            quotes.append(OptionQuote(0.5, strike, call, put, 1.0))
        f, d, resid = fit_forward_discount(quotes, 0.5)
        assert abs(f - f_true) <= 1e-12 * f_true
        assert abs(d - d_true) <= 1e-12
        assert resid <= 1e-12

    def test_two_points_interpolate(self):
        quotes = [
            OptionQuote(1.0, 90.0, 12.0, 12.0 - 0.95 * 10.0, 1.0),
            OptionQuote(1.0, 110.0, 3.0, 3.0 + 0.95 * 10.0, 1.0),
        ]
        f, d, resid = fit_forward_discount(quotes, 1.0)
        assert abs(d - 0.95) <= 1e-12
        assert abs(f - 100.0) <= 1e-9
        assert resid <= 1e-12

    def test_single_strike_insufficient(self):
        quotes = [OptionQuote(1.0, 100.0, 5.0, 4.0, 1.0)] * 3
        with pytest.raises(InsufficientDataError):
            fit_forward_discount(quotes, 1.0)

    def test_flat_parity_degenerate(self):
        quotes = [
            OptionQuote(1.0, 90.0, 5.0, 3.0, 1.0),
            OptionQuote(1.0, 110.0, 4.0, 2.0, 1.0),
        ]
        with pytest.raises(DegenerateParityError):
            fit_forward_discount(quotes, 1.0)

    def test_call_only_quotes_excluded(self):
        quotes = [
            OptionQuote(1.0, 90.0, 12.0, None, 1.0),
            OptionQuote(1.0, 100.0, 6.0, 5.0, 1.0),
        ]
        with pytest.raises(InsufficientDataError):
            fit_forward_discount(quotes, 1.0)


class TestNormalize:
    def curve(self, f=100.0, d=1.0):
        return MarketCurve((1.0,), (f,), (d,))

    def test_unit_forward_discount(self):
        quotes = [OptionQuote(1.0, 100.0, 5.0, None, 1.0)]
        surf = normalize(quotes, self.curve())
        assert surf.strikes[0][0] == 1.0
        assert surf.prices[0][0] == 0.05

    def test_direct_formula(self):
        quotes = [OptionQuote(1.0, 110.0, 2.2, None, 1.0)]
        surf = normalize(quotes, self.curve(100.0, 0.99))
        assert abs(surf.strikes[0][0] - 1.1) <= 1e-15
        assert abs(surf.prices[0][0] - 2.2 / 99.0) <= 1e-15

    def test_duplicate_merge_by_mid(self):
        quotes = [
            OptionQuote(1.0, 100.0, 5.0, None, 1.0),
            OptionQuote(1.0, 100.0, 7.0, None, 2.0),
        ]
        surf = normalize(quotes, self.curve())
        assert len(surf.strikes[0]) == 1
        assert surf.prices[0][0] == 0.06

    def test_denormalize_round_trip(self, desk_surface):
        quotes, curve = denormalize(desk_surface)
        again = normalize(quotes, curve)
        for ks1, ks2 in zip(desk_surface.strikes, again.strikes):
            np.testing.assert_allclose(ks1, ks2, rtol=1e-14)
        for cs1, cs2 in zip(desk_surface.prices, again.prices):
            np.testing.assert_allclose(cs1, cs2, rtol=1e-14)


# frozen from tests/oracles.py lognormal_call_quadrature(1.0, 0.2, 1.0)
BS_ATM_02_1Y = 0.0796556745541

class TestBlackScholes:
    def test_atm_zero_vol_limit(self):
        assert bs_call_price(1.0, 1e-9, 1.0) <= 1e-9

    def test_deep_itm_limit(self):
        assert abs(bs_call_price(1e-12, 0.2, 1.0) - 1.0) <= 1e-9

    def test_against_quadrature_oracle(self):
        got = bs_call_price(1.0, 0.2, 1.0)
        assert abs(got - BS_ATM_02_1Y) <= 1e-10
        assert abs(got - lognormal_call_quadrature(1.0, 0.2, 1.0)) <= 1e-8

    def test_monotone_in_strike_and_vol(self):
        ks = np.linspace(0.5, 1.5, 21)
        prices = [bs_call_price(k, 0.25, 0.5) for k in ks]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        vols = np.linspace(0.05, 1.0, 20)
        prices_v = [bs_call_price(1.1, v, 0.5) for v in vols]
        assert all(a < b for a, b in zip(prices_v, prices_v[1:]))

    def test_inside_static_band(self):
        for k in (0.6, 1.0, 1.4):
            for vol in (0.05, 0.3, 1.0):
                c = bs_call_price(k, vol, 0.25)
                assert max(1.0 - k, 0.0) <= c < 1.0
        # strictly interior wherever the time value is representable
        assert bs_call_price(0.6, 0.3, 0.25) > 0.4
        assert bs_call_price(1.0, 0.05, 0.25) > 0.0


class TestImpliedVol:
    def test_round_trip(self):
        c = bs_call_price(0.9, 0.3, 0.5)
        assert abs(implied_vol(0.9, c, 0.5) - 0.3) <= 1e-10

    def test_round_trip_grid(self):
        # corners whose price sits within 1e-8 of a static bound carry no
        # resolvable vol information at double precision and are skipped
        for k in (0.5, 0.8, 1.0, 1.2, 1.5):
            for vol in (0.05, 0.2, 0.6, 1.0):
                for t in (0.05, 0.5, 2.0):
                    c = bs_call_price(k, vol, t)
                    if c - max(1.0 - k, 0.0) < 1e-8 or 1.0 - c < 1e-8:
                        continue
                    assert abs(implied_vol(k, c, t) - vol) <= 1e-10

    def test_boundary_price_rejected(self):
        with pytest.raises(PriceOutOfBandError) as err:
            implied_vol(0.5, 0.5, 1.0)  # exactly intrinsic
        assert err.value.bound_kind == "lower"
        assert err.value.bound_value == pytest.approx(0.5)
        with pytest.raises(PriceOutOfBandError):
            implied_vol(1.2, 1.0, 1.0)

    def test_no_convergence_is_solver_error(self):
        # no double sits exactly on this price: a zero tolerance exhausts
        # the iteration budget
        with pytest.raises(SolverError, match="did not converge"):
            implied_vol(1.0, 0.05, 0.25, tol=0.0)

    def test_atm_expansion(self):
        sigma = implied_vol(1.0, 0.0797884, 1.0)
        assert abs(sigma - 0.2) <= 1e-3
        assert abs(bs_call_price(1.0, sigma, 1.0) - 0.0797884) <= 1e-12


class TestStress:
    def test_identity_multiplier_bit_for_bit(self, desk_surface):
        scen = StressScenario(bands={0: (((0.0, 9.0), 1.0),)})
        out = apply_stress(desk_surface, scen)
        assert np.array_equal(out.prices[0], desk_surface.prices[0])

    def test_empty_scenario_identity(self, desk_surface):
        out = apply_stress(desk_surface, StressScenario())
        assert np.array_equal(out.prices[0], desk_surface.prices[0])

    def test_band_only_changes_inside(self, desk_surface):
        scen = StressScenario(bands={0: (((0.975, 1.025), 1.2),)})
        out = apply_stress(desk_surface, scen)
        ks = desk_surface.strikes[0]
        inside = (ks >= 0.975) & (ks <= 1.025)
        assert np.array_equal(out.prices[0][~inside], desk_surface.prices[0][~inside])
        assert np.all(out.prices[0][inside] > desk_surface.prices[0][inside])

    def test_in_band_vols_scaled(self, desk_surface):
        scen = StressScenario(bands={0: (((0.975, 1.025), 1.3),)})
        out = apply_stress(desk_surface, scen)
        t = desk_surface.maturities[0]
        for k, c0, c1 in zip(
            desk_surface.strikes[0], desk_surface.prices[0], out.prices[0]
        ):
            if 0.975 <= k <= 1.025:
                v0 = implied_vol(float(k), float(c0), t)
                v1 = implied_vol(float(k), float(c1), t)
                assert abs(v1 - 1.3 * v0) <= 1e-9

    def test_steepening_twist(self, desk_surface):
        scen = StressScenario(
            bands={0: (((0.0, 0.94), 1.2), ((1.03, 9.0), 0.8))}
        )
        out = apply_stress(desk_surface, scen)
        t = desk_surface.maturities[0]
        for k, c0, c1 in zip(
            desk_surface.strikes[0], desk_surface.prices[0], out.prices[0]
        ):
            v0 = implied_vol(float(k), float(c0), t)
            v1 = implied_vol(float(k), float(c1), t)
            if k <= 0.94:
                assert v1 > v0
            elif k >= 1.03:
                assert v1 < v0
            else:
                assert v1 == pytest.approx(v0, abs=1e-14)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError):
            StressScenario(bands={0: (((0.9, 1.0), 1.2), ((0.95, 1.1), 0.8))})

    def test_out_of_band_error_carries_location(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([0.5]),), (np.array([0.5]),), (100.0,), (1.0,)
        )
        scen = StressScenario(bands={0: (((0.0, 9.0), 1.1),)})
        with pytest.raises(PriceOutOfBandError) as err:
            apply_stress(surf, scen)
        assert err.value.location == (1.0, 0.5)
