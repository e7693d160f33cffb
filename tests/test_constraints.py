import inspect
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volrepair.constraints import (
    _calendar_violations,
    DETECT_TOL,
    _backward_pass,
    _detector_grid,
    _smile_violations,
    _walk_kernel,
    all_node_targets,
    build_calibrated_system,
    build_joint_system,
    build_martingale_system,
    detect_arbitrage,
    martingale_chain,
)
from volrepair import constraints, lp
from volrepair.errors import DuplicateConstraintError, SolverError
from volrepair.grid import (
    DEFAULT_KMAX_MARGIN,
    Theta,
    build_theta,
    choose_kmax,
    path_components,
)
from volrepair.market_data import NormalizedSurface, StressScenario, apply_stress
from volrepair.signed_measure import marginal_weights

from conftest import convex_ordered_pair, make_surface, prepared, random_instance
from oracles import (
    _marginal_certificate,
    _marginal_feasibility_system,
    highs_marginal_feasible,
    martingale_feasible,
    pathspace_feasible,
)


def theta_l(l):  # noqa: E741
    return Theta(np.concatenate([[0.0], np.linspace(0.5, 1.2, l - 2), [2.0]]))


class TestMartingaleSystem:
    def test_one_period_row_count(self):
        for l in (2, 3, 6):  # noqa: E741
            sys1 = build_martingale_system(theta_l(l), 1)
            assert sys1.n_rows == 2
            assert sys1.row_kinds[0] == ("mass",)
            assert sys1.row_kinds[1] == ("centering",)

    def test_row_count_formula(self):
        for l, m in ((3, 2), (4, 2), (3, 3), (2, 4)):  # noqa: E741
            system = build_martingale_system(theta_l(l), m)
            n = l**m
            assert system.n_rows == 2 + (n - l) // (l - 1)

    def test_m2_l3_counts(self):
        system = build_martingale_system(theta_l(3), 2)
        assert system.n_rows == 5
        mart = [k for k in system.row_kinds if k[0] == "martingality"]
        assert len(mart) == 3

    def test_rhs_structure(self):
        system = build_martingale_system(theta_l(4), 2)
        np.testing.assert_allclose(system.b[:2], [1.0, 1.0])
        np.testing.assert_allclose(system.b[2:], 0.0)

    def test_mass_and_centering_coefficients(self):
        theta = theta_l(3)
        system = build_martingale_system(theta, 2)
        np.testing.assert_allclose(system.A[0], 1.0)
        comps = path_components(3, 2)
        np.testing.assert_allclose(system.A[1], theta.strikes[comps[:, 0]])

    def test_zero_prefix_row_sign_structure(self):
        # prefix at k=0: increment coefficients are k values, >= 0, zero at 1
        theta = theta_l(3)
        system = build_martingale_system(theta, 2)
        row = next(
            system.A[r]
            for r, kind in enumerate(system.row_kinds)
            if kind[0] == "martingality" and kind[2] == (1,)
        )
        support = row[np.nonzero(row)[0]]
        assert np.all(support > 0)
        comps = path_components(3, 2)
        on_prefix = comps[:, 0] == 0
        zeros_on_prefix = on_prefix & (row == 0.0)
        assert zeros_on_prefix.sum() == 1  # only the flat transition 0 -> 0

    def test_max_prefix_row_negative(self):
        theta = theta_l(3)
        system = build_martingale_system(theta, 2)
        row = next(
            system.A[r]
            for r, kind in enumerate(system.row_kinds)
            if kind[0] == "martingality" and kind[2] == (3,)
        )
        support = row[np.nonzero(row)[0]]
        assert np.all(support < 0)

    def test_feasible_measures_satisfy_system(self):
        rng = np.random.default_rng(53)
        surface = random_instance(rng, m=2, max_interior=2)
        prob = prepared(surface)
        from volrepair.lp import solve_p_prime

        _, mu, _ = solve_p_prime(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        assert np.max(np.abs(prob.system.A @ mu - prob.system.b)) <= 1e-9


class TestCalibratedSystem:
    def test_empty_returns_base(self):
        theta = theta_l(3)
        base = build_martingale_system(theta, 1)
        assert build_calibrated_system(base, [], theta) is base

    def test_pricing_row_coefficients(self):
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        base = build_martingale_system(theta, 1)
        system = build_calibrated_system(base, [(0, 1.0, 0.05)], theta)
        assert system.n_rows == 3
        np.testing.assert_allclose(system.A[2], [0.0, 0.0, 1.0])
        assert system.b[2] == 0.05
        assert system.row_kinds[2] == ("calibration", 0, 1.0)

    def test_calibration_row_nonneg_postive_at_kmax(self):
        theta = theta_l(5)
        base = build_martingale_system(theta, 2)
        system = build_calibrated_system(base, [(1, 0.9, 0.2)], theta)
        row = system.A[-1]
        assert np.all(row >= 0)
        comps = path_components(theta.l, 2)
        at_kmax = comps[:, 1] == theta.l - 1
        assert np.all(row[at_kmax] > 0)

    def test_duplicate_rejected(self):
        theta = theta_l(3)
        base = build_martingale_system(theta, 1)
        with pytest.raises(DuplicateConstraintError):
            build_calibrated_system(
                base, [(0, 1.0, 0.05), (0, 1.0, 0.06)], theta
            )


class TestJointSystem:
    def test_one_period_pins_marginal(self):
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        base = build_martingale_system(theta, 1)
        marg = marginal_weights([0.0, 1.0, 2.0], [1.0, 0.25, 0.0], theta)
        system = build_joint_system(base, [marg])
        assert system.n_rows == 3
        assert all(kind[0] == "marginal" for kind in system.row_kinds)
        np.testing.assert_allclose(sorted(system.b), sorted(marg.weights))


class TestDetector:
    def test_clean_surface_passes(self, desk_surface):
        report = detect_arbitrage(desk_surface)
        assert report.feasible
        assert report.violations == ()
        assert report.lp_checked

    def test_monotonicity_violation_magnitude(self):
        surf = NormalizedSurface(
            (1.0,),
            (np.array([0.5, 1.0, 2.0]),),
            (np.array([0.3, 0.6, 0.0001]),),
            (1.0,),
            (1.0,),
        )
        report = detect_arbitrage(surf)
        assert not report.feasible
        mono = [v for v in report.violations if v.kind == "monotonicity"]
        assert len(mono) == 1
        assert mono[0].magnitude == pytest.approx(0.3, abs=1e-12)
        assert mono[0].location[1] == (0.5, 1.0)

    def test_bounds_violation(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([0.5, 1.0]),), (np.array([0.2, 0.1]),), (1.0,), (1.0,)
        )
        report = detect_arbitrage(surf)
        kinds = {v.kind for v in report.violations}
        assert "bounds" in kinds

    def test_convexity_violation(self, desk_stressed):
        report = detect_arbitrage(desk_stressed)
        assert not report.feasible
        assert any(v.kind == "convexity" for v in report.violations)

    def test_calendar_only_instance(self, calendar_only_surface):
        assert _smile_violations(calendar_only_surface, 1e-8) == []
        feasible, infeas = martingale_feasible(calendar_only_surface)
        assert not feasible
        assert infeas > 1e-8
        report = detect_arbitrage(calendar_only_surface)
        assert not report.feasible

    def test_stage1_violations_imply_stage2_infeasible(self):
        rng = np.random.default_rng(61)
        found = 0
        for _ in range(40):
            if found >= 8:
                break
            surface = random_instance(rng, m=int(rng.integers(1, 3)))
            if _smile_violations(surface, 1e-8):
                feasible, _ = martingale_feasible(surface)
                assert not feasible
                found += 1
        assert found >= 8

    def test_report_json_original_units(self, desk_stressed):
        report = detect_arbitrage(desk_stressed)
        payload = report.to_json_dict(desk_stressed)
        assert payload["feasible"] is False
        entry = payload["violations"][0]
        assert "original_units" in entry
        strikes = entry["original_units"]["strikes"]
        assert all(50 < s < 150 for s in strikes)  # forward is 100


def _quoted_surface(strikes, prices):
    """Surface straight from normalized quotes, one maturity per entry."""
    n = len(strikes)
    return NormalizedSurface(
        tuple(0.16 + 0.08 * i for i in range(n)),
        tuple(np.array(k) for k in strikes),
        tuple(np.array(c) for c in prices),
        (100.0,) * n,
        (0.99,) * n,
    )


# The later smile dips at k = 1.0 below the straight extension of the earlier
# smile's last two quotes (0.089 - 0.62 * 0.05 = 0.058 > 0.055). The earlier
# call function is convex, so C_1(1.0) >= 0.058 > C_2(1.0): no martingale
# exists, yet every price passes the smile and calendar node checks.
LP_ONLY_SURFACES = (
    _quoted_surface([[0.9, 0.95], [0.9, 0.95, 1.0]], [[0.12, 0.089], [0.13, 0.09, 0.055]]),
    _quoted_surface(
        [[0.9, 0.95, 1.0], [0.9, 0.95], [0.9, 0.95, 1.0]],
        [[0.11, 0.07, 0.04], [0.12, 0.089], [0.13, 0.09, 0.055]],
    ),
)


def _mildly_stressed(rng, m):
    """Smooth m-maturity surface with one node's vol scaled by 0.85-1.15."""
    n_strikes = int(rng.integers(2, 5 if m < 3 else 4))
    ks = np.sort(rng.uniform(0.85, 1.15, size=n_strikes))
    while np.min(np.diff(ks, prepend=0.0)) < 0.03:
        ks = np.sort(rng.uniform(0.85, 1.15, size=n_strikes))
    base_vol = rng.uniform(0.15, 0.3)
    curv = rng.uniform(0.1, 0.5)
    vol_fns = [
        (lambda shift: (lambda k: base_vol + shift + curv * (k - 1) ** 2))(
            float(rng.uniform(-0.01, 0.03))
        )
        for _ in range(m)
    ]
    surface = make_surface([0.16, 0.24, 0.32][:m], [ks] * m, vol_fns)
    i = int(rng.integers(0, m))
    node = float(ks[int(rng.integers(0, n_strikes))])
    mult = float(rng.uniform(0.85, 1.15))
    scen = StressScenario(bands={i: (((node - 1e-9, node + 1e-9), mult),)})
    return apply_stress(surface, scen)


def _passes_node_checks(surface):
    return not (_smile_violations(surface, 1e-8) + _calendar_violations(surface, 1e-8))


def _oracle_surface(rng, m, shared, stressed, deep):
    """Random m-maturity surface from smooth smiles, one vol level per maturity.

    Strikes are shared by every maturity or drawn for each; a stressed
    surface has one price scaled by 0.9-1.1. A deep surface starts at a
    three-week maturity and quotes strikes up to 1.375, so its far wing
    holds tiny quotes and a large k_max.
    """
    lo, hi = (0.65, 1.375) if deep else (0.8, 1.2)
    maturities = [0.056, 0.406, 0.969, 1.5] if deep else [0.16, 0.24, 0.32, 0.4]
    common = np.sort(rng.uniform(lo, hi, int(rng.integers(2, 6))))
    ks = [
        common if shared else np.sort(rng.uniform(lo, hi, int(rng.integers(2, 6))))
        for _ in range(m)
    ]
    a, b = rng.uniform(0.15, 0.3), rng.uniform(0.1, 0.7)
    vol_fns = [
        (lambda s: (lambda k: a + s + b * (k - 1) ** 2))(float(s))
        for s in rng.uniform(-0.01, 0.03, m)
    ]
    surface = make_surface(maturities[:m], ks, vol_fns)
    if not stressed:
        return surface
    prices = [c.copy() for c in surface.prices]
    i = int(rng.integers(0, m))
    prices[i][int(rng.integers(0, prices[i].size))] *= rng.uniform(0.9, 1.1)
    return replace(surface, prices=tuple(prices))


def _deep_otm_surfaces():
    """Thirty m=3 surfaces whose smallest quote is below 1e-6, then one whose
    smallest is 4.6e-8 with k_max 4.5e4.

    The phase-1 simplex that used to decide the detector's second stage
    raised on 13 of the thirty (draws 1, 7, 13, 16, 20, 23, 25, 32, 33, 34,
    42, 43 and 44 of the generator) and hit its pivot cap on the last one;
    HiGHS finds every one feasible.
    """
    rng = np.random.default_rng(1)
    maturities = [0.056, 0.406, 0.969]
    surfaces = []
    while len(surfaces) < 30:
        ks = [np.sort(rng.uniform(0.65, 1.375, 4)) for _ in maturities]
        a, b = rng.uniform(0.15, 0.25), rng.uniform(0.2, 0.7)
        surface = make_surface(maturities, ks, [lambda k, a=a, b=b: a + b * (k - 1) ** 2] * 3)
        if min(c.min() for c in surface.prices) < 1e-6:
            surfaces.append(surface)
    ks = [[0.789, 1.018, 1.325, 1.365], [0.722, 0.819, 1.206, 1.312], [0.652, 0.945, 1.135, 1.274]]
    surfaces.append(make_surface(maturities, ks, [lambda k: 0.203 + 0.65 * (k - 1) ** 2] * 3))
    return surfaces


class TestMarginalDetector:
    def test_agrees_with_pathspace_oracle(self):
        rng = np.random.default_rng(73)
        cases = list(LP_ONLY_SURFACES)
        cases += [_mildly_stressed(rng, m) for m in (1, 2, 3) for _ in range(30)]
        cases += [random_instance(rng, m=m) for m in (1, 2) for _ in range(10)]
        assert len(cases) >= 100
        verdicts = []
        for surface in cases:
            feasible, gap = martingale_feasible(surface)
            assert feasible == pathspace_feasible(surface)[0]
            assert feasible == (_marginal_certificate(surface)[1] is not None)
            assert feasible or gap > 0.0
            verdicts.append((surface.n_maturities, feasible, _passes_node_checks(surface)))
        # the set spans every period count, both verdicts, and node-clean
        # surfaces on both sides of the LP
        assert {m for m, _, _ in verdicts} == {1, 2, 3}
        assert any(f and node for _, f, node in verdicts)
        assert any(not f and node for _, f, node in verdicts)
        assert any(not f and not node for _, f, node in verdicts)

    def test_lp_only_surfaces_reported(self):
        # the earlier call at 0.95 is at most the midpoint of its quote at 0.9
        # and the later price at 1.0: (0.12 + 0.055) / 2 = 0.089 - 0.0015
        for surface, i in zip(LP_ONLY_SURFACES, (0, 1)):
            assert _passes_node_checks(surface)
            report = detect_arbitrage(surface)
            assert not report.feasible and report.lp_checked
            (violation,) = report.violations
            assert violation.kind == "lp_infeasible"
            assert violation.location == (i, 0.95)
            assert violation.magnitude == pytest.approx(0.0015, abs=1e-12)
            (entry,) = report.to_json_dict(surface)["violations"]
            assert entry["original_units"]["strikes"] == [pytest.approx(95.0)]

    def test_stage_two_honours_tol(self):
        # as LP_ONLY_SURFACES[0], with the later price at 1.0 only 5e-9 below
        # the earlier smile's straight extension
        surface = _quoted_surface(
            [[0.9, 0.95], [0.9, 0.95, 1.0]], [[0.12, 0.089], [0.13, 0.09, 0.058 - 5e-9]]
        )
        assert detect_arbitrage(surface).feasible
        report = detect_arbitrage(surface, tol=1e-9)
        (violation,) = report.violations
        assert violation.kind == "lp_infeasible" and violation.location == (0, 0.95)
        assert violation.magnitude == pytest.approx(2.5e-9, abs=1e-15)

    def test_quote_within_tol_below_intrinsic_gets_an_exact_certificate(self):
        # the earlier deep in-the-money quote is 5e-9 below 1 - k: feasible
        # within tol, and the certificate still has unit mass and mean, so
        # the chain's kernel holds; the later quote at 0.3 is exactly 1 - k,
        # where the first slope rounds to -1 - 2e-16
        surface = _quoted_surface(
            [[0.5, 1.0], [0.3, 0.5, 1.0]], [[0.5 - 5e-9, 0.05], [0.7, 0.5, 0.07]]
        )
        report = detect_arbitrage(surface)
        assert report.feasible
        theta, marginals = report.certificate
        assert marginals.min() >= 0.0
        assert np.max(np.abs(marginals.sum(axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(marginals @ theta.strikes - 1.0)) <= 1e-15
        martingale_chain(theta, marginals)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 4),
        shared=st.booleans(),
        stressed=st.booleans(),
        deep=st.booleans(),
    )
    def test_agrees_with_highs(self, seed, m, shared, stressed, deep):
        surface = _oracle_surface(np.random.default_rng(seed), m, shared, stressed, deep)
        feasible, gap = martingale_feasible(surface)
        oracle, theta, a, b = highs_marginal_feasible(surface)
        assert feasible == oracle
        if not feasible:
            assert gap > 0.0
            return
        _, marginals = _backward_pass(surface, DEFAULT_KMAX_MARGIN, DETECT_TOL).certificate
        assert marginals.min() >= 0.0
        calls = np.maximum(theta.strikes[None, :] - theta.strikes[:, None], 0.0)
        slacks = [calls @ (hi - lo) for lo, hi in zip(marginals[:-1], marginals[1:])]
        x = np.concatenate([marginals.reshape(-1), *slacks])
        assert x.min() >= -1e-12
        assert np.max(np.abs(a @ x - b)) <= 1e-12
        martingale_chain(theta, marginals)

    def test_deep_otm_surfaces_get_the_oracle_verdict_fast(self):
        for surface in _deep_otm_surfaces():
            elapsed = []
            for _ in range(3):  # best of three, against host noise
                start = time.perf_counter()
                report = detect_arbitrage(surface)
                elapsed.append(time.perf_counter() - start)
            assert report.feasible == highs_marginal_feasible(surface)[0]
            assert min(elapsed) < 0.010

    def test_detector_runs_no_simplex(self, monkeypatch, two_maturity_surface):
        # every function of lp is swapped for a recorder, as in
        # TestMartingaleChain::test_wide_two_period_surface
        calls = []
        for name, func in vars(lp).items():
            if inspect.isfunction(func) and func.__module__ == lp.__name__:
                monkeypatch.setattr(lp, name, lambda *a, _name=name, **k: calls.append(_name))
        assert detect_arbitrage(two_maturity_surface).feasible
        assert martingale_feasible(two_maturity_surface)[0]
        for surface in LP_ONLY_SURFACES:
            assert not detect_arbitrage(surface).feasible
            assert not martingale_feasible(surface)[0]
        assert calls == []

    def test_node_checks_run_only_to_name_a_failure(
        self, monkeypatch, two_maturity_surface, within_tol_surface, desk_stressed
    ):
        # the node checks are swapped for recorders that call through
        calls = []
        for name in ("_smile_violations", "_calendar_violations"):
            func = getattr(constraints, name)
            monkeypatch.setattr(
                constraints, name, lambda *a, _f=func, _n=name: calls.append(_n) or _f(*a)
            )
        for surface in (two_maturity_surface, within_tol_surface):
            assert detect_arbitrage(surface).feasible
        assert calls == []
        # lp_checked is False exactly when the node checks named the failure
        for surface, named in ((desk_stressed, True), *((s, False) for s in LP_ONLY_SURFACES)):
            calls.clear()
            report = detect_arbitrage(surface)
            assert not report.feasible
            assert calls == ["_smile_violations", "_calendar_violations"]
            assert report.lp_checked is not named

    def test_lp_has_linear_size(self):
        for l, m, n_quotes in ((5, 1, 3), (6, 2, 8), (4, 3, 6), (12, 4, 40)):  # noqa: E741
            theta = theta_l(l)
            targets = [(t % m, 0.9, 0.1) for t in range(n_quotes)]
            a, b = _marginal_feasibility_system(theta, m, targets)
            assert a.shape == (2 * m + n_quotes + (m - 1) * l, (2 * m - 1) * l)
            assert b.shape == (a.shape[0],)

    def test_one_period_lp_is_pathspace_system(self, desk_surface):
        targets, theta = _detector_grid(desk_surface, DEFAULT_KMAX_MARGIN)
        a, b = _marginal_feasibility_system(theta, 1, targets)
        system = build_calibrated_system(
            build_martingale_system(theta, 1), targets, theta
        )
        np.testing.assert_array_equal(a, system.A)
        np.testing.assert_array_equal(b, system.b)

    def test_clean_four_maturity_ten_strikes(self):
        ks = np.linspace(0.85, 1.15, 10)
        surface = make_surface(
            [0.16, 0.24, 0.32, 0.40],
            [ks] * 4,
            [(lambda s: (lambda k: 0.2 + s + 0.3 * (k - 1) ** 2))(0.01 * i) for i in range(4)],
        )
        _, theta = _detector_grid(surface, DEFAULT_KMAX_MARGIN)
        assert theta.l**4 == 20_736  # paths; the marginal LP has 7 * 12 variables
        report = detect_arbitrage(surface)
        assert report.feasible and report.lp_checked

    def test_certificate_marginals_reprice_the_quotes(self, two_maturity_surface):
        report = detect_arbitrage(two_maturity_surface)
        theta, marginals = report.certificate
        assert marginals.shape == (2, theta.l) and marginals.min() >= 0.0
        for i, k, c in all_node_targets(two_maturity_surface):
            assert abs(np.maximum(theta.strikes - k, 0.0) @ marginals[i] - c) <= 1e-12
        assert report == detect_arbitrage(two_maturity_surface)  # not compared

    def test_no_certificate_without_a_feasible_lp(self, desk_stressed):
        assert detect_arbitrage(desk_stressed).certificate is None  # node checks
        for surface in LP_ONLY_SURFACES:
            assert detect_arbitrage(surface).certificate is None


class TestMartingaleChain:
    def test_one_period_is_the_marginal(self):
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        marginals = np.array([[0.25, 0.5, 0.25]])
        np.testing.assert_array_equal(martingale_chain(theta, marginals), marginals[0])

    def test_wide_two_period_surface(self, monkeypatch):
        # 27 strikes, L = 29; every function of lp is swapped for a recorder
        # to show that the chain calls none of them, so no simplex pivot runs
        ks = np.linspace(0.8, 1.2, 27)
        surface = make_surface(
            [0.2, 0.5], [ks, ks],
            [lambda k: 0.2 + 0.3 * (k - 1) ** 2, lambda k: 0.21 + 0.3 * (k - 1) ** 2],
        )
        theta, marginals = detect_arbitrage(surface).certificate
        calls = []
        for name, func in vars(lp).items():
            if inspect.isfunction(func) and func.__module__ == lp.__name__:
                monkeypatch.setattr(lp, name, lambda *a, _name=name, **k: calls.append(_name))
        mu = martingale_chain(theta, marginals)
        assert calls == []
        assert mu.min() >= 0.0
        system = build_martingale_system(theta, 2)
        assert np.max(np.abs(system.A @ mu - system.b)) <= 1e-12
        for period in (1, 2):
            marg = mu.reshape(theta.l, theta.l).sum(axis=2 - period)
            np.testing.assert_allclose(marg, marginals[period - 1], atol=1e-12)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 64))
    def test_walk_kernel_is_a_martingale_kernel_onto_the_later_marginal(self, seed, n):
        x, lo, hi = convex_ordered_pair(np.random.default_rng(seed), n)
        kernel, residual = _walk_kernel(x, lo, hi)
        assert kernel.min() >= -1e-12
        assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(kernel @ x - x)) <= 1e-12
        assert np.max(np.abs(lo @ kernel - hi)) <= 1e-12
        assert residual <= 1e-12

    def test_pair_out_of_convex_order_is_solver_error(self):
        # a spread-out first marginal cannot contract to a point
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        marginals = np.array([[0.25, 0.5, 0.25], [0.0, 1.0, 0.0]])
        with pytest.raises(SolverError, match="period 1 to 2"):
            martingale_chain(theta, marginals)


class TestKmaxFeasibility:
    def test_choose_kmax_makes_system_feasible(self):
        rng = np.random.default_rng(67)
        for trial in range(6):
            surface = random_instance(rng, m=int(rng.integers(1, 3)))
            prob = prepared(surface)
            from volrepair.lp import check_feasibility

            ok, _ = check_feasibility(prob.base_system.A, prob.base_system.b)
            assert ok

    def test_calibrated_kmax_feasible(self):
        rng = np.random.default_rng(71)
        surface = random_instance(rng, m=1, stress=False)
        targets = all_node_targets(surface)
        k_max = choose_kmax(surface, targets)
        theta = build_theta(surface, k_max)
        base = build_martingale_system(theta, surface.n_maturities)
        system = build_calibrated_system(base, targets, theta)
        from volrepair.lp import check_feasibility

        ok, _ = check_feasibility(system.A, system.b)
        assert ok
