import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from volrepair.constraints import (
    _detector_grid,
    all_node_targets,
    build_martingale_system,
    detect_arbitrage,
)
from volrepair.errors import (
    DuplicateConstraintError,
    InvalidCalibrationError,
    ProblemTooLargeError,
)
from volrepair.grid import DEFAULT_KMAX_MARGIN
from volrepair.market_data import StressScenario, apply_stress, surface_vols
from volrepair.repair import (
    RepairConfig,
    extract_marginal,
    price_from_marginal,
    repair,
)

from conftest import make_surface, random_instance, TWO_MAT_STRIKES


class TestExtractMarginal:
    def test_product_measure_marginals(self):
        w1 = np.array([0.2, 0.5, 0.3])
        w2 = np.array([0.6, 0.1, 0.3])
        mu = np.multiply.outer(w1, w2).reshape(-1)
        np.testing.assert_allclose(extract_marginal(mu, 3, 2, 1), w1, atol=1e-15)
        np.testing.assert_allclose(extract_marginal(mu, 3, 2, 2), w2, atol=1e-15)

    def test_dirac_path(self):
        mu = np.zeros(9)
        mu[4] = 1.0  # path (2, 2) in 1-based components
        for period in (1, 2):
            marg = extract_marginal(mu, 3, 2, period)
            np.testing.assert_allclose(marg, [0.0, 1.0, 0.0])

    def test_period_bounds(self):
        with pytest.raises(IndexError):
            extract_marginal(np.ones(9) / 9.0, 3, 2, 3)


class TestPriceFromMarginal:
    def test_mass_and_mean(self):
        strikes = np.array([0.0, 1.0, 2.0])
        w = np.array([0.25, 0.5, 0.25])
        assert price_from_marginal(w, strikes, 0.0) == pytest.approx(1.0)

    def test_zero_beyond_support(self):
        strikes = np.array([0.0, 1.0, 2.0])
        w = np.array([0.25, 0.5, 0.25])
        assert price_from_marginal(w, strikes, 2.0) == 0.0
        assert price_from_marginal(w, strikes, 3.0) == 0.0

    def test_dirac(self):
        strikes = np.array([0.0, 1.0, 2.0])
        w = np.array([0.0, 1.0, 0.0])
        assert price_from_marginal(w, strikes, 0.6) == pytest.approx(0.4)


class TestRepairPipeline:
    def test_clean_input_is_fixed_point(self, desk_surface):
        result = repair(desk_surface, RepairConfig(mode="lp_exact"))
        assert result.report_before.feasible
        assert result.report_after.feasible
        assert result.transport_cost == 0.0
        assert np.array_equal(result.repaired_surface.prices[0], desk_surface.prices[0])

    def test_atm_stress_lp_repair(self, desk_stressed):
        result = repair(desk_stressed, RepairConfig(mode="lp_exact"))
        assert not result.report_before.feasible
        assert result.report_after.feasible
        assert result.transport_cost > 0
        assert np.min(result.mu) >= -1e-9
        assert result.mu.sum() == pytest.approx(1.0, abs=1e-9)

    def test_atm_stress_with_marks_entropic(self, desk_stressed):
        marks = ((0, 3), (0, 4))
        result = repair(
            desk_stressed,
            RepairConfig(
                mode="entropic", epsilon=0.5, e_tol=1e-9, calibration_marks=marks
            ),
        )
        assert result.report_after.feasible
        worst = max(e["error"] for e in result.diagnostics["marked_price_errors"])
        assert worst <= 1e-8
        for period in range(1, result.problem.m + 1):
            marg = extract_marginal(
                result.mu, result.theta.l, result.problem.m, period
            )
            assert marg.sum() == pytest.approx(1.0, abs=1e-8)

    def test_repaired_prices_convex_decreasing_in_band(self, desk_stressed):
        result = repair(desk_stressed, RepairConfig(mode="lp_exact"))
        for i in range(result.repaired_surface.n_maturities):
            ks = np.concatenate([[0.0], result.repaired_surface.strikes[i]])
            cs = np.concatenate([[1.0], result.repaired_surface.prices[i]])
            slopes = np.diff(cs) / np.diff(ks)
            assert np.all(np.diff(cs) <= 1e-10)
            assert np.all(np.diff(slopes) >= -1e-8)
            lower = np.maximum(1.0 - ks[1:], 0.0)
            assert np.all(cs[1:] >= lower - 1e-10)
            assert np.all(cs[1:] <= 1.0 + 1e-10)

    def test_invalid_calibration_rejected(self, desk_surface):
        # marks whose own sub-grid is arbitrageable: prices increasing in k
        bad = make_surface(
            [0.16], [[0.9, 1.0]], [lambda k: 0.2]
        )
        prices = np.array([0.02, bad.prices[0][0] + 0.05])
        from dataclasses import replace

        bad = replace(bad, prices=(prices,))
        with pytest.raises(InvalidCalibrationError):
            repair(bad, RepairConfig(calibration_marks=((0, 0), (0, 1))))

    def test_lp_and_entropic_agree_at_small_epsilon(self, desk_stressed):
        # The projection can be non-unique: the simplex returns a vertex of
        # the optimal face while the small-epsilon limit is its max-entropy
        # element. Prices must then agree up to the face's own price range,
        # and the transport costs must match. Warm-start down the schedule
        # as the sweep does; cold starts at tiny epsilon need far more sweeps.
        from volrepair.entropic import gibbs_kernel, sinkhorn_run
        from volrepair.lp import LpProblem, solve_lp, solve_p_prime
        from volrepair.repair import prepare_projection

        prob = prepare_projection(desk_stressed, RepairConfig())
        _, mu_lp, v_lp = solve_p_prime(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        warm = None
        for eps in (0.05, 0.02, 0.01, 0.005):
            kern = gibbs_kernel(prob.dist, eps)
            m, state, rep = sinkhorn_run(
                kern,
                prob.system,
                prob.nu,
                e_tol=1e-9,
                max_iters=400_000,
                initial_scalings=warm,
            )
            assert rep.converged, f"no convergence at eps={eps}"
            warm = [v.copy() for v in state]
        cost_ent = float((m * prob.dist).sum())
        assert abs(cost_ent - v_lp) <= 0.01 * abs(v_lp)
        mu = m.sum(axis=1) - prob.nu.nu_minus
        marg_ent = extract_marginal(mu, prob.theta.l, prob.m, 1)
        marg_lp = extract_marginal(mu_lp, prob.theta.l, prob.m, 1)

        def face_price_range(k):
            # extremize the node price over the optimal face of the coupling LP
            n = prob.system.n_paths
            n_rows = prob.system.A.shape[0]
            a = np.zeros((n + n_rows + n + 1, n * n + n))
            b = np.zeros(n + n_rows + n + 1)
            for p in range(n):
                a[p, p * n : (p + 1) * n] = 1.0
                a[p, n * n + p] = -1.0
                b[p] = prob.nu.nu_minus[p]
            a[n : n + n_rows, n * n :] = prob.system.A
            b[n : n + n_rows] = prob.system.b
            for q in range(n):
                a[n + n_rows + q, q : n * n : n] = 1.0
                b[n + n_rows + q] = prob.nu.nu_plus[q]
            a[-1, : n * n] = prob.dist.reshape(-1)
            b[-1] = v_lp
            payoff = np.maximum(prob.theta.strikes - k, 0.0)
            c_node = np.concatenate([np.zeros(n * n), payoff])
            lo = solve_lp(LpProblem(c_node, a, b))
            hi = solve_lp(LpProblem(-c_node, a, b))
            assert lo.status == hi.status == "optimal"
            return lo.objective_value, -hi.objective_value

        for k, c_lp in zip(desk_stressed.strikes[0],
                           [price_from_marginal(marg_lp, prob.theta.strikes, float(k))
                            for k in desk_stressed.strikes[0]]):
            c_ent = price_from_marginal(marg_ent, prob.theta.strikes, float(k))
            if abs(c_lp - c_ent) <= 0.02 * max(abs(c_lp), 1e-3):
                continue
            face_lo, face_hi = face_price_range(float(k))
            assert face_lo - 1e-7 <= c_ent <= face_hi + 1e-7
            assert face_lo - 1e-7 <= c_lp <= face_hi + 1e-7

    def test_two_maturity_calendar_repair(self, calendar_only_surface):
        marks = tuple((0, j) for j in range(len(TWO_MAT_STRIKES)))
        result = repair(
            calendar_only_surface,
            RepairConfig(mode="lp_exact", calibration_marks=marks),
        )
        assert not result.report_before.feasible
        assert result.report_after.feasible
        worst = max(e["error"] for e in result.diagnostics["marked_price_errors"])
        assert worst <= 1e-8

    def test_diagnostics_carry_run_parameters(self, desk_stressed):
        result = repair(
            desk_stressed, RepairConfig(mode="entropic", epsilon=0.8, e_tol=1e-6)
        )
        diag = result.diagnostics
        assert diag["mode"] == "entropic"
        assert diag["epsilon"] == 0.8
        assert diag["k_max"] > desk_stressed.max_strike()
        assert diag["shift"] == pytest.approx(1e-3)
        assert len(diag["history"]) == diag["iterations"] + 1
        assert "price_changes_currency" in diag

    def test_shift_sensitivity_of_lp_repair(self, desk_stressed):
        r1 = repair(desk_stressed, RepairConfig(mode="lp_exact", shift=1e-3))
        r2 = repair(desk_stressed, RepairConfig(mode="lp_exact", shift=5e-3))
        assert r1.transport_cost == pytest.approx(r2.transport_cost, abs=1e-7)

    def test_band_touching_prices_reported_without_vol(self):
        surf = make_surface([0.5], [[0.9, 1.0, 1.1]], [lambda k: 0.25])
        stressed = apply_stress(
            surf, StressScenario(bands={0: (((0.95, 1.05), 2.2),)})
        )
        result = repair(stressed, RepairConfig(mode="lp_exact"))
        vols = surface_vols(result.repaired_surface)
        prices = result.repaired_surface.prices[0]
        ks = result.repaired_surface.strikes[0]
        for k, c, v in zip(ks, prices, vols[0]):
            on_bound = c - max(1.0 - k, 0.0) <= 1e-10 or 1.0 - c <= 1e-10
            assert on_bound == np.isnan(v)


MODES = ("lp_exact", "entropic")


def _assert_clean_contract(surface, result):
    """Prices bitwise the input's, cost 0, and a nonnegative martingale on
    the detector's grid that reprices every quote."""
    assert result.report_before.feasible and result.diagnostics["clean_input"]
    assert result.report_after == result.report_before
    assert result.transport_cost == 0.0
    for before, after in zip(surface.prices, result.repaired_surface.prices):
        assert np.array_equal(before, after)
    assert "converged" not in result.diagnostics
    _, theta = _detector_grid(surface, DEFAULT_KMAX_MARGIN)
    assert np.array_equal(result.theta.strikes, theta.strikes)
    m, mu = surface.n_maturities, result.mu
    assert mu.min() >= 0.0
    for i, k, c in all_node_targets(surface):
        marg = extract_marginal(mu, theta.l, m, i + 1)
        assert abs(price_from_marginal(marg, theta.strikes, k) - c) <= 1e-9
    system = build_martingale_system(theta, m)
    assert np.max(np.abs(system.A @ mu - system.b)) <= 1e-9


def random_clean_surface(rng):
    """Smooth smiles with variance rising in maturity, m <= 3, strikes
    shared or drawn per maturity from one pool; at most 1331 paths."""
    m = int(rng.integers(1, 4))
    n_pool = int(rng.integers(2, {1: 30, 2: 30, 3: 9}[m] + 1))  # L = n_pool + 2
    pool = 0.8 + 0.01 * np.sort(rng.choice(41, n_pool, replace=False))
    shared = rng.random() < 0.5
    strikes = [
        pool if shared else np.sort(rng.choice(pool, int(rng.integers(2, n_pool + 1)),
                                               replace=False))
        for _ in range(m)
    ]
    maturities = list(np.cumsum(rng.uniform(0.05, 0.5, m)))
    base, curv = rng.uniform(0.12, 0.35), rng.uniform(0.0, 0.6)
    vols = [
        (lambda lift: (lambda k: base + lift + curv * (k - 1.0) ** 2))(0.01 * i)
        for i in range(m)
    ]
    return make_surface(maturities, strikes, vols)


class TestCleanInput:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "surface",
        [
            make_surface([2.0], [[0.9, 1.0]], [lambda k: 0.8]),
            make_surface([1.0], [[0.8, 0.9, 1.0]], [lambda k: 0.5]),
        ],
        ids=["m1k2-t2", "m1k3-t1"],
    )
    def test_too_close_grid_comes_back_unchanged(self, surface, mode):
        # the uncalibrated k_max = 1.1 admits no martingale for these
        # quotes; the projection on it moved them by up to 0.34
        result = repair(surface, RepairConfig(mode=mode))
        _assert_clean_contract(surface, result)
        assert result.theta.k_max > 1.1

    @pytest.mark.parametrize("mode", MODES)
    def test_surface_within_tol_of_a_martingale_unchanged(self, within_tol_surface, mode):
        # the node checks flag a convexity of 2e-7 at k = 1.0, but the
        # backward pass alone decides: feasible, so no solve moves the quote
        report = detect_arbitrage(within_tol_surface)
        assert report.feasible and report.certificate is not None
        result = repair(within_tol_surface, RepairConfig(mode=mode))
        assert result.diagnostics["clean_input"] and result.transport_cost == 0.0
        assert result.repaired_surface is within_tol_surface

    def test_two_maturity_fixture_unchanged_both_modes(self, two_maturity_surface):
        for mode in MODES:
            result = repair(two_maturity_surface, RepairConfig(mode=mode))
            _assert_clean_contract(two_maturity_surface, result)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES))
    def test_random_clean_surfaces(self, seed, mode):
        surface = random_clean_surface(np.random.default_rng(seed))
        assume(detect_arbitrage(surface).feasible)
        _assert_clean_contract(surface, repair(surface, RepairConfig(mode=mode)))

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_lp_repair_is_idempotent(self, seed):
        # three in four draws are stressed into arbitrage, the rest clean
        rng = np.random.default_rng(seed)
        m, stress = int(rng.integers(1, 3)), bool(rng.random() < 0.75)
        surface = random_instance(rng, m=m, max_interior=3, stress=stress)
        first = repair(surface, RepairConfig(mode="lp_exact"))
        assume(first.report_after.feasible)
        again = repair(first.repaired_surface, RepairConfig(mode="lp_exact"))
        assert again.transport_cost == 0.0
        for a, b in zip(first.repaired_surface.prices, again.repaired_surface.prices):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", MODES)
    def test_clean_input_still_validated(self, desk_surface, mode):
        with pytest.raises(DuplicateConstraintError):
            repair(desk_surface, RepairConfig(mode=mode, calibration_marks=((0, 2), (0, 2))))
        # m=3 with 15 shared strikes: N = 17^3 = 4913 paths, over the cap
        wide = make_surface([0.25, 0.5, 1.0], [list(np.linspace(0.8, 1.2, 15))] * 3,
                            [lambda k: 0.2] * 3)
        assert detect_arbitrage(wide).feasible
        with pytest.raises(ProblemTooLargeError):
            repair(wide, RepairConfig(mode=mode))
