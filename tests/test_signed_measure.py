import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volrepair import lp
from volrepair.constraints import build_joint_system, build_martingale_system
from volrepair.errors import SolverError
from volrepair.grid import Theta, extract_marginal
from volrepair.market_data import StressScenario, apply_stress
from volrepair.signed_measure import (
    JointSignedMeasure,
    build_joint,
    decompose,
    marginal_weights,
    product_target,
)

from conftest import make_surface, prepared, random_instance
from oracles import check_lemma_identity, pricing_function, projection_formula


def theta_012():
    return Theta(np.array([0.0, 1.0, 2.0]))


class TestMarginalWeights:
    def test_symmetric_tent(self):
        marg = marginal_weights([0.0, 1.0, 2.0], [1.0, 0.25, 0.0], theta_012())
        np.testing.assert_allclose(marg.weights, [0.25, 0.5, 0.25], atol=1e-15)
        assert marg.weights @ marg.theta.strikes == pytest.approx(1.0, abs=1e-15)

    def test_dirac_at_forward(self):
        marg = marginal_weights([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], theta_012())
        np.testing.assert_allclose(marg.weights, [0.0, 1.0, 0.0], atol=1e-15)

    def test_negative_weight_flags_arbitrage(self):
        theta = Theta(np.array([0.0, 0.5, 1.0, 2.0]))
        marg = marginal_weights(
            [0.0, 0.5, 1.0, 2.0], [1.0, 0.3, 0.6, 0.0], theta
        )
        assert marg.weights[0] == pytest.approx(-0.4, abs=1e-15)
        assert marg.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unit_mass_and_mean_on_random_smiles(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            ks = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 1.8, n)), [2.5]])
            while np.min(np.diff(ks)) < 1e-3:
                ks = np.concatenate([[0.0], np.sort(rng.uniform(0.3, 1.8, n)), [2.5]])
            cs = np.concatenate([[1.0], rng.uniform(0.0, 0.9, n), [0.0]])
            theta = Theta(ks)
            marg = marginal_weights(ks, cs, theta)
            assert marg.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert marg.weights @ marg.theta.strikes == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_strikes_guarded(self):
        with pytest.raises(ZeroDivisionError):
            marginal_weights([0.0, 1.0, 1.0, 2.0], [1.0, 0.2, 0.2, 0.0], theta_012())

    def test_arbitrage_free_smile_gives_probability_weights(self, desk_surface):
        from volrepair.grid import build_theta, choose_kmax

        k_max = choose_kmax(desk_surface)
        theta = build_theta(desk_surface, k_max)
        ks = np.concatenate([[0.0], desk_surface.strikes[0], [k_max]])
        cs = np.concatenate([[1.0], desk_surface.prices[0], [0.0]])
        marg = marginal_weights(ks, cs, theta)
        assert np.all(marg.weights >= -1e-14)
        assert marg.weights @ marg.theta.strikes == pytest.approx(1.0, abs=1e-12)


class TestPricingFunction:
    def test_nodes_reproduced(self):
        ks = [0.0, 1.0, 2.0]
        cs = [1.0, 0.25, 0.0]
        for k, c in zip(ks, cs):
            assert pricing_function(ks, cs, k) == pytest.approx(c, abs=1e-15)

    def test_linear_midpoint(self):
        assert pricing_function(
            [0.0, 1.0, 2.0], [1.0, 0.25, 0.0], 0.5
        ) == pytest.approx(0.625)

    def test_zero_beyond_kmax(self):
        assert pricing_function([0.0, 1.0, 2.0], [1.0, 0.25, 0.0], 3.0) == 0.0
        assert pricing_function([0.0, 1.0, 2.0], [1.0, 0.25, 0.0], 2.0) == 0.0


class TestLemmaIdentity:
    def test_residual_at_nodes_and_midpoints(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            ks = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.9, n)), [2.2]])
            while np.min(np.diff(ks)) < 1e-3:
                ks = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.9, n)), [2.2]])
            cs = np.concatenate([[1.0], rng.uniform(0.01, 0.95, n), [0.0]])
            theta = Theta(ks)
            marg = marginal_weights(ks, cs, theta)
            probes = np.concatenate([ks, (ks[:-1] + ks[1:]) / 2.0])
            for k in probes:
                assert check_lemma_identity(marg, ks, cs, float(k)) <= 1e-12

    def test_mass_and_mean_case(self):
        ks = [0.0, 1.0, 2.0]
        cs = [1.0, 0.25, 0.0]
        marg = marginal_weights(ks, cs, theta_012())
        assert check_lemma_identity(marg, ks, cs, 0.0) <= 1e-15

    def test_beyond_kmax_zero(self):
        ks = [0.0, 1.0, 2.0]
        cs = [1.0, 0.25, 0.0]
        marg = marginal_weights(ks, cs, theta_012())
        assert check_lemma_identity(marg, ks, cs, 2.5) == 0.0


class TestDecompose:
    def test_no_negative_part(self):
        plus, minus = decompose(np.array([0.5, 0.5]), 0.001)
        np.testing.assert_allclose(plus, [0.501, 0.501])
        np.testing.assert_allclose(minus, [0.001, 0.001])

    def test_componentwise(self):
        plus, minus = decompose(np.array([1.2, -0.2]), 0.01)
        np.testing.assert_allclose(plus, [1.21, 0.01])
        np.testing.assert_allclose(minus, [0.01, 0.21])

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(3)
        nu = rng.normal(size=40)
        plus, minus = decompose(nu, 1e-3)
        assert np.max(np.abs((plus - minus) - nu)) == 0.0
        assert np.all(plus > 0) and np.all(minus > 0)

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            decompose(np.array([1.0]), 0.0)


class TestBuildJoint:
    def test_one_period_returns_marginal(self):
        theta = theta_012()
        marg = marginal_weights([0.0, 1.0, 2.0], [1.0, 0.25, 0.0], theta)
        base = build_martingale_system(theta, 1)
        system = build_joint_system(base, [marg])
        joint = build_joint([marg], system)
        np.testing.assert_allclose(joint.nu, marg.weights, atol=1e-10)

    def test_dirac_marginals_force_dirac_path(self):
        theta = theta_012()
        dirac = marginal_weights([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], theta)
        base = build_martingale_system(theta, 2)
        system = build_joint_system(base, [dirac, dirac])
        joint = build_joint([dirac, dirac], system)
        expect = np.zeros(9)
        expect[4] = 1.0  # path (1, 1) in flat order
        np.testing.assert_allclose(joint.nu, expect, atol=1e-9)

    def test_matches_independent_projection_oracle(self):
        rng = np.random.default_rng(43)
        surface = random_instance(rng, m=2, max_interior=2)
        prob = prepared(surface)
        system = build_joint_system(prob.base_system, prob.marginals)
        target = product_target(prob.marginals)
        want = projection_formula(system.A, system.b, target)
        joint = build_joint(prob.marginals, system)
        np.testing.assert_allclose(joint.nu, want, atol=1e-9)

    def test_alpha_is_positive_mass(self):
        nu = np.array([0.7, 0.5, -0.2])
        plus, minus = decompose(nu, 0.01)
        joint = JointSignedMeasure(nu=nu, nu_plus=plus, nu_minus=minus)
        assert joint.alpha == pytest.approx(plus.sum())

    def test_marginals_reproduced_on_random_instance(self):
        rng = np.random.default_rng(47)
        surface = random_instance(rng, m=2, max_interior=2)
        prob = prepared(surface)
        l, m = prob.theta.l, prob.m
        tensor = prob.nu.nu.reshape((l,) * m)
        for i, marg in enumerate(prob.marginals):
            axes = tuple(ax for ax in range(m) if ax != i)
            np.testing.assert_allclose(
                tensor.sum(axis=axes), marg.weights, atol=1e-9
            )

    def test_objective_not_beaten_by_other_feasible_points(self):
        # any other solution of the joint system is at least as far from the
        # product target (optimality spot check via the min-norm solution)
        rng = np.random.default_rng(53)
        surface = random_instance(rng, m=2, max_interior=2)
        prob = prepared(surface)
        system = build_joint_system(prob.base_system, prob.marginals)
        target = product_target(prob.marginals)
        d_opt = float(np.sum((prob.nu.nu - target) ** 2))
        x_minnorm, *_ = np.linalg.lstsq(system.A, system.b, rcond=None)
        assert np.max(np.abs(system.A @ x_minnorm - system.b)) <= 1e-9
        d_other = float(np.sum((x_minnorm - target) ** 2))
        assert d_opt <= d_other + 1e-12
        for _ in range(20):
            null_step = rng.normal(size=system.A.shape[1])
            null_step -= system.A.T @ np.linalg.lstsq(
                system.A @ system.A.T, system.A @ null_step, rcond=None
            )[0]
            candidate = prob.nu.nu + null_step
            d_cand = float(np.sum((candidate - target) ** 2))
            assert d_opt <= d_cand + 1e-12

    @staticmethod
    def _assert_lift(prob):
        """nu is the projection of the product, carries the marginals and
        satisfies every martingality row."""
        l, m = prob.theta.l, prob.m  # noqa: E741
        system = build_joint_system(prob.base_system, prob.marginals)
        joint = build_joint(prob.marginals, system)
        want = projection_formula(system.A, system.b, product_target(prob.marginals))
        np.testing.assert_allclose(joint.nu, want, atol=1e-9)
        for i, marg in enumerate(prob.marginals):
            got = extract_marginal(joint.nu, l, m, i + 1)
            np.testing.assert_allclose(got, marg.weights, atol=1e-9)
        base = prob.base_system
        mart = [r for r, kind in enumerate(base.row_kinds) if kind[0] == "martingality"]
        np.testing.assert_allclose(base.A[mart] @ joint.nu, 0.0, atol=1e-9)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(1, 2))
    def test_lift_on_random_instances(self, seed, m):
        self._assert_lift(prepared(random_instance(np.random.default_rng(seed), m=m)))

    def test_lift_three_periods(self):
        ks = [0.9, 1.0, 1.1, 1.2]
        surface = make_surface(
            [0.25, 0.5, 1.0],
            [ks] * 3,
            [(lambda s: (lambda k: 0.2 + s + 0.3 * (k - 1) ** 2))(0.03 * i) for i in range(3)],
        )
        scen = StressScenario(bands={i: (((0.99, 1.01), 1.4),) for i in range(3)})
        prob = prepared(apply_stress(surface, scen))
        assert prob.theta.l**3 == 216
        self._assert_lift(prob)

    @staticmethod
    def _two_period_problem():
        prob = prepared(random_instance(np.random.default_rng(59), m=2, max_interior=2))
        return prob, build_joint_system(prob.base_system, prob.marginals)

    def test_marginal_residual_is_solver_error(self, monkeypatch):
        prob, system = self._two_period_problem()
        exact = lp.solve_eq_lsq

        def off_by_mass(a, b, target):
            nu = exact(a, b, target)
            nu[0] += 1e-6  # first marginal gains mass
            return nu

        monkeypatch.setattr(lp, "solve_eq_lsq", off_by_mass)
        with pytest.raises(SolverError, match="marginal 1"):
            build_joint(prob.marginals, system)

    def test_system_residual_is_solver_error(self, monkeypatch):
        prob, system = self._two_period_problem()
        l = prob.theta.l  # noqa: E741
        exact = lp.solve_eq_lsq
        # (e_1 - e_2) x (e_1 - e_2): zero marginals, nonzero martingale rows
        swap = np.zeros((l, l))
        swap[1, 1] = swap[2, 2] = 1e-6
        swap[1, 2] = swap[2, 1] = -1e-6

        def off_martingale(a, b, target):
            return exact(a, b, target) + swap.reshape(-1)

        monkeypatch.setattr(lp, "solve_eq_lsq", off_martingale)
        with pytest.raises(SolverError, match="joint system residual"):
            build_joint(prob.marginals, system)
