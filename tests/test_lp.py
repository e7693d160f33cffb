import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volrepair.errors import (
    KmaxTooSmallError,
    ProblemTooLargeError,
    SolverError,
    VolRepairError,
)
from volrepair.grid import distance_matrix, Theta
from volrepair.lp import (
    LpProblem,
    _bland_simplex,
    check_feasibility,
    feasible_point,
    solve_eq_lsq,
    solve_lp,
    solve_p_prime,
)
from volrepair.signed_measure import decompose

from conftest import convex_ordered_pair, prepared, random_instance
from oracles import (
    kantorovich_dual_value,
    projection_formula,
    scipy_lp_value,
    vertex_enumeration_lp,
)


class TestSolveLp:
    def test_simplex_on_a_segment(self):
        prob = LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        prob = LpProblem([1.0], [[1.0], [1.0]], [1.0, 2.0])
        assert solve_lp(prob).status == "infeasible"

    def test_unbounded(self):
        prob = LpProblem([-1.0, 0.0], [[0.0, 1.0]], [1.0])
        assert solve_lp(prob).status == "unbounded"

    def test_size_cap(self):
        n = 5001
        prob = LpProblem(np.zeros(n), np.ones((1, n)), [1.0])
        with pytest.raises(ProblemTooLargeError):
            solve_lp(prob)

    def test_matches_vertex_enumeration_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10:
            n = int(rng.integers(4, 9))
            m = int(rng.integers(2, min(n, 5)))
            a = rng.normal(size=(m, n))
            x_feas = rng.uniform(0.1, 1.0, size=n)
            b = a @ x_feas  # guarantees feasibility
            c = rng.normal(size=n)
            sol = solve_lp(LpProblem(c, a, b))
            if sol.status == "unbounded":
                continue  # vertex value is not the LP value there
            best, _ = vertex_enumeration_lp(c, a, b)
            if sol.status == "infeasible":
                assert best is None
                continue
            assert best is not None
            assert sol.objective_value == pytest.approx(best, abs=1e-10)
            checked += 1

    def test_optimality_certificates(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 7))
        b = a @ rng.uniform(0.2, 1.0, size=7)
        c = rng.normal(size=7)
        sol = solve_lp(LpProblem(c, a, b))
        assert sol.status == "optimal"
        # primal feasibility, dual feasibility, complementary slackness
        assert np.max(np.abs(a @ sol.x - b)) <= 1e-9
        assert np.min(sol.reduced_costs) >= -1e-9
        assert np.max(np.abs(sol.x * sol.reduced_costs)) <= 1e-8

    def test_redundant_rows_handled(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        sol = solve_lp(LpProblem([1.0, 2.0], a, b))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-10)

    def test_iteration_cap_is_typed_error(self):
        a = np.array([[1.0, 1.0, 1.0]])  # last column: artificial basis
        with pytest.raises(SolverError) as info:
            _bland_simplex(np.array([0.0, 0.0, 1.0]), a, np.array([1.0]), [2], iter_cap=0)
        assert isinstance(info.value, VolRepairError)
        assert isinstance(info.value, ArithmeticError)


class TestFeasibility:
    def test_feasible_square(self):
        ok, infeas = check_feasibility(np.eye(2), [1.0, 2.0])
        assert ok and infeas == 0.0

    def test_infeasible_negative_orthant(self):
        ok, infeas = check_feasibility(np.array([[1.0, 1.0]]), [-1.0])
        assert not ok
        assert infeas > 0.5

    def test_redundant_row_of_a_kernel_system(self):
        # martingale couplings of two 3-point marginals in convex order: the
        # row sums, column sums and zero-mean rows are dependent, and the
        # artificial that stays basic at zero sits in a tableau position
        # other than its own constraint's index
        a, b = _kernel_rows(np.array([0.0, 1.0, 2.0]), [0.2, 0.6, 0.2], [0.3, 0.4, 0.3])
        ok, infeas = check_feasibility(a, b)
        assert ok and infeas == 0.0
        x, _ = feasible_point(a, b)
        assert x.min() >= 0.0
        assert np.max(np.abs(a @ x - b)) <= 1e-12

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7))
    def test_convex_ordered_pairs_have_a_martingale_coupling(self, seed, n):
        x, mu_from, mu_to = convex_ordered_pair(np.random.default_rng(seed), n)
        a, b = _kernel_rows(x, mu_from, mu_to)
        x_found, infeas = feasible_point(a, b)
        assert x_found is not None, f"phase-1 residual {infeas}"
        assert x_found.min() >= 0.0
        assert np.max(np.abs(a @ x_found - b)) <= 1e-9


def _kernel_rows(x, mu_from, mu_to):
    """pi >= 0 (L x L, row-major) with row sums mu_from, column sums mu_to
    and sum_b pi(a, b) (x_b - x_a) = 0 for every a."""
    l = x.size  # noqa: E741
    rows = []
    for i in range(l):
        rows.append(np.kron(np.eye(l)[i], np.ones(l)))
    for j in range(l):
        rows.append(np.kron(np.ones(l), np.eye(l)[j]))
    for i in range(l):
        rows.append(np.kron(np.eye(l)[i], x - x[i]))
    return np.array(rows), np.concatenate([mu_from, mu_to, np.zeros(l)])


class TestPPrime:
    def test_martingale_input_projects_to_itself(self):
        # nu already a martingale: Dirac at 1 on theta (0, 1, 2)
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        nu = np.array([0.0, 1.0, 0.0])
        nu_plus, nu_minus = decompose(nu, 1e-3)
        a = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, 1.0])
        dist = distance_matrix(theta, 1)
        coupling, mu, value = solve_p_prime(dist, nu_plus, nu_minus, a, b)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(mu, nu, atol=1e-10)

    def test_arbitrage_instance_against_oracles(self):
        rng = np.random.default_rng(23)
        surface = random_instance(rng, m=1, max_interior=2)
        prob = prepared(surface)
        coupling, mu, value = solve_p_prime(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        # feasibility of the projected measure
        assert np.min(mu) >= -1e-9
        assert np.max(np.abs(prob.system.A @ mu - prob.system.b)) <= 1e-9
        # Kantorovich-Rubinstein: value equals the Lipschitz-dual maximum
        dual = kantorovich_dual_value(prob.dist, mu - prob.nu.nu)
        assert value == pytest.approx(dual, abs=1e-8)

    def test_value_matches_scipy_oracle(self):
        rng = np.random.default_rng(29)
        surface = random_instance(rng, m=1, max_interior=3)
        prob = prepared(surface)
        n = prob.system.n_paths
        coupling, mu, value = solve_p_prime(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        # independent route: assemble the same LP and hand it to HiGHS
        n_rows = prob.system.A.shape[0]
        a = np.zeros((n + n_rows + n, n * n + n))
        b = np.zeros(n + n_rows + n)
        for p in range(n):
            a[p, p * n : (p + 1) * n] = 1.0
            a[p, n * n + p] = -1.0
            b[p] = prob.nu.nu_minus[p]
        a[n : n + n_rows, n * n :] = prob.system.A
        b[n : n + n_rows] = prob.system.b
        for q in range(n):
            a[n + n_rows + q, q : n * n : n] = 1.0
            b[n + n_rows + q] = prob.nu.nu_plus[q]
        cost = np.concatenate([prob.dist.reshape(-1), np.zeros(n)])
        oracle = scipy_lp_value(cost, a, b)
        assert oracle is not None
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_optimality_against_random_feasible_couplings(self):
        rng = np.random.default_rng(31)
        surface = random_instance(rng, m=1, max_interior=2)
        prob = prepared(surface)
        coupling, mu, value = solve_p_prime(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        n = prob.system.n_paths
        a_sys, b_sys = prob.system.A, prob.system.b
        found = 0
        for _ in range(400):
            if found >= 100:
                break
            # random feasible mu via a random LP objective, then a product coupling
            w = rng.normal(size=n)
            sol = solve_lp(LpProblem(w, a_sys, b_sys))
            if sol.status != "optimal":
                continue
            mu_rand = sol.x
            row = mu_rand + prob.nu.nu_minus
            candidate = np.outer(row, prob.nu.nu_plus) / prob.nu.nu_plus.sum()
            assert float((candidate * prob.dist).sum()) >= value - 1e-9
            found += 1
        assert found >= 100

    def test_infeasible_reports_kmax(self):
        theta = Theta(np.array([0.0, 0.5, 0.9]))  # k_max < 1: no unit-mean measure
        nu = np.array([0.2, 0.5, 0.3])
        nu_plus, nu_minus = decompose(nu, 1e-3)
        a = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 0.9]])
        b = np.array([1.0, 1.0])
        dist = distance_matrix(theta, 1)
        with pytest.raises(KmaxTooSmallError):
            solve_p_prime(dist, nu_plus, nu_minus, a, b)

    def test_decomposition_shift_invariance(self):
        rng = np.random.default_rng(37)
        surface = random_instance(rng, m=1, max_interior=2)
        prob_small = prepared(surface, shift=1e-3)
        prob_large = prepared(surface, shift=1e-2)
        _, mu1, value1 = solve_p_prime(
            prob_small.dist,
            prob_small.nu.nu_plus,
            prob_small.nu.nu_minus,
            prob_small.system.A,
            prob_small.system.b,
        )
        # recovered measure stays feasible under the other decomposition and
        # its distance to nu, recomputed there, is unchanged
        assert np.min(mu1) >= -1e-9
        _, _, value2 = solve_p_prime(
            prob_large.dist,
            prob_large.nu.nu_plus,
            prob_large.nu.nu_minus,
            prob_large.system.A,
            prob_large.system.b,
        )
        assert value1 == pytest.approx(value2, abs=1e-8)


class TestEqLsq:
    def test_identity_rows_pin_everything(self):
        x = solve_eq_lsq(np.eye(3), [1.0, 2.0, 3.0], np.zeros(3))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_no_rows_returns_target(self):
        x = solve_eq_lsq(np.zeros((0, 4)), np.zeros(0), np.arange(4.0))
        np.testing.assert_allclose(x, np.arange(4.0))

    def test_matches_projection_formula(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(5, 12))
        b = rng.normal(size=5)
        target = rng.normal(size=12)
        got = solve_eq_lsq(a, b, target)
        want = projection_formula(a, b, target)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert np.max(np.abs(a @ got - b)) <= 1e-10
        # a consistent duplicated row changes nothing
        dup = solve_eq_lsq(np.vstack([a, a[2]]), np.append(b, b[2]), target)
        np.testing.assert_allclose(dup, want, atol=1e-9)

    def test_rank_deficient_rejected(self):
        # the same row asked to equal 1 and 2: inconsistent
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SolverError):
            solve_eq_lsq(a, [1.0, 2.0], np.zeros(2))
