import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volrepair.entropic import (
    SAFE_EXPONENT,
    duality_gap,
    epsilon_sweep,
    gibbs_kernel,
    kl_divergence,
    root_find,
    sinkhorn_run,
)
from volrepair.errors import InstabilityError, SolverError
from volrepair.lp import solve_p_prime

from conftest import prepared, random_instance
from oracles import (
    dykstra_run,
    entropy,
    prox_vector,
    sinkhorn_iterates,
    stopping_criterion,
)


class TestGibbsKernel:
    def test_zero_distance_all_ones(self):
        kern = gibbs_kernel(np.zeros((3, 3)), 1.0)
        np.testing.assert_allclose(kern.G, 1.0)
        assert kern.floored_entries == 0

    def test_large_epsilon_limit(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        kern = gibbs_kernel(d, 1e9)
        assert np.max(np.abs(kern.G - 1.0)) <= 1e-9

    def test_unit_value(self):
        kern = gibbs_kernel(np.array([[1.0]]), 1.0)
        assert kern.G[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_underflow_floor(self):
        kern = gibbs_kernel(np.array([[2000.0]]), 1.0)
        assert kern.G[0, 0] == np.finfo(float).tiny
        assert kern.floored_entries == 1

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            gibbs_kernel(np.zeros((2, 2)), 0.0)


class TestKl:
    def test_self_divergence_zero(self):
        g = np.array([[0.5, 1.0], [2.0, 0.1]])
        assert kl_divergence(g, g) == 0.0

    def test_zero_entry_convention(self):
        m = np.array([[0.0, 1.0]])
        g = np.array([[0.5, 1.0]])
        assert kl_divergence(m, g) == pytest.approx(0.5)

    def test_negative_entry_is_infinite(self):
        assert kl_divergence(np.array([[-0.1]]), np.array([[1.0]])) == np.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.uniform(0.0, 2.0, size=(4, 4))
            g = rng.uniform(0.1, 2.0, size=(4, 4))
            assert kl_divergence(m, g) >= 0.0

    def test_entropy_remark_constants(self):
        pi1 = np.array([0.5, 0.5])
        pi2 = np.array([1.0 / 3.0] * 3)
        assert entropy(pi1) == pytest.approx(1.0 + np.log(2.0), abs=1e-12)
        assert entropy(pi2) == pytest.approx(1.0 + np.log(3.0), abs=1e-12)


class TestRootFind:
    def test_single_entry_closed_form(self):
        lam = root_find(np.array([1.0]), np.array([2.0]), 1.0)
        assert lam == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_satisfied_row_zero(self):
        lam = root_find(np.array([1.0, 1.0]), np.array([0.3, 0.7]), 1.0)
        assert abs(lam) <= 1e-9

    def test_symmetric_zero(self):
        lam = root_find(np.array([1.0, -1.0]), np.array([1.0, 1.0]), 0.0)
        assert abs(lam) <= 1e-12

    def test_warm_start_agrees_with_cold(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.normal(size=5)
            x = rng.uniform(0.1, 2.0, size=5)
            rhs = float(rng.uniform(0.1, 1.0)) * np.sign(np.sum(c * x))
            if rhs == 0.0:
                continue
            try:
                cold = root_find(c, x, rhs)
            except InstabilityError:
                continue
            warm = root_find(c, x, rhs, x0=cold + 0.37)
            assert warm == pytest.approx(cold, abs=1e-9, rel=1e-9)

    def test_unreachable_rhs_raises_instability(self):
        # positive row, negative rhs: no root; expansion must hit the cap
        with pytest.raises(InstabilityError):
            root_find(np.array([1.0, 2.0]), np.array([1.0, 1.0]), -1.0)

    def test_newton_overshoot_past_cap_is_not_fatal(self):
        # from the flat side Newton proposes a step past the exponent cap
        # (700 here) although the root sits at 13.8; the search must stay
        # inside the cap and find it
        c, x = np.array([1e-3, 1.0]), np.array([1.0, 1e-6])
        lam = root_find(c, x, 1.0)
        assert lam == pytest.approx(13.8145, abs=1e-4)
        assert abs(np.exp(lam * c) @ (c * x) - 1.0) <= 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        positive=st.booleans(),
        frac=st.floats(-0.5, 0.5),
        warm=st.one_of(st.none(), st.floats(-1.0, 1.0)),
    )
    def test_solves_every_root_inside_half_the_cap(self, data, n, positive, frac, warm):
        mags = data.draw(st.lists(st.floats(1e-4, 3.0), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        c = np.array(mags) * (1.0 if positive else np.array(signs))
        x = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
        safe_lam = SAFE_EXPONENT / np.max(np.abs(c))
        rhs = float(np.exp(frac * safe_lam * c) @ (c * x))
        x0 = None if warm is None else warm * safe_lam
        lam = root_find(c, x, rhs, x0=x0)
        assert abs(np.exp(lam * c) @ (c * x) - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_no_convergence_is_solver_error(self, monkeypatch):
        # without the exponent cap the same search runs out of steps
        import volrepair.entropic as ent

        monkeypatch.setattr(ent, "SAFE_EXPONENT", np.inf)
        with pytest.raises(SolverError, match="failed to converge"):
            root_find(np.array([1.0, 2.0]), np.array([1.0, 1.0]), -1.0)


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(101)
    surface = random_instance(rng, m=1, max_interior=3)
    return prepared(surface)


class TestProx:
    def test_fixed_marginal_substep(self, small_problem):
        prob = small_problem
        r_fixed = prob.system.n_rows + 2
        x = np.full(prob.system.n_paths, 0.7)
        out = prox_vector(r_fixed, x, prob.system, prob.nu)
        np.testing.assert_allclose(out, prob.nu.nu_plus)

    def test_box_substep_componentwise_max(self, small_problem):
        prob = small_problem
        r_box = prob.system.n_rows + 1
        x = np.full(prob.system.n_paths, 1e-9)
        out = prox_vector(r_box, x, prob.system, prob.nu)
        np.testing.assert_allclose(out, np.maximum(x, prob.nu.nu_minus))

    def test_mass_row_already_satisfied(self, small_problem):
        prob = small_problem
        rhs = prob.system.b + prob.system.A @ prob.nu.nu_minus
        x = np.full(prob.system.n_paths, rhs[0] / prob.system.n_paths)
        out = prox_vector(1, x, prob.system, prob.nu)
        np.testing.assert_allclose(out, x, rtol=1e-9)

    def test_affine_substep_lands_on_constraint(self, small_problem):
        prob = small_problem
        rhs = prob.system.b + prob.system.A @ prob.nu.nu_minus
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 0.4, size=prob.system.n_paths)
        for r in range(1, prob.system.n_rows + 1):
            out = prox_vector(r, x, prob.system, prob.nu)
            got = float(prob.system.A[r - 1] @ out)
            assert got == pytest.approx(float(rhs[r - 1]), abs=1e-9, rel=1e-9)


class TestSinkhornDykstra:
    def test_iterates_match_reference(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 0.5)
        ms, _ = sinkhorn_iterates(kern, prob.system, prob.nu, 50)
        xs, _ = dykstra_run(kern, prob.system, prob.nu, 50)
        worst = max(
            float(np.max(np.abs(m - x)))
            for mm, xx in zip(ms, xs)
            for m, x in zip(mm, xx)
        )
        assert worst <= 1e-10

    def test_first_substep_is_prox_of_kernel(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 1.0)
        xs, _ = dykstra_run(kern, prob.system, prob.nu, 1)
        rhs = prob.system.b + prob.system.A @ prob.nu.nu_minus
        row_sums = kern.G.sum(axis=1)
        support = np.nonzero(prob.system.A[0])[0]
        lam = root_find(
            prob.system.A[0][support], row_sums[support], float(rhs[0])
        )
        expect = np.exp(lam * prob.system.A[0])[:, None] * kern.G
        np.testing.assert_allclose(xs[0][0], expect, rtol=1e-12, atol=1e-15)

    def test_q_matrices_rank_one_structure(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 0.7)
        _, scalings = sinkhorn_iterates(kern, prob.system, prob.nu, 6)
        _, q_hist = dykstra_run(kern, prob.system, prob.nu, 6)
        n_blocks = prob.system.n_rows + 2
        for sweep in (0, 2, 5):
            a = scalings[sweep]
            qs = q_hist[sweep]
            for r in range(n_blocks - 1):  # row-structured
                expect = np.tile((1.0 / a[r])[:, None], (1, prob.system.n_paths))
                np.testing.assert_allclose(qs[r], expect, rtol=1e-9)
            expect_col = np.tile(1.0 / a[-1][None, :], (prob.system.n_paths, 1))
            np.testing.assert_allclose(qs[-1], expect_col, rtol=1e-9)


class TestSinkhornRun:
    def test_converges_on_toy_instance(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 1.0)
        _, _, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=5e-6, max_iters=50_000
        )
        assert report.converged
        assert report.final_criterion < 5e-6
        assert len(report.history) == report.iterations + 1
        assert all(np.isfinite(h["criterion"]) for h in report.history)

    def test_returned_coupling_reconstructs_from_scalings(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 0.8)
        m, scalings, _ = sinkhorn_run(kern, prob.system, prob.nu, e_tol=1e-8)
        rho = np.prod(scalings[:-1], axis=0)
        rebuilt = (rho[:, None] * kern.G) * scalings[-1][None, :]
        assert np.max(np.abs(rebuilt - m)) <= 1e-13 * max(1.0, float(np.max(m)))

    def test_column_marginal_exact_after_final_substep(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 0.8)
        ms, _ = sinkhorn_iterates(kern, prob.system, prob.nu, 3)
        for sweep in ms:
            final = sweep[-1]
            np.testing.assert_allclose(
                final.sum(axis=0), prob.nu.nu_plus, atol=1e-12
            )

    def test_fixed_point_when_feasible(self, small_problem):
        # once the criterion is ~0, one more full sweep must not move scalings
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 1.0)
        m, scalings, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=1e-12, max_iters=200_000
        )
        assert report.converged
        before = [v.copy() for v in scalings]
        m2, scalings2, _ = sinkhorn_run(
            kern,
            prob.system,
            prob.nu,
            e_tol=0.0,
            max_iters=1,
            initial_scalings=before,
            objective_every=None,
        )
        for v1, v2 in zip(before, scalings2):
            assert np.max(np.abs(v2 / v1 - 1.0)) <= 1e-10

    def test_feasible_coupling_satisfies_all_constraints(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 1.0)
        m, _, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=1e-12, max_iters=200_000
        )
        assert report.converged
        assert stopping_criterion(m, prob.system, prob.nu) <= 1e-10


class TestSingleSweep:
    """The solver loop and the iterates C1 checks run one and the same sweep."""

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(1, 2),
        eps=st.sampled_from([0.5, 1.0]),
        k=st.integers(1, 12),
        every=st.integers(1, 5),
    )
    def test_run_matches_iterates_bitwise(self, seed, m, eps, k, every):
        prob = prepared(random_instance(np.random.default_rng(seed), m=m, max_interior=3))
        kern = gibbs_kernel(prob.dist, eps)
        coupling, run_scalings, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=0.0, max_iters=k, objective_every=every
        )
        couplings, scalings = sinkhorn_iterates(kern, prob.system, prob.nu, k)
        n_aff = prob.system.n_rows
        # the run stops at the (k, R-1) iterate, before the column substep
        assert np.array_equal(coupling, couplings[k - 1][n_aff])
        for got, want in zip(run_scalings[:-1], scalings[k - 1][:-1]):
            assert np.array_equal(got, want)
        assert report.iterations == k and not report.converged
        assert [h["n"] for h in report.history] == list(range(k + 1))
        for h in report.history:
            on_stride = h["n"] % every == 0
            assert ("primal_kl" in h) == on_stride
            assert ("duality_gap" in h) == on_stride


class TestStoppingCriterion:
    def test_zero_for_feasible_coupling(self, small_problem):
        prob = small_problem
        n = prob.system.n_paths
        from volrepair.lp import solve_p_prime as _pp

        coupling, mu, _ = _pp(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        assert stopping_criterion(coupling, prob.system, prob.nu) <= 1e-9

    def test_positive_for_raw_kernel(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 1.0)
        assert stopping_criterion(kern.G, prob.system, prob.nu) > 1e-3


class TestDualityGap:
    def test_small_gap_at_convergence(self, small_problem):
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 0.6)
        m, scalings, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=1e-10, max_iters=200_000
        )
        assert report.converged
        gap = duality_gap(m, scalings, kern, prob.system, prob.nu)
        assert gap >= -1e-8
        assert gap <= 1e-6 * (1.0 + abs(report.primal_kl))

    def test_zero_gap_at_all_ones_scalings(self, small_problem):
        # with unit scalings both objectives vanish identically
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 1.0)
        n = prob.system.n_paths
        scalings = [np.ones(n) for _ in range(prob.system.n_rows + 2)]
        gap = duality_gap(kern.G, scalings, kern, prob.system, prob.nu)
        assert abs(gap) <= 1e-12


class TestEpsilonSweep:
    def test_costs_decrease_toward_lp_value(self, small_problem):
        # the quantitative 1%-of-LP claim lives in the acceptance suite,
        # which runs the full schedule on the desk fixture
        prob = small_problem
        _, _, lp_value = solve_p_prime(
            prob.dist,
            prob.nu.nu_plus,
            prob.nu.nu_minus,
            prob.system.A,
            prob.system.b,
        )
        entries = epsilon_sweep(
            prob.dist,
            prob.nu,
            prob.system,
            [0.5, 0.1, 0.02],
            e_tol=1e-8,
            max_iters=300_000,
        )
        assert all(e.converged for e in entries)
        gaps = [abs(e.cost - lp_value) for e in entries]
        assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_warm_start_matches_cold_start(self, small_problem):
        prob = small_problem
        sweep = epsilon_sweep(
            prob.dist, prob.nu, prob.system, [0.8, 0.4], e_tol=1e-10,
            max_iters=300_000,
        )
        kern = gibbs_kernel(prob.dist, 0.4)
        m_cold, _, rep = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=1e-10, max_iters=300_000
        )
        cost_cold = float((m_cold * prob.dist).sum())
        assert rep.converged
        assert abs(sweep[-1].cost - cost_cold) <= 1e-8

    def test_large_epsilon_smoke(self, small_problem):
        prob = small_problem
        entries = epsilon_sweep(
            prob.dist, prob.nu, prob.system, [1e9], e_tol=1e-8, max_iters=100_000
        )
        assert entries[0].converged
        assert np.isfinite(entries[0].cost)

    def test_rejects_bad_lists(self, small_problem):
        prob = small_problem
        with pytest.raises(ValueError):
            epsilon_sweep(prob.dist, prob.nu, prob.system, [])
        with pytest.raises(ValueError):
            epsilon_sweep(prob.dist, prob.nu, prob.system, [0.1, 0.5])

    def test_instability_recorded_and_sweep_continues(self, small_problem, monkeypatch):
        prob = small_problem
        import volrepair.entropic as ent

        real_run = ent.sinkhorn_run

        def flaky(kernel, *args, **kwargs):
            if abs(kernel.epsilon - 0.4) < 1e-12:
                raise InstabilityError(3)
            return real_run(kernel, *args, **kwargs)

        monkeypatch.setattr(ent, "sinkhorn_run", flaky)
        entries = ent.epsilon_sweep(
            prob.dist, prob.nu, prob.system, [0.8, 0.4, 0.2], e_tol=1e-6
        )
        assert entries[0].converged and entries[0].error is None
        assert entries[1].error is not None and entries[1].cost is None
        assert entries[2].converged and entries[2].error is None
