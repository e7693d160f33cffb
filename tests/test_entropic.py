import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volrepair.entropic as ent
from volrepair.entropic import (
    SAFE_EXPONENT,
    duality_gap,
    epsilon_sweep,
    gibbs_kernel,
    kl_divergence,
    root_find,
    sinkhorn_run,
)
from volrepair.errors import InstabilityError, InvalidConfigError, SolverError
from volrepair.lp import solve_p_prime
from volrepair.market_data import StressScenario, apply_stress

from conftest import make_surface, prepared, random_instance
from oracles import (
    dense_objectives,
    dykstra_run,
    entropy,
    prox_vector,
    sinkhorn_iterates,
    stopping_criterion,
)


def _no_run(*args, **kwargs):
    raise AssertionError("a solve started")


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


def _root_find_evals(c, x, rhs, x0=None) -> tuple[float, int]:
    """root_find's result and how many times it evaluated the function."""
    calls = []
    real_exp = ent.np.exp

    def counting_exp(*args, **kwargs):
        calls.append(None)
        return real_exp(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent.np, "exp", counting_exp)
        lam = root_find(c, x, rhs, x0=x0)
    return lam, len(calls)


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

    def test_polish_never_evaluates_past_the_cap(self):
        # from the flat tail at -65.9 the Newton step lands near 8e12, far
        # past the cap (252.6), where exp overflows; rhs sits below the
        # absolute tolerance (1e-12), so the row stops on the relative
        # residual and both starts must reach the true root near -33.0
        c, x = np.array([2.7712, 0.9]), np.array([3.0, 2.5])
        rhs = 2.8e-13
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = root_find(c, x, rhs, x0=-65.9)
            cold = root_find(c, x, rhs)
        for root in (lam, cold):
            assert abs(np.exp(root * c) @ (c * x) - rhs) <= 1e-12 * rhs
        assert lam == pytest.approx(cold, rel=1e-12)

    def test_warm_started_row_settles_in_a_few_evaluations(self):
        # a centering-type row captured from an m=2 repair with a calibration
        # mark, warm-started 1e-3 short of its root as in a late sweep
        c = np.array([-1.1, -0.2, -0.15, -0.1, -0.05, 0.11])
        x = np.array(
            [14.982865713347, 0.042557078164524, 0.044183129859685,
             0.044697225770651, 0.044076925425235, 0.037061118377799]
        )
        rhs = -0.013388175358148317
        lam, evals = _root_find_evals(c, x, rhs, x0=6.496479603368)
        assert lam == pytest.approx(6.4974816653, abs=1e-9)
        assert abs(np.exp(lam * c) @ (c * x) - rhs) <= 1e-12
        assert evals <= 5

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        positive=st.booleans(),
        frac=st.floats(-0.5, 0.5),
        offset=st.floats(-1e-3, 1e-3),
    )
    def test_warm_start_near_the_root_is_cheap(self, data, n, positive, frac, offset):
        mags = data.draw(st.lists(st.floats(1e-4, 3.0), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        c = np.array(mags) * (1.0 if positive else np.array(signs))
        x = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
        root = frac * SAFE_EXPONENT / np.max(np.abs(c))
        rhs = float(np.exp(root * c) @ (c * x))
        lam, evals = _root_find_evals(c, x, rhs, x0=root + offset * max(1.0, abs(root)))
        assert abs(np.exp(lam * c) @ (c * x) - rhs) <= 1e-9 * max(1.0, abs(rhs))
        assert evals <= 6

    def test_tiny_rhs_one_sign_row_finds_its_root(self):
        # captured from a stress run: both coefficients positive and rhs below
        # the absolute tolerance (1e-12), so any lam far enough out used to
        # pass; the solver returned -87.84 for a root near -35.67
        c, x, rhs = np.array([2.772, 0.826]), np.array([3.166, 2.707]), 3.57e-13
        lam = root_find(c, x, rhs)
        assert lam == pytest.approx(-35.6728, abs=1e-4)
        assert abs(np.exp(lam * c) @ (c * x) - rhs) <= 1e-12 * rhs
        # the same row as one lane of a level, next to an ordinary row
        blk, xs = _level([(c, x), (np.array([1.0, -0.5]), np.array([1.0, 2.0]))], [rhs, 0.3])
        blk.scaling(xs)
        assert blk.lam[0] == pytest.approx(lam, rel=1e-12)

    def test_no_convergence_is_solver_error(self, monkeypatch):
        # without the exponent cap the same search runs out of steps
        monkeypatch.setattr(ent, "SAFE_EXPONENT", np.inf)
        with pytest.raises(SolverError, match="failed to converge"):
            root_find(np.array([1.0, 2.0]), np.array([1.0, 1.0]), -1.0)


def _level(lanes, rhs, start=0):
    """A level block whose row j has the coefficients lanes[j][0] on paths of
    its own, and the image those paths carry (lanes[j][1], concatenated)."""
    seg = np.repeat(np.arange(len(lanes)), [len(c) for c, _ in lanes])
    coef = np.concatenate([np.asarray(c, dtype=float) for c, _ in lanes])
    x = np.concatenate([np.asarray(xx, dtype=float) for _, xx in lanes])
    rhs = np.asarray(rhs, dtype=float)
    return ent._Affine(start, start + len(lanes), np.arange(seg.size), seg, coef, rhs), x


def _lane(data):
    """Coefficients, image and a root within half the cap, as in TestRootFind."""
    n = data.draw(st.integers(1, 5))
    mags = np.array(data.draw(st.lists(st.floats(1e-4, 3.0), min_size=n, max_size=n)))
    if not data.draw(st.booleans()):
        mags = mags * np.array(
            data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        )
    x = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    safe_lam = SAFE_EXPONENT / np.max(np.abs(mags))
    root = data.draw(st.floats(-0.5, 0.5)) * safe_lam
    return mags, x, float(np.exp(root * mags) @ (mags * x)), root, safe_lam


class TestLevelRoots:
    """One vectorized Newton over a level's rows against one root_find per row."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), k=st.integers(2, 6), start=st.sampled_from(["cold", "near", "far"]))
    def test_matches_per_row_root_find(self, data, k, start):
        lanes = [_lane(data) for _ in range(k)]
        blk, x = _level([(c, xx) for c, xx, *_ in lanes], [r for _, _, r, *_ in lanes])
        warm = [None] * k
        if start != "cold":
            for j, (_, _, _, root, safe_lam) in enumerate(lanes):
                if start == "near":
                    warm[j] = root + data.draw(st.floats(-1e-3, 1e-3)) * max(1.0, abs(root))
                else:
                    warm[j] = data.draw(st.floats(-1.0, 1.0)) * safe_lam
            blk.lam = np.array(warm)
        blk.scaling(x)
        for j, (c, xx, rhs, _, safe_lam) in enumerate(lanes):
            want = root_find(c, xx, rhs, x0=warm[j])
            # relative in the lane's own unit 1/max|c|: the scalings
            # exp(lam c) agree to 1e-12
            unit = safe_lam / SAFE_EXPONENT
            assert abs(blk.lam[j] - want) <= 1e-12 * max(unit, abs(want))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(2, 5),
        first=st.integers(0, 40),
        unreachable=st.booleans(),
    )
    def test_lane_past_the_cap_names_its_substep(self, data, k, first, unreachable):
        lanes = [_lane(data)[:3] for _ in range(k)]
        j = data.draw(st.integers(0, k - 1))
        if unreachable:  # positive row, negative rhs: no root at all
            lanes[j] = (np.array([1.0, 2.0]), np.array([1.0, 1.0]), -1.0)
        else:  # root log(1e307) = 706.9, past the cap of 700
            lanes[j] = (np.array([1.0]), np.array([1e-306]), 10.0)
        blk, x = _level([(c, xx) for c, xx, _ in lanes], [r for *_, r in lanes], first)
        with pytest.raises(InstabilityError) as err:
            blk.scaling(x)
        assert err.value.substep == first + j + 1


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


def _three_period_problem(ks, mult):
    """m=3 surface on three shared strikes, the middle one's price bumped."""
    vol_fns = [(lambda sh: (lambda k: 0.2 + sh + 0.3 * (k - 1) ** 2))(0.03 * i) for i in range(3)]
    surface = make_surface([0.25, 0.5, 1.0], [ks] * 3, vol_fns)
    node = ks[1]
    bands = {i: (((node - 1e-9, node + 1e-9), mult),) for i in range(3)}
    return prepared(apply_stress(surface, StressScenario(bands=bands)))


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

    @pytest.mark.parametrize("ks,mult,eps", [((0.9, 1.0, 1.1), 1.5, 0.5),
                                             ((0.85, 0.97, 1.12), 1.4, 1.0)])
    def test_three_periods_match_reference(self, ks, mult, eps):
        # C1 draws m <= 2, so it never reaches a second martingality level
        prob = _three_period_problem(ks, mult)
        assert prob.theta.l <= 5
        kern = gibbs_kernel(prob.dist, eps)
        ms, _ = sinkhorn_iterates(kern, prob.system, prob.nu, 20)
        xs, _ = dykstra_run(kern, prob.system, prob.nu, 20)
        assert len(ms[0]) == prob.system.n_rows + 2
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

    def test_scalar_root_finds_only_for_single_rows(self, monkeypatch):
        # mass and centering are rows of their own; the 5 + 25 martingality
        # rows are two levels, each solved by one vectorized Newton. Lanes
        # fall back to root_find only from the first sweep's cold start.
        prob = _three_period_problem((0.9, 1.0, 1.1), 1.5)
        kern = gibbs_kernel(prob.dist, 0.5)
        real_root_find = ent.root_find
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["label"])
            return real_root_find(*args, **kwargs)

        monkeypatch.setattr(ent, "root_find", counting)
        k = 30
        _, _, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=0.0, max_iters=k
        )
        assert prob.system.n_rows == 32 and report.row_blocks == 4
        assert calls.count(1) == calls.count(2) == k
        assert len(calls) <= 2 * k + 30

    def test_overlapping_rows_tagged_as_one_level_run_one_by_one(self):
        # a level is one block only where its rows really touch disjoint paths
        surface = random_instance(np.random.default_rng(5), m=1, max_interior=3)
        prob = prepared(surface, calibration_marks=((0, 0), (0, 1)))
        system = prob.system
        tagged = dataclasses.replace(
            system,
            row_kinds=system.row_kinds[:2] + (("martingality", 1, (1,)), ("martingality", 1, (2,))),
        )
        kern = gibbs_kernel(prob.dist, 0.7)
        runs = [
            sinkhorn_run(kern, sys_, prob.nu, e_tol=0.0, max_iters=5)
            for sys_ in (system, tagged)
        ]
        assert runs[1][2].row_blocks == system.n_rows == 4
        assert np.array_equal(runs[0][0], runs[1][0])

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
    )
    def test_run_matches_iterates_bitwise(self, seed, m, eps, k):
        prob = prepared(random_instance(np.random.default_rng(seed), m=m, max_interior=3))
        kern = gibbs_kernel(prob.dist, eps)
        coupling, run_scalings, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=0.0, max_iters=k
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
            on_stride = h["n"] % ent.OBJECTIVES_EVERY == 0 or h["n"] == k
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

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(1, 2),
        eps=st.sampled_from([0.5, 1.0]),
        k=st.integers(1, 12),
    )
    def test_objectives_match_dense_reference(self, seed, m, eps, k):
        # the report's objectives come from the marginals; the reference sums
        # the KL over the N x N coupling
        prob = prepared(random_instance(np.random.default_rng(seed), m=m, max_interior=3))
        kern = gibbs_kernel(prob.dist, eps)
        coupling, scalings, report = sinkhorn_run(
            kern, prob.system, prob.nu, e_tol=0.0, max_iters=k
        )
        primal, gap = dense_objectives(coupling, scalings, kern, prob.system, prob.nu)
        tol = 1e-12 * max(1.0, abs(primal))
        assert abs(report.primal_kl - primal) <= tol
        assert abs(report.duality_gap - gap) <= tol
        assert (report.primal_kl, report.duality_gap) == (
            report.history[-1]["primal_kl"],
            report.history[-1]["duality_gap"],
        )
        lib_gap = duality_gap(coupling, scalings, kern, prob.system, prob.nu)
        assert abs(lib_gap - gap) <= tol

    def test_run_forms_one_coupling_and_no_dense_kl(self, small_problem, monkeypatch):
        # objectives come from the marginals: the returned coupling is the
        # only N x N array a run builds, and the dense KL is never reached
        prob = small_problem
        kern = gibbs_kernel(prob.dist, 0.7)
        real_coupling = ent._Sweep.coupling
        calls = []

        def counting_coupling(self):
            calls.append(None)
            return real_coupling(self)

        def no_kl(m, g):
            raise AssertionError("kl_divergence called")

        monkeypatch.setattr(ent._Sweep, "coupling", counting_coupling)
        monkeypatch.setattr(ent, "kl_divergence", no_kl)
        for k in (1, 2 * ent.OBJECTIVES_EVERY + 1):
            calls.clear()
            _, _, report = sinkhorn_run(kern, prob.system, prob.nu, e_tol=0.0, max_iters=k)
            assert len(calls) == 1
            rows = [h["n"] for h in report.history if "primal_kl" in h]
            assert rows == sorted({0, k} | set(range(0, k, ent.OBJECTIVES_EVERY)))


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

    @pytest.mark.parametrize("eps_list", [[np.inf, 1.0], [np.nan]])
    def test_rejects_non_finite_epsilons(self, small_problem, monkeypatch, eps_list):
        # inf would run a solve on G = 1 and report it converged
        prob = small_problem
        monkeypatch.setattr(ent, "sinkhorn_run", _no_run)
        with pytest.raises(InvalidConfigError):
            epsilon_sweep(prob.dist, prob.nu, prob.system, eps_list)

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
