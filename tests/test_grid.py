import numpy as np
import pytest

from volrepair.errors import DegenerateCalibrationError, InvalidKmaxError
from volrepair.grid import (
    Theta,
    build_theta,
    choose_kmax,
    distance_matrix,
    path_components,
)
from volrepair.market_data import NormalizedSurface



def two_smile_surface():
    return NormalizedSurface(
        (0.5, 1.0),
        (np.array([0.9, 1.0]), np.array([1.0, 1.1])),
        (np.array([0.12, 0.05]), np.array([0.08, 0.04])),
        (100.0, 100.0),
        (0.99, 0.98),
    )


class TestBuildTheta:
    def test_union_with_endpoints(self):
        theta = build_theta(two_smile_surface(), 2.0)
        np.testing.assert_allclose(theta.strikes, [0.0, 0.9, 1.0, 1.1, 2.0])
        assert theta.l == 5
        assert theta.k_max == 2.0

    def test_single_maturity(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([1.0]),), (np.array([0.05]),), (1.0,), (1.0,)
        )
        theta = build_theta(surf, 2.0)
        np.testing.assert_allclose(theta.strikes, [0.0, 1.0, 2.0])

    def test_kmax_below_strike_rejected(self):
        with pytest.raises(InvalidKmaxError):
            build_theta(two_smile_surface(), 1.05)

    def test_dedup_tolerance(self):
        surf = NormalizedSurface(
            (0.5, 1.0),
            (np.array([1.0]), np.array([1.0 + 1e-14])),
            (np.array([0.05]), np.array([0.06])),
            (1.0, 1.0),
            (1.0, 1.0),
        )
        theta = build_theta(surf, 2.0)
        assert theta.l == 3


class TestChooseKmax:
    def test_unconstrained_margin(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([0.9, 1.2]),), (np.array([0.2, 0.04]),), (1.0,), (1.0,)
        )
        assert choose_kmax(surf, margin=0.1) == pytest.approx(1.2 * 1.1)

    def test_unconstrained_max_one_branch(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([0.7, 0.9]),), (np.array([0.35, 0.2]),), (1.0,), (1.0,)
        )
        assert choose_kmax(surf, margin=0.1) == pytest.approx(1.1)

    def test_calibrated_hand_value(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([1.0]),), (np.array([0.05]),), (1.0,), (1.0,)
        )
        # single mark (k=1, c=0.05): a = (0.05-1)/1 = -0.95,
        # bound = 1 - (2/-0.95)*0.05 = 1.1052631..., times margin
        got = choose_kmax(surf, [(0, 1.0, 0.05)], margin=0.1)
        assert got == pytest.approx(1.1 * (1.0 + 2.0 * 0.05 / 0.95), rel=1e-12)
        assert got == pytest.approx(1.2157894736842106, rel=1e-12)

    def test_degenerate_calibration(self):
        surf = NormalizedSurface(
            (1.0,), (np.array([1.0]),), (np.array([1.0]),), (1.0,), (1.0,)
        )
        with pytest.raises(DegenerateCalibrationError):
            choose_kmax(surf, [(0, 1.0, 1.0)], margin=0.1)

    def test_exceeds_quotes_and_one(self, desk_surface):
        k_max = choose_kmax(desk_surface)
        assert k_max > desk_surface.max_strike()
        assert k_max > 1.0


class TestPathComponents:
    def test_all_components_order(self):
        # path p is the base-l expansion of p, first period most significant
        for l in range(1, 6):  # noqa: E741
            for m in range(1, 4):
                comps = path_components(l, m)
                assert comps.shape == (l**m, m)
                for p in range(l**m):
                    digits = [p // l ** (m - 1 - i) % l for i in range(m)]
                    assert comps[p].tolist() == digits


class TestDistanceMatrix:
    def test_one_period_line(self):
        theta = Theta(np.array([0.0, 1.0, 2.0]))
        d = distance_matrix(theta, 1)
        assert d[0, 1] == 1.0
        assert d[0, 2] == 2.0
        assert np.all(np.diag(d) == 0.0)

    def test_two_period_euclidean(self):
        theta = Theta(np.array([0.0, 1.0]))
        d = distance_matrix(theta, 2)
        # paths (0, 0) and (1, 1) are the first and the last
        assert d[0, 3] == pytest.approx(np.sqrt(2.0))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        theta = Theta(np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2.0, 4))]))
        d = distance_matrix(theta, 2)
        np.testing.assert_allclose(d, d.T)
        n = d.shape[0]
        idx = rng.integers(0, n, size=(60, 3))
        for a, b, c in idx:
            assert d[a, c] <= d[a, b] + d[b, c] + 1e-12
