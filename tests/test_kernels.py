import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from polyxport import kernels as K
from polyxport.lattice import PoissonMedium
from polyxport.kernels import (F, G, KernelModel, RangeError, ZETA3, d_phi,
                               phi0_2d, phi0_3d, phi_freepath, phi_marginal,
                               poisson_kernels, tail_bound, upsilon)

PI = np.pi


class TestUpsilon:
    def test_pieces(self):
        assert upsilon(-1.0) == 0.0
        assert upsilon(0.5) == 0.5
        assert upsilon(2.0) == 1.0

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert upsilon(lo) <= upsilon(hi)


class TestPhi02d:
    def test_constant_regime(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(1e-3, 0.5, 1000)
        w = rng.uniform(-1, 1, 1000)
        z = rng.uniform(-1, 1, 1000)
        assert np.max(np.abs(phi0_2d(xi, w, z) - 6 / PI ** 2)) < 1e-12

    def test_beyond_half(self):
        # frozen from direct evaluation of the closed formula
        assert phi0_2d(1.0, 0.5, 0.1) == pytest.approx(
            (6 / PI ** 2) / 6.0, abs=1e-12)
        assert phi0_2d(1.0, 0.5, 0.1) == pytest.approx(0.10132118364233775)

    @given(st.floats(0.05, 3.0), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200)
    def test_swap_symmetry(self, xi, w, z):
        assert phi0_2d(xi, w, z) == phi0_2d(xi, z, w)

    @given(st.floats(0.05, 3.0), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=100)
    def test_sign_flip_invariance(self, xi, w, z):
        assert phi0_2d(xi, w, z) == pytest.approx(phi0_2d(xi, -w, -z),
                                                  abs=1e-15)

    def test_degenerate_denominator(self):
        # w + z = 0: value follows the sign of the numerator
        assert phi0_2d(0.3, 0.5, -0.5) == pytest.approx(6 / PI ** 2)
        assert phi0_2d(4.0, 0.9, -0.9) == 0.0


class TestF:
    def test_half_disk(self):
        assert F(0.0) == pytest.approx(PI / 2)

    def test_near_full_disk(self):
        assert F(1 - 1e-12) == pytest.approx(PI, abs=1e-5)

    def test_midpoint_value(self):
        assert F(0.5) == pytest.approx(PI - PI / 3 + 0.5 * np.sqrt(0.75))
        assert F(0.5) == pytest.approx(2.5274078069)

    def test_matches_area_quadrature(self):
        # independent oracle: 2d quadrature of the sliced-disk area
        for t in (0.2, 0.5, 0.8):
            area, _ = dblquad(lambda y, x: 1.0,
                              -1, t,
                              lambda x: -np.sqrt(max(1 - x * x, 0)),
                              lambda x: np.sqrt(max(1 - x * x, 0)),
                              epsabs=1e-10)
            assert F(t) == pytest.approx(area, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            F(1.0)
        with pytest.raises(ValueError):
            F(-0.1)


class TestG:
    def test_endpoints(self):
        assert G(0.0, method="quad") == pytest.approx(
            PI * (4 * PI + 3 * np.sqrt(3)) / 16, abs=1e-9)
        assert G(1.0, method="quad") == pytest.approx(
            5 * PI ** 2 / 16 + 1, abs=1e-9)

    def test_strictly_increasing(self):
        ws = np.linspace(0, 1, 1000)
        vals = G(ws)
        assert np.all(np.diff(vals) > 0)

    def test_interp_matches_quad(self):
        for w in (0.0, 0.17, 0.5, 0.83, 1.0):
            assert G(w) == pytest.approx(G(w, method="quad"), abs=1e-9)

    def test_disk_integral_identity(self):
        # int_{|z|<1} F(|w-z|/2) dz = 2 G(|w|), via cartesian dblquad oracle
        for wx in (0.0, 0.45, 0.9):
            val, _ = dblquad(
                lambda y, x: float(F(0.5 * np.hypot(x - wx, y))),
                -1, 1,
                lambda x: -np.sqrt(max(1 - x * x, 0)),
                lambda x: np.sqrt(max(1 - x * x, 0)),
                epsabs=1e-9)
            assert val == pytest.approx(2 * G(wx, method="quad"), abs=1e-6)


class TestPhi03d:
    def test_small_xi_limit(self):
        w = np.array([0.3, -0.2])
        assert phi0_3d(1e-12, w, w) == pytest.approx(1 / ZETA3, abs=1e-9)

    def test_quarter_equal_params(self):
        w = np.array([0.1, 0.7])
        expect = (1 - (6 / PI ** 2) * (PI / 2) * 0.25) / ZETA3
        assert phi0_3d(0.25, w, w) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.6333041167694915)

    def test_bracket_bounds(self):
        rng = np.random.default_rng(1)
        n = 10000
        xi = rng.uniform(0, 0.25, n)
        w = rng.uniform(-1, 1, (n, 2))
        w = w[np.sum(w * w, 1) < 1]
        z = rng.uniform(-1, 1, (len(w), 2))
        z = np.where((np.sum(z * z, 1) < 1)[:, None], z, 0.0)
        xi = xi[:len(w)]
        vals = phi0_3d(xi, w, z)
        lower = (1 - 4 * PI * xi) / ZETA3
        assert np.all(vals <= 1 / ZETA3 + 1e-12)
        assert np.all(vals >= lower - 1e-12)

    def test_range_rejected(self):
        with pytest.raises(RangeError):
            phi0_3d(0.26, np.zeros(2), np.zeros(2))


class TestMarginals:
    def test_2d_values(self):
        assert phi_marginal(0.0, 0.0, 2) == 1.0
        assert phi_marginal(0.5, 0.7, 2) == pytest.approx(1 - 6 / PI ** 2)

    def test_3d_value_at_quarter(self):
        w = np.array([1.0, 0.0])
        expect = 1 - PI * 0.25 / ZETA3 \
            + 6 * (5 * PI ** 2 / 16 + 1) * 0.0625 / (PI ** 2 * ZETA3)
        assert phi_marginal(0.25, w, 3) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.4757193125591165)

    def test_derivative_consistency_3d(self):
        # -d/dxi Phi(xi, w) equals Phi_0(xi, w); Phi is quadratic in xi so a
        # central difference is exact up to roundoff
        rng = np.random.default_rng(2)
        h = 1e-4
        for _ in range(25):
            xi = rng.uniform(h, 0.25 - h)
            w = rng.uniform(-0.7, 0.7, 2)
            fd = (phi_marginal(xi - h, w, 3) - phi_marginal(xi + h, w, 3)) / (2 * h)
            assert fd == pytest.approx(K.phi0_marginal(xi, w, 3), abs=1e-8)

    def test_2d_marginal_integrates_to_freepath(self):
        xi = 0.3
        val, _ = quad(lambda w: phi_marginal(xi, w, 2), -1, 1)
        assert val == pytest.approx(phi_freepath(xi, 2), abs=1e-12)

    def test_3d_marginal_integrates_to_freepath(self):
        xi = 0.2
        val, _ = quad(lambda r: 2 * PI * r * phi_marginal(xi, np.array([r, 0.0]), 3),
                      0, 1, epsabs=1e-11, limit=200)
        assert val == pytest.approx(float(phi_freepath(xi, 3)), abs=1e-7)


class TestFreePath:
    def test_2d_at_zero(self):
        assert phi_freepath(0.0, 2) == 2.0
        assert d_phi(0.0, 2) == 1.0

    def test_3d_at_zero(self):
        assert phi_freepath(0.0, 3) == pytest.approx(PI)
        assert d_phi(0.0, 3) == 1.0

    def test_2d_dphi_half(self):
        assert d_phi(0.5, 2) == pytest.approx(3 / PI ** 2)

    def test_dphi_is_antiderivative(self):
        for dim, hi in ((2, 0.5), (3, 0.25)):
            grid = np.linspace(0, hi, 200)
            for a, b in zip(grid, grid[1:]):
                val, _ = quad(lambda t: float(phi_freepath(t, dim)), a, b)
                assert d_phi(a, dim) - d_phi(b, dim) == pytest.approx(val,
                                                                      abs=1e-12)

    def test_small_xi_expansion_nonneg_remainder(self):
        for dim, hi in ((2, 0.5), (3, 0.25)):
            sb = K.sigma_bar(dim)
            xi = np.linspace(0, hi, 500)
            rem = phi_freepath(xi, dim) - (sb - sb ** 2 / K.zeta(dim) * xi)
            assert np.all(rem >= -1e-12)

    def test_range_rejected(self):
        with pytest.raises(RangeError):
            phi_freepath(0.51, 2)
        with pytest.raises(RangeError):
            d_phi(0.26, 3)


class TestTailBound:
    def test_at_zero(self):
        assert tail_bound(0.0, 2) == 1.0

    def test_2d_value(self):
        b = tail_bound(0.5, 2)
        assert b == pytest.approx(np.exp(-0.5))
        assert b >= 3 / PI ** 2

    def test_dominates_dphi(self):
        for dim, hi in ((2, 0.5), (3, 0.25)):
            xi = np.linspace(0, hi, 2000)
            assert np.all(d_phi(xi, dim) <= tail_bound(xi, dim) + 1e-12)

    def test_nonincreasing(self):
        xi = np.linspace(0, 10, 500)
        assert np.all(np.diff(tail_bound(xi, 3)) <= 1e-15)


class TestPoisson:
    def test_at_zero(self):
        p0, pw, p0w, p, dp = poisson_kernels(0.0, 2)
        assert p == 2.0 and dp == 1.0 and p0 == 1.0

    def test_mean_free_path(self):
        for dim in (2, 3):
            sb = K.sigma_bar(dim)
            mean, _ = quad(lambda t: t * sb * np.exp(-sb * t), 0, np.inf)
            assert mean == pytest.approx(1 / sb)

    def test_2d_dphi_one(self):
        assert poisson_kernels(1.0, 2)[4] == pytest.approx(np.exp(-2.0))


class TestKernelModel:
    def test_sigma_bar(self):
        assert KernelModel("crystal", 2).sigma_bar == 2.0
        assert KernelModel("poisson", 3).sigma_bar == pytest.approx(PI)

    def test_wz_free_flags(self):
        assert KernelModel("crystal", 2).wz_free
        assert KernelModel("poisson", 3).wz_free
        assert not KernelModel("crystal", 3).wz_free

    def test_model_range_guard(self):
        with pytest.raises(RangeError):
            KernelModel("crystal", 2).phi0(0.7, 0.0, 0.0)

    def test_for_medium_rejects_unknown_kind(self):
        assert K.for_medium("poisson", 2).medium == "poisson"
        assert K.for_medium(PoissonMedium(), 3).medium == "poisson"
        with pytest.raises(ValueError, match="amorphous"):
            K.for_medium("amorphous", 2)

    @pytest.mark.parametrize("medium,dim", [("crystal", 2), ("crystal", 3),
                                            ("poisson", 2), ("poisson", 3)])
    def test_invert_phi_cdf(self, medium, dim):
        m = KernelModel(medium, dim)
        hi = 0.45 if (medium, dim) == ("crystal", 2) else \
            0.22 if (medium, dim) == ("crystal", 3) else 2.0
        u = np.linspace(1e-6, hi, 50)
        mass = m.phi_cdf(u)
        back = m.invert_phi_cdf(mass)
        assert np.max(np.abs(back - u)) < 1e-10
