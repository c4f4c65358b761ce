import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kernel_oracles import (_section_area_scalar, g_direct, g_spline_slow,
                            invert_phi_cdf_newton)
from scipy.integrate import dblquad, quad

from polyxport import kernels as K
from polyxport.kernels import (F, G, KernelModel, RangeError, ZETA3, d_phi,
                               phi0_2d, phi0_3d, phi_freepath, phi_marginal,
                               tail_bound, upsilon)

PI = np.pi
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


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
        # 0/0 (xi = 1, w = z = 0) is taken as 0, without a RuntimeWarning
        assert phi0_2d(1.0, 0.0, 0.0) == pytest.approx(6 / PI ** 2)
        assert phi0_2d(1.0, -0.0, -0.0) == pytest.approx(6 / PI ** 2)


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

    def test_scalar_twin_is_bitwise(self):
        # the G-table integrands use the scalar twin; any differing bit
        # would move the adaptive quadrature and the table's nodes
        rng = np.random.default_rng(3)
        ts = np.concatenate([
            np.linspace(0.0, 1.0, 10001)[:-1],
            rng.uniform(0.0, 1.0, 2000),
            1.0 - np.logspace(-16, -1, 200),
            [0.0, 0.5, np.nextafter(1.0, 0.0), 5e-324]])
        for t in ts.tolist():
            assert _section_area_scalar(t) == float(F(t)), t

    @pytest.mark.parametrize("t", [-0.1, 1.0, float("nan")])
    def test_scalar_twin_domain(self, t):
        with pytest.raises(ValueError):
            _section_area_scalar(t)


class TestG:
    @pytest.fixture(scope="class")
    def g_spline(self):
        return g_spline_slow()

    def test_endpoints(self):
        assert g_direct(0.0) == pytest.approx(
            PI * (4 * PI + 3 * np.sqrt(3)) / 16, abs=1e-9)
        assert g_direct(1.0) == pytest.approx(
            5 * PI ** 2 / 16 + 1, abs=1e-9)

    def test_strictly_increasing(self):
        ws = np.linspace(0, 1, 1000)
        vals = G(ws)
        assert np.all(np.diff(vals) > 0)

    def test_interp_matches_quad(self):
        for w in (0.0, 0.17, 0.5, 0.83, 1.0):
            assert G(w) == pytest.approx(g_direct(w), abs=1e-9)

    def test_shipped_coefficients_equal_the_quad_spline(self, g_spline):
        table = K._GTable()
        table.node_max()
        assert np.array_equal(table._coef, g_spline.c)
        assert np.array_equal(table._knots, g_spline.x)

    def test_table_evaluates_the_spline_bit_for_bit(self, g_spline):
        knots = g_spline.x
        ws = np.concatenate([
            np.random.default_rng(0).uniform(0.0, 1.0, 200000), knots,
            np.nextafter(knots[1:], 0.0), np.nextafter(knots[:-1], 1.0)])
        assert np.array_equal(G(ws), g_spline(ws))
        assert np.array_equal(G(ws[1:].reshape(-1, 2)),
                              g_spline(ws[1:]).reshape(-1, 2))
        assert G(0.3).shape == () and G(0.3) == g_spline(0.3)
        assert K._GTable().node_max() == g_spline(knots).max()

    def test_table_nodes_match_golden(self):
        # a cubic spline returns its node values at its knots, so a fresh
        # table read at the grid gives the 2001 quadrature nodes
        with open(os.path.join(GOLDEN_DIR, "g_table_nodes.txt"),
                  encoding="utf-8") as fh:
            golden = np.array([float(line) for line in fh])
        table = K._GTable()
        nodes = table(np.linspace(0.0, 1.0, table.n_grid))
        assert len(golden) == table.n_grid
        assert np.array_equal(nodes, golden)

    def test_disk_integral_identity(self):
        # int_{|z|<1} F(|w-z|/2) dz = 2 G(|w|), via cartesian dblquad oracle
        for wx in (0.0, 0.45, 0.9):
            val, _ = dblquad(
                lambda y, x: float(F(0.5 * np.hypot(x - wx, y))),
                -1, 1,
                lambda x: -np.sqrt(max(1 - x * x, 0)),
                lambda x: np.sqrt(max(1 - x * x, 0)),
                epsabs=1e-9)
            assert val == pytest.approx(2 * g_direct(wx), abs=1e-6)


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
        model = KernelModel("poisson", 2)
        assert model.phi(0.0) == 2.0 and model.d_phi(0.0) == 1.0
        assert model.phi0(0.0, None, None) == 1.0

    def test_mean_free_path(self):
        for dim in (2, 3):
            sb = K.sigma_bar(dim)
            mean, _ = quad(lambda t: t * sb * np.exp(-sb * t), 0, np.inf)
            assert mean == pytest.approx(1 / sb)

    def test_2d_dphi_one(self):
        assert KernelModel("poisson", 2).d_phi(1.0) == pytest.approx(
            np.exp(-2.0))


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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="amorphous"):
            KernelModel("amorphous", 2)

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

    def test_invert_phi_cdf_3d_matches_newton_oracle(self):
        m = KernelModel("crystal", 3)
        top = 1.0 - d_phi(0.25, 3)
        masses = np.concatenate([np.linspace(0.0, top, 4001),
                                 [5e-324, 1e-300, 1e-12, 1e-8,
                                  np.nextafter(top, 0.0)]])
        u = m.invert_phi_cdf(masses)
        assert u[0] == 0.0 and u[4000] == 0.25
        assert np.max(np.abs(u - invert_phi_cdf_newton(masses))) <= 1e-13
        for i in range(0, len(masses), 97):
            assert np.array_equal(m.invert_phi_cdf(masses[i]), u[i])
        assert np.array_equal(
            m.invert_phi_cdf(np.array([top * (1 + 1e-12), 0.9, 1.0])),
            [0.25, 0.25, 0.25])
        with pytest.raises(ValueError, match="nonnegative"):
            m.invert_phi_cdf(-1e-3)

    @pytest.mark.parametrize("medium,dim", [("crystal", 2), ("crystal", 3),
                                            ("poisson", 2), ("poisson", 3)])
    def test_invert_phi_cdf_rejects_negative_mass(self, medium, dim):
        m = KernelModel(medium, dim)
        for mass in (-0.1, np.array([0.2, -1e-300])):
            with pytest.raises(ValueError, match="nonnegative"):
                m.invert_phi_cdf(mass)

    def test_invert_phi_cdf_2d_crystal_clips_to_the_range(self):
        # mass beyond 1 - D_Phi(1/2) gives 1/2, as in d=3 beyond
        # 1 - D_Phi(1/4) it gives 1/4: no root past the range, and no NaN
        # where the quadratic has no real root
        m = KernelModel("crystal", 2)
        top = 1.0 - d_phi(0.5, 2)
        assert m.invert_phi_cdf(top) == pytest.approx(0.5, abs=1e-12)
        over = np.array([top * (1 + 1e-9), 0.75, np.pi ** 2 / 12, 0.9, 1.0])
        assert np.array_equal(m.invert_phi_cdf(over), np.full(5, 0.5))


class TestRangeChecksSkipNaN:
    """A NaN row neither raises nor hides a bad row beside it."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_check_range(self, dim):
        top = K.XI_MAX[dim]
        for bad, err in ((-1e-3, ValueError), (top * 1.01, RangeError)):
            for xi in (np.array([np.nan, 0.1, bad]), np.array([bad, np.nan]),
                       np.array([[0.1, np.nan], [bad, 0.0]])):
                with pytest.raises(err):
                    K._check_range(xi, dim)
            with pytest.raises(err):
                d_phi(np.array([np.nan, bad]), dim)
        for xi in (np.nan, np.array([np.nan]), np.array([0.1, np.nan, top]),
                   np.array([])):
            assert K._check_range(xi, dim) is not None
        got = d_phi(np.array([np.nan, 0.1]), dim)
        assert np.isnan(got[0]) and got[1] == d_phi(0.1, dim)

    @pytest.mark.parametrize("medium,dim", [("crystal", 2), ("crystal", 3),
                                            ("poisson", 2), ("poisson", 3)])
    def test_invert_phi_cdf(self, medium, dim):
        m = KernelModel(medium, dim)
        for mass in (np.array([np.nan, 0.2, -1e-3]),
                     np.array([-1e-300, np.nan])):
            with pytest.raises(ValueError, match="nonnegative"):
                m.invert_phi_cdf(mass)
        got = m.invert_phi_cdf(np.array([np.nan, 0.2]))
        assert np.isnan(got[0]) and got[1] == m.invert_phi_cdf(0.2)
        assert np.isnan(m.invert_phi_cdf(np.nan))


class TestConditionalSampling3d:
    """The d=3 pieces of the per-segment sampler: the first-segment root and
    the bounds over w of its acceptance step."""

    def test_invert_phi_marginal_round_trip(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 0.25, 2000)
        w = rng.uniform(-0.7, 0.7, (2000, 2))
        back = K.invert_phi_marginal(1.0 - phi_marginal(u, w, 3), w)
        assert np.max(np.abs(back - u)) < 1e-13

    def test_bounds_dominate_and_are_reached(self):
        rng = np.random.default_rng(4)
        xi = rng.uniform(0.0, 0.25, 5000)
        r = np.sqrt(rng.uniform(0.0, 1.0, (2, 5000)))
        th = rng.uniform(0.0, 2 * PI, (2, 5000))
        w, z = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        assert np.all(phi_marginal(xi, w, 3) <= K.phi_marginal_max(xi))
        assert np.all(phi0_3d(xi, w, z) <= K.phi0_3d_max(xi) * (1 + 1e-15))
        edge = np.array([1.0, 0.0])
        assert np.allclose(phi_marginal(xi, edge, 3), K.phi_marginal_max(xi),
                           rtol=0.0, atol=1e-14)
        assert np.allclose(phi0_3d(xi, w, w), K.phi0_3d_max(xi),
                           rtol=0.0, atol=1e-15)
