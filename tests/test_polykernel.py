import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from polyxport import flight, geometry, scattering
from polyxport import kernels as K
from polyxport import polykernel as pk
from polyxport import presets
from polyxport.geometry import inside_indicator, itinerary

import itinerary_oracles as oracle


def unit(th):
    return np.array([np.cos(th), np.sin(th)])


def rand_dir(rng, d=2):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def rand_ball(rng, k):
    while True:
        b = rng.uniform(-1, 1, k)
        if b @ b < 1:
            return b


class TestPsi:
    def test_single_grain_is_phi(self, single_square):
        x = single_square.anchor
        v = unit(0.0)
        assert pk.psi(single_square, x, v, 0.1) == pytest.approx(
            float(K.phi_freepath(0.1, 2)))

    def test_zero_in_gap(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        # the gap between the squares starts 0.15 after the anchor
        assert pk.psi(two_squares, x, v, 0.17) == 0.0

    def test_two_segment_product(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        xi = 0.25   # inside grain 2 (entry at 0.20 along this ray)
        segs = itinerary(two_squares, x, v, 1.0)
        assert len(segs) == 2
        expect = float(K.d_phi(segs[0].sejour, 2)) \
            * float(K.phi_freepath(xi - segs[1].entry, 2))
        assert pk.psi(two_squares, x, v, xi) == pytest.approx(expect)

    def test_boundary_value_sigma_bar(self, two_squares):
        x = two_squares.anchor
        v = unit(0.3)
        assert pk.psi(two_squares, x, v, 0.0) == pytest.approx(2.0)
        outside = np.array([-1.0, -1.0])
        assert pk.psi(two_squares, outside, v, 0.0) == 0.0


class TestPsi0:
    def test_first_branch_constant_2d(self, single_square):
        x = single_square.anchor
        v = unit(0.2)
        val = pk.psi0_full(single_square, x, v, 0.05, np.array([0.3]),
                           np.array([-0.7]))
        assert val == pytest.approx(6 / np.pi ** 2)

    def test_outside_is_zero(self, two_squares):
        x = np.array([-0.5, 0.5])
        v = unit(0.0)
        assert pk.psi0_full(two_squares, x, v, 0.1, np.zeros(1),
                            np.zeros(1)) == 0.0
        assert pk.psi0_marg(two_squares, x, v, 0.1, np.zeros(1)) == 0.0

    def test_marg_first_branch(self, single_square):
        x = single_square.anchor
        v = unit(1.0)
        assert pk.psi0_marg(single_square, x, v, 0.05, np.array([0.2])) \
            == pytest.approx(12 / np.pi ** 2)

    def test_product_branch(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        xi = 0.25
        segs = itinerary(two_squares, x, v, 1.0)
        w = np.array([0.4])
        z = np.array([-0.1])
        expect = float(K.phi_marginal(segs[0].sejour, z, 2)) \
            * float(K.phi_marginal(xi - segs[1].entry, w, 2))
        assert pk.psi0_full(two_squares, x, v, xi, w, z) == pytest.approx(expect)

    def test_rejects_bad_parameters(self, single_square):
        with pytest.raises(ValueError):
            pk.psi0_full(single_square, single_square.anchor, unit(0.1), 0.1,
                         np.array([1.5]), np.zeros(1))


def _random_phase_points(scene, rng, n, lo, hi):
    for _ in range(n):
        x = rng.uniform(lo, hi)
        v = rand_dir(rng, scene.dimension)
        xi = rng.uniform(0.01, 1.2)
        segs = itinerary(scene, x, v, xi + 1.0)
        edges = [e for s in segs for e in (s.entry, s.exit)]
        if any(abs(xi - e) < 1e-5 for e in edges):
            continue
        yield x, v, xi


class TestTimeReversal:
    def test_identity_on_random_scenes(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for trial in range(40):
            scene = presets.random_scene_2d(np.random.default_rng(trial))
            for x, v, xi in _random_phase_points(
                    scene, rng, 25, [-0.3, -0.3], [1.2, 0.8]):
                w = rand_ball(rng, 1)
                z = rand_ball(rng, 1)
                lhs = pk.psi0_full(scene, x + xi * v, -v, xi, z, w)
                rhs = pk.psi0_full(scene, x, v, xi, w, z)
                worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_identity_3d(self):
        scene = presets.two_boxes_3d()
        rng = np.random.default_rng(11)
        worst = 0.0
        for x, v, xi in _random_phase_points(
                scene, rng, 60, [0.0, 0.0, 0.0], [0.28, 0.12, 0.12]):
            w = rand_ball(rng, 2)
            z = rand_ball(rng, 2)
            lhs = pk.psi0_full(scene, x + xi * v, -v, xi, z, w)
            rhs = pk.psi0_full(scene, x, v, xi, w, z)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10


class TestRotationInvariance:
    def test_3d_params_rotate_together(self):
        scene = presets.two_boxes_3d()
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = rng.uniform([0.01] * 3, [0.11] * 3)
            v = rand_dir(rng, 3)
            xi = rng.uniform(0.01, 0.3)
            w = rand_ball(rng, 2)
            z = rand_ball(rng, 2)
            th = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(th), np.sin(th)],
                          [-np.sin(th), np.cos(th)]])
            if rng.random() < 0.5:
                R = R @ np.diag([1.0, -1.0])   # include reflections
            a = pk.psi0_full(scene, x, v, xi, w @ R, z @ R)
            b = pk.psi0_full(scene, x, v, xi, w, z)
            assert a == pytest.approx(b, abs=1e-10)


class TestTransportIdentity:
    def test_two_grain_crystal(self, two_squares):
        rng = np.random.default_rng(14)
        samples = list(_random_phase_points(two_squares, rng, 40,
                                            [-0.2, -0.2], [0.8, 0.5]))
        rep = pk.check_transport_identity(two_squares, samples)
        assert rep.residuals
        assert rep.max_residual < 1e-5
        assert rep.boundary_max_err < 1e-12

    def test_poisson_scene_exact(self):
        scene = presets.poisson_gap_squares_2d()
        rng = np.random.default_rng(15)
        samples = list(_random_phase_points(scene, rng, 30,
                                            [-0.2, -0.1], [1.6, 0.5]))
        rep = pk.check_transport_identity(scene, samples)
        assert rep.max_residual < 1e-5

    def test_single_grain_reduces_to_sc001(self, single_square):
        # D psi = -Phi'(xi) = integral of the marginal over w
        x = single_square.anchor
        v = unit(0.1)
        xi = 0.08
        rhs = pk.integrate_psi0_marg_over_w(single_square, x, v, xi)
        assert rhs == pytest.approx(24 / np.pi ** 2, abs=1e-9)


class TestTailBound:
    @pytest.mark.parametrize("builder", [
        lambda: presets.two_squares_2d(),
        lambda: presets.poisson_gap_squares_2d(),
        lambda: presets.two_boxes_3d(),
    ])
    def test_family_below_envelope(self, builder):
        scene = builder()
        d = scene.dimension
        rng = np.random.default_rng(16)
        for _ in range(300):
            x = rng.uniform(-0.2, 0.5, d)
            v = rand_dir(rng, d)
            xi = rng.uniform(0.0, 2.0)
            bound = pk.psi_tail_bound(scene, x, v, xi)
            w = rand_ball(rng, d - 1)
            z = rand_ball(rng, d - 1)
            vals = [pk.psi(scene, x, v, xi),
                    pk.psi_marg_w(scene, x, v, xi, w),
                    pk.psi0_marg(scene, x, v, xi, w),
                    pk.psi0_full(scene, x, v, xi, w, z)]
            assert max(vals) <= bound + 1e-12

    def test_decay_rate_full_tiling(self, tiled_crystal):
        g = pk.tail_rate(tiled_crystal)
        assert g == pytest.approx(min(1.0, K.ZETA2 / (2 * 0.35 * np.sqrt(2))))
        x = tiled_crystal.anchor
        v = unit(0.37)
        b1 = pk.psi_tail_bound(tiled_crystal, x, v, 1.0)
        b2 = pk.psi_tail_bound(tiled_crystal, x, v, 2.0)
        assert b2 / b1 == pytest.approx(np.exp(-g))


class TestPoissonClosedForms:
    def test_full_tiling(self, tiled_poisson):
        x = tiled_poisson.anchor
        v = unit(0.9)
        vals = pk.poisson_psi(tiled_poisson, x, v, 0.7)
        assert vals["psi0_full"] == pytest.approx(np.exp(-2 * 0.7))
        assert vals["psi"] == pytest.approx(2 * np.exp(-2 * 0.7))

    def test_gap_scene_discount(self):
        scene = presets.poisson_gap_squares_2d(side=0.4, gap=0.15)
        x = np.array([0.2, 0.2])
        v = unit(0.0)
        xi = 0.7   # crosses the first gap
        from polyxport.geometry import gap as gap_fn
        g = gap_fn(scene, x, v, xi)
        assert g == pytest.approx(0.15)
        vals = pk.poisson_psi(scene, x, v, xi)
        assert vals["psi0_full"] == pytest.approx(np.exp(-2 * (xi - g)))

    def test_matches_generic_evaluator(self):
        scene = presets.poisson_gap_squares_2d()
        rng = np.random.default_rng(17)
        for x, v, xi in _random_phase_points(scene, rng, 60,
                                             [-0.1, -0.1], [1.6, 0.5]):
            w = rand_ball(rng, 1)
            z = rand_ball(rng, 1)
            closed = pk.poisson_psi(scene, x, v, xi)
            assert pk.psi(scene, x, v, xi) == pytest.approx(
                closed["psi"], abs=1e-12)
            assert pk.psi_marg_w(scene, x, v, xi, w) == pytest.approx(
                closed["psi_marg_w"], abs=1e-12)
            assert pk.psi0_full(scene, x, v, xi, w, z) == pytest.approx(
                closed["psi0_full"], abs=1e-12)


class TestSurvival:
    def test_survival_is_integral_of_psi(self, two_squares):
        # quadrature oracle for the closed-form survival product
        x = two_squares.anchor
        v = unit(0.05)
        for t in (0.05, 0.2, 0.4, 0.8):
            tail, _ = quad(lambda s: pk.psi(two_squares, x, v, s), t, 2.0,
                           limit=400,
                           points=[seg
                                   for s_ in itinerary(two_squares, x, v, 2.0)
                                   for seg in (s_.entry, s_.exit)
                                   if t < seg < 2.0])
            esc = pk.survival_psi(two_squares, x, v, 2.0)
            assert pk.survival_psi(two_squares, x, v, t) == pytest.approx(
                tail + esc, abs=1e-9)

    def test_survival_psi0_matches_quadrature(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        w = np.array([0.35])
        for t in (0.05, 0.25):
            tail, _ = quad(lambda s: pk.psi0_marg(two_squares, x, v, s, w),
                           t, 2.0, limit=400)
            k1 = K.for_medium(two_squares.medium_by_id(1), 2)
            segs = itinerary(two_squares, x, v, 2.0)
            esc = float(k1.phi_marg(segs[0].sejour, w)) \
                * float(K.d_phi(segs[1].sejour, 2))
            assert pk.survival_psi0_marg(two_squares, x, v, t, w) \
                == pytest.approx(tail + esc, abs=1e-9)

    def test_mass_deficit_equals_escape(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        total, _ = quad(lambda s: pk.psi(two_squares, x, v, s), 0, 2.0,
                        limit=400)
        esc = pk.survival_psi(two_squares, x, v, 2.0)
        assert total + esc == pytest.approx(1.0, abs=1e-9)

    def test_infinite_tiling_mass_one(self, tiled_crystal):
        x = tiled_crystal.anchor
        v = unit(0.21)
        # total mass approaches 1 when the itinerary never ends
        esc = pk.survival_psi(tiled_crystal, x, v, 40.0)
        assert esc < 1e-4
        total, _ = quad(lambda s: pk.psi(tiled_crystal, x, v, s), 0, 12.0,
                        limit=1000)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestLogDerivativeWithinSegment:
    def test_prefactor_is_xi_free(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        segs = itinerary(two_squares, x, v, 1.0)
        a, b = segs[1].entry, segs[1].exit
        xi1 = a + 0.3 * (b - a)
        xi2 = a + 0.7 * (b - a)
        r1 = pk.psi(two_squares, x, v, xi1) / float(K.phi_freepath(xi1 - a, 2))
        r2 = pk.psi(two_squares, x, v, xi2) / float(K.phi_freepath(xi2 - a, 2))
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestFamilyCurves:
    """family_curves against the scalar loop products of the oracle, on
    every scene shape: one grid, one parameter row per ray."""

    FAMILIES = {"psi": (), "psi_marg_w": ("w",), "psi0_marg": ("w",),
                "psi0_full": ("w", "z")}

    @pytest.fixture(scope="class")
    def scenes(self, two_squares, mixed_squares, tiled_crystal,
               tiled_crystal_3d):
        return {"finite2": two_squares, "finite3": presets.two_boxes_3d(),
                "mixed": mixed_squares, "tiled2": tiled_crystal,
                "tiled3": tiled_crystal_3d}

    @staticmethod
    def _rays(scene, rng, n=12):
        """Starts in grains, in gaps and outside every grain of a finite
        scene, the first two along the row of grains; a grid of 0, a
        regular grid, every entry and exit of those two rays, and a point
        beyond every segment of a finite scene."""
        d = scene.dimension
        if scene.periodic_box is not None:
            xs = flight.sample_positions(scene, n, rng)
            top = 1.0
        else:
            verts = np.vstack([g.get_vertices() for g in scene.grains])
            xs = rng.uniform(verts.min(axis=0) - 0.1,
                             verts.max(axis=0) + 0.1, (n, d))
            xs[0] = scene.anchor
            top = 2.0
        vs = scattering.sample_direction(rng, d, n)
        vs[:2] = np.eye(d)[0]
        entry, exit_, _ = geometry.segment_table(scene, xs[:2], vs[:2], top)
        marks = np.concatenate([entry.ravel(), exit_.ravel()])
        grid = np.unique(np.concatenate([np.linspace(0.0, top, 33),
                                         marks[marks < top]]))
        params = {"w": scattering.sample_ball(rng, d - 1, n),
                  "z": scattering.sample_ball(rng, d - 1, n)}
        return xs, vs, grid, params

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_matches_oracle(self, which, family, scenes):
        scene = scenes[which]
        xs, vs, grid, params = self._rays(scene, np.random.default_rng(41))
        keys = self.FAMILIES[family]
        got = pk.family_curves(scene, xs, vs, grid, family, **params)
        scalar = getattr(oracle, family)
        for i, row in enumerate(got):
            args = [params[k][i] for k in keys]
            want = [scalar(scene, xs[i], vs[i], g, *args) for g in grid]
            # abs=0: a zero of the oracle must be an exact zero
            assert row == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_exact_zeros_and_row_independence(self, which, family, scenes):
        scene = scenes[which]
        xs, vs, grid, params = self._rays(scene, np.random.default_rng(42))
        got = pk.family_curves(scene, xs, vs, grid, family, **params)
        entry, exit_, _ = geometry.segment_table(scene, xs, vs, grid[-1])
        on = np.any((entry[:, :, None] <= grid)
                    & (grid < exit_[:, :, None]), axis=1)
        assert np.all(got[~on] == 0.0)
        off_grain = entry[:, 0] != 0.0
        if family.startswith("psi0"):
            assert np.all(got[off_grain] == 0.0)
        if scene.periodic_box is None:
            assert (~on).any() and off_grain.any() and not off_grain.all()
            assert np.all(got[on & ~off_grain[:, None]] > 0.0)
        # eleven copies of the rays: more than one block of the table
        n = len(xs)
        rep = 11
        assert n * rep > geometry.TABLE_ROWS
        many = pk.family_curves(
            scene, np.tile(xs, (rep, 1)), np.tile(vs, (rep, 1)), grid,
            family, **{k: np.tile(p, (rep, 1)) for k, p in params.items()})
        keys = self.FAMILIES[family]
        for i in range(n):
            one = pk.family_curves(scene, xs[i:i + 1], vs[i:i + 1], grid,
                                   family, **{k: params[k][i:i + 1]
                                              for k in keys})
            assert np.array_equal(one[0], got[i])
            assert np.array_equal(many[i + n * (rep - 1)], got[i])
        # the scalar names are the same one-row call
        i, j = 0, len(grid) // 3
        scalar = getattr(pk, family)(scene, xs[i], vs[i], grid[j],
                                     *[params[k][i] for k in keys])
        assert scalar == got[i, j]

    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_table_blocks_equal_one_table_per_block(self, which, scenes):
        # a finite scene's table is built once for all rows and sliced
        scene = scenes[which]
        xs, vs, grid, _ = self._rays(scene, np.random.default_rng(43), 300)
        horizon = grid[-1]
        blocks = list(geometry._table_blocks(scene, xs, vs, horizon))
        assert len(blocks) == 3
        for rows, *table in blocks:
            alone = geometry.segment_table(scene, xs[rows], vs[rows], horizon)
            assert all(np.array_equal(a, b) for a, b in zip(table, alone))

    @pytest.mark.parametrize("family", list(FAMILIES) + ["survival_psi"])
    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_rows_are_constant_from_the_tail_column(self, which, family,
                                                    scenes):
        scene = scenes[which]
        xs, vs, grid, params = self._rays(scene, np.random.default_rng(44),
                                          300)
        blocks = list(pk.family_blocks(
            scene, xs, vs, grid, family,
            **{k: params[k] for k in self.FAMILIES.get(family, ())}))
        assert len(blocks) == 3
        # one width W for the call: one past the first column at or past
        # the call's last finite exit, len(grid) on a tiled box
        if scene.periodic_box is not None:
            for rows, vals in blocks:
                assert vals.shape == (len(xs[rows]), len(grid))
            return
        _, exit_, _ = geometry.segment_table(scene, xs, vs, grid[-1])
        width = np.searchsorted(grid, exit_[np.isfinite(exit_)].max()) + 1
        assert width < len(grid)
        # the same call with grid[W - 1] moved to grid[-1] has the same W:
        # each row's last column at grid[-1] equals the one at grid[W - 1]
        far = np.r_[grid[:width - 1], grid[-1]]
        ends = list(pk.family_blocks(
            scene, xs, vs, far, family,
            **{k: params[k] for k in self.FAMILIES.get(family, ())}))
        for (rows, vals), (_, end) in zip(blocks, ends):
            assert vals.shape == end.shape == (len(xs[rows]), width)
            assert np.array_equal(vals, end)

    @pytest.mark.parametrize("family", list(FAMILIES) + ["survival_psi"])
    def test_grain_ids_are_only_labels(self, family, mixed_squares):
        # the crystal grain gets the larger id: the ids sort against the
        # scene order, and neither is a small index
        scene = mixed_squares
        relabeled = geometry.make_scene(
            2, [dataclasses.replace(g, id=i) for g, i in
                zip(scene.grains, (10 ** 15, -3))],
            scene.media, anchor=scene.anchor)
        xs, vs, grid, params = self._rays(scene, np.random.default_rng(45))
        params = {k: params[k] for k in self.FAMILIES.get(family, ())}
        assert np.array_equal(
            pk.family_curves(relabeled, xs, vs, grid, family, **params),
            pk.family_curves(scene, xs, vs, grid, family, **params))

    def test_along_ray_keeps_the_order(self, two_squares):
        x, v = two_squares.anchor, unit(0.0)
        xis = [0.4, 0.1, 0.17, 0.1, 0.0]
        got = pk.along_ray(two_squares, "psi0_full", x, v, xis, [0.3], [0.1])
        assert got.tolist() == [pk.psi0_full(two_squares, x, v, xi, [0.3],
                                             [0.1]) for xi in xis]
        with pytest.raises(ValueError, match="nonnegative"):
            pk.along_ray(two_squares, "psi", x, v, [0.1, -0.1])
        with pytest.raises(ValueError, match="unit ball"):
            pk.along_ray(two_squares, "psi_marg_w", x, v, [0.1], [1.5])
        # a parameter the family does not take is not checked
        assert pk.along_ray(two_squares, "psi", x, v, [0.1], [1.5]) \
            == pk.along_ray(two_squares, "psi", x, v, [0.1])
