import dataclasses

import numpy as np
import pytest

from polyxport import flight, geometry, harness, scattering
from polyxport import kernels as K
from polyxport import polykernel as pk
from polyxport import presets

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


def one(scene, family, x, v, xi, w=None, z=None):
    """The family at one point of one ray, through the row API."""
    return pk.along_ray(scene, family, x, v, [xi], w, z)[0]


def segments(scene, x, v, horizon):
    """(entry, exit) of the grain segments of one ray, from the table."""
    entry, exit_, _ = geometry.segment_table(scene, np.array([x]),
                                             np.array([v]), horizon)
    return [(a, b) for a, b in zip(entry[0], exit_[0]) if b > a]


class TestPsi:
    def test_single_grain_is_phi(self, single_square):
        x = single_square.anchor
        v = unit(0.0)
        assert one(single_square, "psi", x, v, 0.1) == pytest.approx(
            float(K.phi_freepath(0.1, 2)))

    def test_zero_in_gap(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        # the gap between the squares starts 0.15 after the anchor
        assert one(two_squares, "psi", x, v, 0.17) == 0.0

    def test_two_segment_product(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        xi = 0.25   # inside grain 2 (entry at 0.20 along this ray)
        segs = segments(two_squares, x, v, 1.0)
        assert len(segs) == 2
        expect = float(K.d_phi(segs[0][1] - segs[0][0], 2)) \
            * float(K.phi_freepath(xi - segs[1][0], 2))
        assert one(two_squares, "psi", x, v, xi) == pytest.approx(expect)

    def test_boundary_value_sigma_bar(self, two_squares):
        v = unit(0.3)
        got = pk.family_rows(two_squares, [two_squares.anchor, [-1.0, -1.0]],
                             [v, v], [0.0, 0.0], "psi")
        assert got[0] == pytest.approx(2.0)
        assert got[1] == 0.0


class TestPsi0:
    def test_first_branch_constant_2d(self, single_square):
        x = single_square.anchor
        v = unit(0.2)
        val = one(single_square, "psi0_full", x, v, 0.05, np.array([0.3]),
                  np.array([-0.7]))
        assert val == pytest.approx(6 / np.pi ** 2)

    def test_outside_is_zero(self, two_squares):
        x = np.array([-0.5, 0.5])
        v = unit(0.0)
        assert one(two_squares, "psi0_full", x, v, 0.1, np.zeros(1),
                   np.zeros(1)) == 0.0
        assert one(two_squares, "psi0_marg", x, v, 0.1, np.zeros(1)) == 0.0

    def test_marg_first_branch(self, single_square):
        x = single_square.anchor
        v = unit(1.0)
        assert one(single_square, "psi0_marg", x, v, 0.05, np.array([0.2])) \
            == pytest.approx(12 / np.pi ** 2)

    def test_product_branch(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        xi = 0.25
        segs = segments(two_squares, x, v, 1.0)
        w = np.array([0.4])
        z = np.array([-0.1])
        expect = float(K.phi_marginal(segs[0][1] - segs[0][0], z, 2)) \
            * float(K.phi_marginal(xi - segs[1][0], w, 2))
        assert one(two_squares, "psi0_full", x, v, xi, w, z) \
            == pytest.approx(expect)

    def test_rejects_bad_parameters(self, single_square):
        with pytest.raises(ValueError):
            one(single_square, "psi0_full", single_square.anchor, unit(0.1),
                0.1, np.array([1.5]), np.zeros(1))
        # one bad row among good ones
        x, v = single_square.anchor, unit(0.1)
        with pytest.raises(ValueError, match="unit ball"):
            pk.family_rows(single_square, [x, x], [v, v], [0.1, 0.1],
                           "psi_marg_w", w=[[0.2], [np.nan]])


def _phase_rows(scene, rng, n, lo, hi, n_params=0):
    """n draws of (x, v, xi), each followed, when xi is not within 1e-5 of
    a segment edge of its ray, by n_params draws from the (d-1)-ball; the
    kept rows as arrays xs, vs, xis and one array per parameter."""
    d = scene.dimension
    rows = []
    for _ in range(n):
        x = rng.uniform(lo, hi)
        v = rand_dir(rng, d)
        xi = rng.uniform(0.01, 1.2)
        entry, exit_, _ = geometry.segment_table(scene, x[None], v[None],
                                                 xi + 1.0)
        edges = np.r_[entry[0], exit_[0]]
        if np.any(np.abs(xi - edges) < 1e-5):
            continue
        rows.append((x, v, xi) + tuple(rand_ball(rng, d - 1)
                                       for _ in range(n_params)))
    return [np.array(col) for col in zip(*rows)]


class TestTimeReversal:
    def test_identity_on_random_scenes(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for trial in range(40):
            scene = presets.random_scene_2d(np.random.default_rng(trial))
            xs, vs, xis, ws, zs = _phase_rows(
                scene, rng, 25, [-0.3, -0.3], [1.2, 0.8], n_params=2)
            lhs = pk.family_rows(scene, xs + xis[:, None] * vs, -vs, xis,
                                 "psi0_full", w=zs, z=ws)
            rhs = pk.family_rows(scene, xs, vs, xis, "psi0_full", w=ws, z=zs)
            worst = max(worst, np.max(np.abs(lhs - rhs), initial=0.0))
        assert worst < 1e-10

    def test_identity_3d(self):
        scene = presets.two_boxes_3d()
        rng = np.random.default_rng(11)
        xs, vs, xis, ws, zs = _phase_rows(
            scene, rng, 60, [0.0, 0.0, 0.0], [0.28, 0.12, 0.12], n_params=2)
        lhs = pk.family_rows(scene, xs + xis[:, None] * vs, -vs, xis,
                             "psi0_full", w=zs, z=ws)
        rhs = pk.family_rows(scene, xs, vs, xis, "psi0_full", w=ws, z=zs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestRotationInvariance:
    def test_3d_params_rotate_together(self):
        scene = presets.two_boxes_3d()
        rng = np.random.default_rng(13)
        rows = []
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
            rows.append((x, v, xi, w, z, w @ R, z @ R))
        xs, vs, xis, ws, zs, wr, zr = map(np.array, zip(*rows))
        a = pk.family_rows(scene, xs, vs, xis, "psi0_full", w=wr, z=zr)
        b = pk.family_rows(scene, xs, vs, xis, "psi0_full", w=ws, z=zs)
        assert a == pytest.approx(b, abs=1e-10)


class TestTransportIdentity:
    def test_two_grain_crystal(self, two_squares):
        rng = np.random.default_rng(14)
        xs, vs, xis = _phase_rows(two_squares, rng, 40, [-0.2, -0.2],
                                  [0.8, 0.5])
        rep = pk.check_transport_identity(two_squares, xs, vs, xis)
        assert rep.residuals
        assert max(rep.residuals) < 1e-5
        assert rep.boundary_max_err < 1e-12

    def test_poisson_scene_exact(self):
        scene = presets.poisson_gap_squares_2d()
        rng = np.random.default_rng(15)
        xs, vs, xis = _phase_rows(scene, rng, 30, [-0.2, -0.1], [1.6, 0.5])
        rep = pk.check_transport_identity(scene, xs, vs, xis)
        assert max(rep.residuals) < 1e-5

    def test_single_grain_reduces_to_sc001(self, single_square):
        # D psi = -Phi'(xi) = integral of the marginal over w
        x = single_square.anchor
        v = unit(0.1)
        xi = 0.08
        rhs = pk.integrate_psi0_marg_over_w(single_square, [x], [v], [xi])
        assert rhs[0] == pytest.approx(24 / np.pi ** 2, abs=1e-9)


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
        rows = []
        for _ in range(300):
            x = rng.uniform(-0.2, 0.5, d)
            v = rand_dir(rng, d)
            xi = rng.uniform(0.0, 2.0)
            rows.append((x, v, xi, rand_ball(rng, d - 1),
                         rand_ball(rng, d - 1)))
        xs, vs, xis, ws, zs = map(np.array, zip(*rows))
        bound = pk.psi_tail_bound(scene, xs, vs, xis)
        vals = [pk.family_rows(scene, xs, vs, xis, family, w=ws, z=zs)
                for family in ("psi", "psi_marg_w", "psi0_marg",
                               "psi0_full")]
        assert np.all(np.max(vals, axis=0) <= bound + 1e-12)

    def test_decay_rate_full_tiling(self, tiled_crystal):
        g = pk.tail_rate(tiled_crystal)
        assert g == pytest.approx(min(1.0, K.ZETA2 / (2 * 0.35 * np.sqrt(2))))
        x = tiled_crystal.anchor
        v = unit(0.37)
        b1, b2 = pk.psi_tail_bound(tiled_crystal, [x, x], [v, v], [1.0, 2.0])
        assert b2 / b1 == pytest.approx(np.exp(-g))

    @pytest.mark.parametrize("d", [2, 3])
    def test_limit_survival_tail_is_exponential(self, d, tiled_crystal,
                                                tiled_crystal_3d):
        # the paper's exponential free-path tail at the limit level: over
        # 2 to 8 mean free paths log S is a line falling at least at gamma
        scene = tiled_crystal if d == 2 else tiled_crystal_3d
        mfp = 1.0 / K.sigma_bar(d)
        rng = np.random.default_rng(31)
        xs = flight.sample_positions(scene, 4000, rng)
        vs = scattering.sample_direction(rng, d, 4000)
        grid = np.linspace(0.0, 8 * mfp, 257)
        log_s = np.log(harness.mean_survival_curve(scene, xs, vs, grid))
        far = grid >= 2 * mfp
        slope, icpt = np.polyfit(grid[far], log_s[far], 1)
        resid = log_s[far] - (slope * grid[far] + icpt)
        assert np.abs(resid).max() < 1e-2
        assert -slope >= pk.tail_rate(scene)


class TestPoissonClosedForms:
    def test_full_tiling(self, tiled_poisson):
        x = tiled_poisson.anchor
        v = unit(0.9)
        vals = pk.poisson_psi(tiled_poisson, [x], [v], [0.7])
        assert vals["psi0_full"][0] == pytest.approx(np.exp(-2 * 0.7))
        assert vals["psi"][0] == pytest.approx(2 * np.exp(-2 * 0.7))

    def test_gap_scene_discount(self):
        scene = presets.poisson_gap_squares_2d(side=0.4, gap=0.15)
        x = np.array([0.2, 0.2])
        v = unit(0.0)
        xi = 0.7   # crosses the first gap
        g = geometry.gap(scene, [x], [v], [xi])[0]
        assert g == pytest.approx(0.15)
        vals = pk.poisson_psi(scene, [x], [v], [xi])
        assert vals["psi0_full"][0] == pytest.approx(np.exp(-2 * (xi - g)))

    def test_matches_generic_evaluator(self):
        scene = presets.poisson_gap_squares_2d()
        rng = np.random.default_rng(17)
        xs, vs, xis, ws, zs = _phase_rows(scene, rng, 60, [-0.1, -0.1],
                                          [1.6, 0.5], n_params=2)
        closed = pk.poisson_psi(scene, xs, vs, xis)
        for family in ("psi", "psi_marg_w", "psi0_full"):
            got = pk.family_rows(scene, xs, vs, xis, family, w=ws, z=zs)
            assert got == pytest.approx(closed[family], abs=1e-12)


def _integral(scene, family, x, v, lo, hi, w=None):
    """The family integrated over [lo, hi] along one ray: 16-point
    Gauss-Legendre on each piece between segment edges, where the 2D
    crystal factors are polynomials of degree <= 2."""
    entry, exit_, _ = geometry.segment_table(scene, np.array([x]),
                                             np.array([v]), hi)
    edges = np.r_[lo, hi, entry[0], exit_[0]]
    cuts = np.unique(edges[(edges >= lo) & (edges <= hi)])
    t, wts = np.polynomial.legendre.leggauss(16)
    a, b = cuts[:-1, None], cuts[1:, None]
    vals = pk.along_ray(scene, family, x, v,
                        ((a + b) / 2 + (b - a) / 2 * t).ravel(), w)
    return float(vals @ ((b - a) / 2 * wts).ravel())


class TestSurvival:
    def test_survival_is_integral_of_psi(self, two_squares):
        # quadrature oracle for the closed-form survival product
        x = two_squares.anchor
        v = unit(0.05)
        ts = (0.05, 0.2, 0.4, 0.8)
        *got, esc = pk.along_ray(two_squares, "survival_psi", x, v,
                                 ts + (2.0,))
        for t, surv in zip(ts, got):
            tail = _integral(two_squares, "psi", x, v, t, 2.0)
            assert surv == pytest.approx(tail + esc, abs=1e-9)

    def test_survival_psi0_matches_quadrature(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        w = np.array([0.35])
        k1 = oracle.kernel_for_grain(two_squares, 1)
        (a0, b0), (a1, b1) = segments(two_squares, x, v, 2.0)
        esc = float(k1.phi_marg(b0 - a0, w)) * float(K.d_phi(b1 - a1, 2))
        ts = (0.05, 0.25)
        got = pk.along_ray(two_squares, "survival_psi0_marg", x, v, ts, z=w)
        for t, surv in zip(ts, got):
            tail = _integral(two_squares, "psi0_marg", x, v, t, 2.0, w)
            assert surv == pytest.approx(tail + esc, abs=1e-9)

    def test_mass_deficit_equals_escape(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        total = _integral(two_squares, "psi", x, v, 0.0, 2.0)
        esc = one(two_squares, "survival_psi", x, v, 2.0)
        assert total + esc == pytest.approx(1.0, abs=1e-9)

    def test_infinite_tiling_mass_one(self, tiled_crystal):
        x = tiled_crystal.anchor
        v = unit(0.21)
        # total mass approaches 1 when the itinerary never ends
        esc = one(tiled_crystal, "survival_psi", x, v, 40.0)
        assert esc < 1e-4
        total = _integral(tiled_crystal, "psi", x, v, 0.0, 12.0)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestLogDerivativeWithinSegment:
    def test_prefactor_is_xi_free(self, two_squares):
        x = two_squares.anchor
        v = unit(0.0)
        a, b = segments(two_squares, x, v, 1.0)[1]
        xi1 = a + 0.3 * (b - a)
        xi2 = a + 0.7 * (b - a)
        p1, p2 = pk.along_ray(two_squares, "psi", x, v, [xi1, xi2])
        r1 = p1 / float(K.phi_freepath(xi1 - a, 2))
        r2 = p2 / float(K.phi_freepath(xi2 - a, 2))
        assert r1 == pytest.approx(r2, abs=1e-12)


@pytest.fixture(scope="module")
def scenes(two_squares, mixed_squares, tiled_crystal, tiled_crystal_3d):
    return {"finite2": two_squares, "finite3": presets.two_boxes_3d(),
            "mixed": mixed_squares, "tiled2": tiled_crystal,
            "tiled3": tiled_crystal_3d}


class TestFamilyCurves:
    """family_curves against the scalar loop products of the oracle, on
    every scene shape: one grid, one parameter row per ray."""

    FAMILIES = {"psi": (), "psi_marg_w": ("w",), "psi0_marg": ("w",),
                "psi0_full": ("w", "z")}

    @staticmethod
    def _rays(scene, rng, n=12):
        """Starts in grains, in gaps and outside every grain of a finite
        scene, the first two along the row of grains; a grid of 0, a
        regular grid, every entry and exit of those two rays, and a point
        beyond every segment of a finite scene.

        The next four rays of a finite scene: one from 1e-13 before the
        first grain's face, whose entry the table snaps to 0; one from the
        gap between the two grains; one back from the middle of the last
        grain (the Poisson one of "mixed"), with the first grain behind
        it; and one that misses every grain."""
        d = scene.dimension
        vs = scattering.sample_direction(rng, d, n)
        vs[:2] = np.eye(d)[0]
        if scene.periodic_box is not None:
            xs = flight.sample_positions(scene, n, rng)
            top = 1.0
        else:
            verts = np.vstack([g.vertices for g in scene.grains])
            xs = rng.uniform(verts.min(axis=0) - 0.1,
                             verts.max(axis=0) + 0.1, (n, d))
            xs[0] = scene.anchor
            first, last = (np.array([g.vertices.min(axis=0),
                                     g.vertices.max(axis=0)])
                           for g in (scene.grains[0], scene.grains[-1]))
            xs[2:6] = first.mean(axis=0)
            xs[2, 0] = first[0, 0] - 1e-13
            xs[3, 0] = 0.5 * (first[1, 0] + last[0, 0])
            xs[4] = last.mean(axis=0)
            xs[5] = verts.max(axis=0) + 0.05
            vs[2:6] = np.eye(d)[0]
            vs[4] *= -1.0
            entry = geometry.segment_table(scene, xs[2:6], vs[2:6], 2.0)[0]
            assert entry[0, 0] == 0.0 and entry[1, 0] > 0.0
            assert entry[2, 0] == 0.0 and np.isfinite(entry[2, 1])
            assert np.all(np.isinf(entry[3]))
            top = 2.0
        entry, exit_, _ = geometry.segment_table(scene, xs[:2], vs[:2], top)
        marks = np.concatenate([entry.ravel(), exit_.ravel()])
        grid = np.unique(np.concatenate([np.linspace(0.0, top, 33),
                                         marks[marks < top]]))
        params = {"w": scattering.sample_ball(rng, d - 1, n),
                  "z": scattering.sample_ball(rng, d - 1, n)}
        return xs, vs, grid, params

    @pytest.mark.parametrize("family", list(FAMILIES) + ["survival_psi"])
    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_matches_oracle(self, which, family, scenes):
        scene = scenes[which]
        xs, vs, grid, params = self._rays(scene, np.random.default_rng(41))
        keys = self.FAMILIES.get(family, ())
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
        # one point per ray gives the grid's column bit for bit
        j = len(grid) // 3
        rows = pk.family_rows(scene, xs, vs, np.full(n, grid[j]), family,
                              **{k: params[k] for k in keys})
        assert np.array_equal(rows, got[:, j])

    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_table_blocks_equal_one_table_per_block(self, which, scenes):
        # each block is the segment table of its own rows
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

    @pytest.mark.parametrize("family", ["psi", "survival_psi"])
    @pytest.mark.parametrize("which", ["finite2", "tiled2"])
    def test_no_rays(self, which, family, scenes):
        none = np.empty((0, 2))
        got = pk.family_curves(scenes[which], none, none,
                               np.linspace(0.0, 1.0, 7), family)
        assert got.shape == (0, 7)

    def test_along_ray_keeps_the_order(self, two_squares):
        x, v = two_squares.anchor, unit(0.0)
        xis = [0.4, 0.1, 0.17, 0.1, 0.0]
        got = pk.along_ray(two_squares, "psi0_full", x, v, xis, [0.3], [0.1])
        assert got.tolist() == [
            oracle.psi0_full(two_squares, x, v, xi, [0.3], [0.1])
            for xi in xis]
        with pytest.raises(ValueError, match="nonnegative"):
            pk.along_ray(two_squares, "psi", x, v, [0.1, -0.1])
        with pytest.raises(ValueError, match="unit ball"):
            pk.along_ray(two_squares, "psi_marg_w", x, v, [0.1], [1.5])
        # a parameter the family does not take is not checked
        assert pk.along_ray(two_squares, "psi", x, v, [0.1], [1.5]) \
            == pk.along_ray(two_squares, "psi", x, v, [0.1])


class TestFamilyRows:
    """family_rows, one path length per ray, against the scalar loop
    products of the oracle and against the shared-grid mode."""

    FAMILIES = dict(TestFamilyCurves.FAMILIES, survival_psi=())

    @staticmethod
    def _edge_rows(scene, rng, n=12):
        """Rays as in TestFamilyCurves, each with path lengths 0, every
        entry and exit of its own segments up to 2.0, a point inside each
        segment and 1.7; as rows (x, v, xi) and the ray index per row."""
        xs, vs, _, params = TestFamilyCurves._rays(scene, rng, n)
        entry, exit_, _ = geometry.segment_table(scene, xs, vs, 2.0)
        ray, xi = [], []
        for i in range(n):
            ok = np.isfinite(entry[i]) & (entry[i] < 2.0)
            marks = np.r_[0.0, 1.7, entry[i, ok], exit_[i, ok],
                          (entry[i, ok] + exit_[i, ok]) / 2]
            xi += marks.tolist()
            ray += [i] * len(marks)
        ray = np.array(ray)
        return (xs[ray], vs[ray], np.array(xi),
                {k: p[ray] for k, p in params.items()})

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_matches_oracle_at_segment_edges(self, which, family, scenes):
        # the tiled rows run to very different horizons in one block
        scene = scenes[which]
        xs, vs, xis, params = self._edge_rows(scene,
                                              np.random.default_rng(46))
        keys = self.FAMILIES[family]
        got = pk.family_rows(scene, xs, vs, xis, family,
                             **{k: params[k] for k in keys})
        want = [getattr(oracle, family)(scene, xs[i], vs[i], xis[i],
                                        *[params[k][i] for k in keys])
                for i in range(len(xis))]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_scatterer_start_survival(self, which, scenes):
        scene = scenes[which]
        xs, vs, xis, params = self._edge_rows(scene,
                                              np.random.default_rng(47))
        on = geometry.segment_table(scene, xs, vs, 1.0)[0][:, 0] == 0.0
        got = pk.family_rows(scene, xs[on], vs[on], xis[on],
                             "survival_psi0_marg", z=params["z"][on])
        want = [oracle.survival_psi0_marg(scene, x, v, xi, z) for x, v, xi, z
                in zip(xs[on], vs[on], xis[on], params["z"][on])]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        if scene.periodic_box is None:
            # off-grain starts: no density, and no survival function
            assert not on.all()
            for family in ("psi0_marg", "psi0_full"):
                vals = pk.family_rows(scene, xs[~on], vs[~on], xis[~on],
                                      family, w=params["w"][~on],
                                      z=params["z"][~on])
                assert np.all(vals == 0.0)
            with pytest.raises(pk.OffGrainStart):
                pk.family_rows(scene, xs, vs, xis, "survival_psi0_marg",
                               z=params["z"])

    def test_boundary_start_at_zero(self, two_squares):
        # on grain 1's left face: inward v is in the grain at xi = 0,
        # outward and tangent v are not
        x = [0.0, 0.15]
        vs = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
        w = [[0.3]] * 3
        got = {f: pk.family_rows(two_squares, [x] * 3, vs, [0.0] * 3, f,
                                 w=w, z=w)
               for f in ("psi", "psi_marg_w", "psi0_marg", "psi0_full")}
        assert got["psi"].tolist() == [2.0, 0.0, 0.0]
        for f, vals in got.items():
            assert vals.tolist() == [getattr(oracle, f)(
                two_squares, np.array(x), np.array(v), 0.0,
                *[[0.3]] * len(self.FAMILIES[f])) for v in vs]
        assert got["psi0_marg"][0] == pytest.approx(12 / np.pi ** 2)

    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed"])
    def test_inf_on_a_finite_scene(self, which, scenes):
        # no density at inf; the survival function is the escape mass
        scene = scenes[which]
        xs, vs, _, params = TestFamilyCurves._rays(
            scene, np.random.default_rng(48))
        inf = np.full(len(xs), np.inf)
        for family, keys in self.FAMILIES.items():
            got = pk.family_rows(scene, xs, vs, inf, family,
                                 **{k: params[k] for k in keys})
            if family == "survival_psi":
                want = [oracle.survival_psi(scene, x, v, np.inf)
                        for x, v in zip(xs, vs)]
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                assert np.all(got > 0.0)
            else:
                assert np.all(got == 0.0)

    @pytest.mark.parametrize("which", ["tiled2", "tiled3"])
    def test_inf_on_a_tiled_box_is_rejected(self, which, scenes):
        # the cells of a tiled box never end, so no table reaches inf
        scene = scenes[which]
        xs, vs, _, _ = TestFamilyCurves._rays(scene, np.random.default_rng(48))
        xis = np.full(len(xs), 0.5)
        xis[1] = np.inf
        for call in (lambda: pk.family_rows(scene, xs, vs, xis, "psi"),
                     lambda: pk.family_curves(scene, xs, vs, [0.5, np.inf],
                                              "survival_psi")):
            with pytest.raises(ValueError, match="tiled box must be finite"):
                call()

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_along_ray_is_the_shared_grid_row(self, which, family, scenes):
        # unsorted, repeated, 0 and every segment edge of the ray
        scene = scenes[which]
        xs, vs, grid, params = TestFamilyCurves._rays(
            scene, np.random.default_rng(49))
        keys = self.FAMILIES[family]
        row = {k: params[k][0] for k in keys}
        xis = np.random.default_rng(50).permutation(np.r_[grid, grid[::3]])
        got = pk.along_ray(scene, family, xs[0], vs[0], xis, **row)
        order = np.argsort(xis, kind="stable")
        want = np.empty(len(xis))
        want[order] = pk.family_curves(
            scene, xs[:1], vs[:1], xis[order], family,
            **{k: p[None] for k, p in row.items()})[0]
        assert np.array_equal(got, want)

    def test_rejects_nan_and_negative_lengths(self, two_squares, tiled_crystal):
        x, v = two_squares.anchor, unit(0.0)
        for bad in (np.nan, -0.1, -np.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                pk.family_rows(two_squares, [x, x], [v, v], [0.1, bad], "psi")
            with pytest.raises(ValueError, match="nonnegative"):
                pk.family_curves(two_squares, [x], [v], [0.0, 0.1, bad],
                                 "psi")
            with pytest.raises(ValueError, match="nonnegative"):
                pk.family_curves(tiled_crystal, [x], [v], [bad, 0.1],
                                 "survival_psi")
        # inf is a path length, on the shared grid too
        assert pk.family_curves(two_squares, [x], [v], [0.1, np.inf],
                                "psi")[0, 1] == 0.0


def _crystal_poisson_crystal():
    """Three squares along the x axis: crystal, Poisson, crystal, so that
    the factor codes of a row's segments alternate."""
    from polyxport.lattice import CrystalMedium, PoissonMedium
    grains = tuple(geometry.ConvexGrain.box(i + 1, (0.35 * i, 0.0),
                                            (0.35 * i + 0.3, 0.3))
                   for i in range(3))
    media = (CrystalMedium(presets.identity_lattice(2, (0.318, 0.577))),
             PoissonMedium(),
             CrystalMedium(presets.rotated_lattice_2d(1.0, (0.414, 0.162))))
    return geometry.make_scene(2, grains, media, anchor=(0.15, 0.15),
                               assume_incommensurable=True)


class TestBlockPartition:
    """The values do not depend on how the rows are cut into blocks of
    TABLE_ROWS: one row per block, a few, the default, and all at once."""

    PARTITIONS = (1, 3, 128, 4096)
    FAMILIES = {"psi": (), "psi_marg_w": ("w",), "psi0_marg": ("w",),
                "psi0_full": ("w", "z"), "survival_psi": (),
                "survival_psi0_marg": ("z",)}

    @pytest.fixture(scope="class")
    def row_scene(self):
        return _crystal_poisson_crystal()

    def _partitioned(self, monkeypatch, compute):
        """compute() at every partition, all bit for bit the first."""
        first = None
        for rows in self.PARTITIONS:
            monkeypatch.setattr(geometry, "TABLE_ROWS", rows)
            got = compute()
            if first is None:
                first = got
            assert np.array_equal(got, first), rows
        return first

    @staticmethod
    def _rays(scene, rng):
        """On a finite scene: the row of grains from inside its ends, from
        the gap before it and from its middle grain, two rays that miss
        every grain, one from 1e-13 before the first grain's face (its
        entry snaps to 0), and random rays.  On a tiled box: two rays
        through cell corners, whose tables hold zero-length cells, and
        random rays."""
        n = 14
        if scene.periodic_box is None:
            xs = rng.uniform(-0.3, 1.3, (n, 2))
            vs = scattering.sample_direction(rng, 2, n)
            xs[:7] = [[0.15, 0.15], [0.95, 0.2], [-0.2, 0.2], [0.5, 0.1],
                      [0.5, 2.0], [0.5, 0.32], [-1e-13, 0.25]]
            vs[:7] = [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                      [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        else:
            xs = flight.sample_positions(scene, n, rng)
            vs = scattering.sample_direction(rng, 2, n)
            xs[:2] = [[0.1, 0.1], [0.3, 0.05]]
            vs[:2] = [[np.sqrt(0.5), np.sqrt(0.5)],
                      [-np.sqrt(0.5), np.sqrt(0.5)]]
        params = {"w": scattering.sample_ball(rng, 1, n),
                  "z": scattering.sample_ball(rng, 1, n)}
        return xs, vs, params

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("which", ["row", "tiled"])
    def test_family_curves(self, which, family, row_scene, tiled_crystal,
                           monkeypatch):
        scene = row_scene if which == "row" else tiled_crystal
        xs, vs, params = self._rays(scene, np.random.default_rng(51))
        entry, exit_, _ = geometry.segment_table(scene, xs, vs, 1.2)
        if scene.periodic_box is None:
            kinds = [oracle.medium_of(scene, g).kind for g in
                     geometry.segment_table(scene, xs[:1], vs[:1], 0.0)[2][0]]
            assert kinds == ["crystal", "poisson", "crystal"]
            assert np.all(np.isinf(entry[4:6]))
            assert entry[6, 0] == 0.0
        else:
            assert np.any(np.isfinite(entry[:2]) & (entry[:2] == exit_[:2]))
        if family == "survival_psi0_marg":
            on = entry[:, 0] == 0.0
            xs, vs = xs[on], vs[on]
            params = {k: p[on] for k, p in params.items()}
        marks = np.concatenate([entry[:2].ravel(), exit_[:2].ravel()])
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.2, 49),
                                         marks[marks < 1.2]]))
        keys = self.FAMILIES[family]
        got = self._partitioned(monkeypatch, lambda: pk.family_curves(
            scene, xs, vs, grid, family, **{k: params[k] for k in keys}))
        scalar = getattr(oracle, family)
        for i, row in enumerate(got):
            args = [params[k][i] for k in keys]
            want = [scalar(scene, xs[i], vs[i], g, *args) for g in grid]
            # abs=0: a zero of the oracle must be an exact zero
            assert row == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("on_scatterer", [False, True])
    def test_limit_freepath_cdf(self, on_scatterer, row_scene, monkeypatch):
        from polyxport import harness
        from polyxport.microsim import BetaSpec
        kwargs = {"on_scatterer": on_scatterer, "m_dirs": 256,
                  "beta": BetaSpec("radial", 0.6) if on_scatterer else None}
        got = self._partitioned(monkeypatch, lambda: harness.limit_freepath_cdf(
            row_scene, row_scene.anchor, **kwargs)[1])
        _, want = oracle.limit_freepath_cdf(row_scene, row_scene.anchor,
                                            **kwargs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("which", ["row", "tiled"])
    def test_mean_survival_curve(self, which, row_scene, tiled_crystal,
                                 monkeypatch):
        from polyxport import harness
        scene = row_scene if which == "row" else tiled_crystal
        xs, vs, _ = self._rays(scene, np.random.default_rng(52))
        grid = np.linspace(0.0, 1.5, 301)
        got = self._partitioned(monkeypatch, lambda: harness.mean_survival_curve(
            scene, xs, vs, grid))
        assert np.array_equal(got, oracle.mean_survival_curve(scene, xs, vs,
                                                              grid))
