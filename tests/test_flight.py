import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import poisson as poisson_dist

from polyxport import (flight, geometry, harness, kernels, polykernel,
                       presets, scattering, stats)
from polyxport.flight import (Ensemble, evolve, n_collision_histogram,
                              sample_collision, sample_initial, sample_xi_w)
from polyxport.geometry import (FiniteSceneWalker, SceneError, TiledBoxWalker,
                                itinerary, segment_table)

import flight_oracles
import itinerary_oracles as oracle


class TestWalkers:
    def test_finite_walker_matches_itinerary(self, two_squares):
        rng = np.random.default_rng(0)
        n = 40
        xs = rng.uniform([-0.3, -0.2], [0.9, 0.5], (n, 2))
        th = rng.uniform(0, 2 * np.pi, n)
        vs = np.stack([np.cos(th), np.sin(th)], axis=1)
        wk = FiniteSceneWalker(two_squares, xs, vs)
        for step in range(3):
            entry, exit_, gid, valid = wk.current()
            for i in range(n):
                segs = oracle.itinerary(two_squares, xs[i], vs[i], 5.0)
                if step < len(segs):
                    assert valid[i]
                    assert entry[i] == pytest.approx(segs[step].entry,
                                                     abs=1e-12)
                    assert exit_[i] == pytest.approx(segs[step].exit,
                                                     abs=1e-12)
                    assert gid[i] == segs[step].grain_id
                else:
                    assert not valid[i]
            wk.advance(np.ones(n, dtype=bool))

    def test_tiled_walker_chains_cells(self, tiled_crystal):
        rng = np.random.default_rng(1)
        n = 30
        xs = rng.uniform(0.01, 0.34, (n, 2))
        th = rng.uniform(0, 2 * np.pi, n)
        vs = np.stack([np.cos(th), np.sin(th)], axis=1)
        wk = TiledBoxWalker(tiled_crystal, xs, vs)
        prev_exit = np.zeros(n)
        diag = 0.35 * np.sqrt(2)
        for _ in range(60):
            entry, exit_, gid, valid = wk.current()
            assert np.all(valid)
            assert np.allclose(entry, prev_exit)
            assert np.all(exit_ - entry <= diag + 1e-9)
            prev_exit = exit_.copy()
            wk.advance(np.ones(n, dtype=bool))

    def test_partial_periodic_rejected(self):
        from polyxport import ConvexGrain, PeriodicBox, make_scene
        from polyxport.lattice import PoissonMedium
        g = ConvexGrain.box(1, (0, 0), (0.2, 0.2))
        with pytest.raises(SceneError):
            make_scene(2, (g,), (PoissonMedium(),),
                       periodic_box=PeriodicBox((0, 0), (0.4, 0.4)))


class TestSegmentTable:
    def test_tiled_table_replays_walker(self, tiled_crystal, tiled_crystal_3d):
        # the per-axis cumsum must give the walker's exits bit for bit
        rng = np.random.default_rng(20)
        for scene, side in ((tiled_crystal, 0.35), (tiled_crystal_3d, 0.14)):
            d = scene.dimension
            n = 50
            xs = rng.uniform(0.0, 3 * side, (n, d))
            vs = scattering.sample_direction(rng, d, n)
            vs[0] = np.eye(d)[0]                 # axis-parallel
            vs[1] = np.ones(d) / np.sqrt(d)      # through cell edges
            xs[1] = side / 2
            entry, exit_, gid = geometry.segment_table(scene, xs, vs, 2.0)
            assert np.all(gid == scene.grains[0].id)
            wk = TiledBoxWalker(scene, xs, vs)
            for k in range(entry.shape[1]):
                e, h, _, _ = wk.current()
                listed = np.isfinite(entry[:, k])
                assert np.array_equal(entry[listed, k], e[listed])
                assert np.array_equal(exit_[listed, k], h[listed])
                # each row lists its cells through the first exit past 2
                assert np.all(listed == (e <= 2.0))
                assert np.all(np.isinf(exit_[~listed, k]))
                wk.advance(np.ones(n, dtype=bool))
            assert np.any(exit_[1, 1:] == entry[1, 1:])   # zero-length cell

    def test_near_axis_ray_lists_only_the_moving_axis(self, tiled_crystal):
        # a subnormal y-component makes the y crossings overflow to inf
        xs = np.array([[0.175, 0.175]])
        vs = np.array([[1.0, 2.2250738585072014e-308]])
        entry, exit_, _ = geometry.segment_table(tiled_crystal, xs, vs, 4.0)
        listed = np.isfinite(exit_[0])
        assert np.allclose(np.diff(exit_[0, listed]), 0.35)
        assert exit_[0, listed][-1] > 4.0

    def test_subnormal_component_is_never_crossed(self, tiled_crystal):
        # 0.35 / 5e-324 overflows: no RuntimeWarning, and the same cells
        # as the ray without that component, in the table and itinerary
        x = np.array([0.175, 0.175])
        table = geometry.segment_table(tiled_crystal, np.array([x]),
                                     np.array([[1.0, 5e-324]]), 4.0)
        plain = geometry.segment_table(tiled_crystal, np.array([x]),
                                     np.array([[1.0, 0.0]]), 4.0)
        assert all(np.array_equal(a, b) for a, b in zip(table, plain))
        assert itinerary(tiled_crystal, x, np.array([1.0, 5e-324]), 4.0) \
            == itinerary(tiled_crystal, x, np.array([1.0, 0.0]), 4.0)


def _on_face(frac, v, j, sign):
    """The ray (frac, v) moved onto the cell face of axis j, with v moving
    along (sign 1), against (-1) or tangent to (0) that axis."""
    frac, v = list(frac), list(v)
    frac[j] = 0.0
    v[j] = sign * max(abs(v[j]), 0.1)
    if np.linalg.norm(v) < 0.1:
        v[(j + 1) % len(v)] = 1.0
    return frac, v


class TestCellFaces:
    """A start on a cell face is in the cell that v points into, and a ray
    along a face stays in the grain, for the tiled table and the scalar
    itinerary alike (rays on presets.tiled_box_2d())."""

    RAYS = [((0.0, 0.1), (-1.0, 0.0)),    # on a face, against its axis
            ((0.1, 0.0), (1.0, 0.0))]     # along a face

    @pytest.mark.parametrize("x,v", RAYS)
    def test_table_and_itinerary_give_the_same_cells(self, tiled_crystal,
                                                      x, v):
        entry, exit_, gid = geometry.segment_table(
            tiled_crystal, np.array([x]), np.array([v]), 2.0)
        assert entry[0, 0] == 0.0 < exit_[0, 0]     # no zero-length first cell
        table = [(int(g), e, h) for g, e, h in zip(gid[0], entry[0], exit_[0])
                 if e < 2.0 and h > e]
        segs = oracle.itinerary(tiled_crystal, np.array(x), np.array(v), 2.0)
        assert table
        assert [(s.grain_id, s.entry, s.exit) for s in segs] == table

    @pytest.mark.parametrize("x,v", RAYS)
    def test_survival_curves_match_scalar(self, tiled_crystal, x, v):
        grid = [0.0, 0.1, 0.25, 0.35, 0.5, 0.7, 1.2]
        z = [[0.3]]
        got = polykernel.family_curves(tiled_crystal, [x], [v], grid,
                                       "survival_psi0_marg", z=z)[0]
        want = [oracle.survival_psi0_marg(tiled_crystal, np.array(x),
                                          np.array(v), t, z[0])
                for t in grid]
        assert got.tolist() == want
        got = polykernel.family_curves(tiled_crystal, [x], [v], grid,
                                       "survival_psi")[0]
        want = [oracle.survival_psi(tiled_crystal, np.array(x),
                                    np.array(v), t) for t in grid]
        assert got.tolist() == want

    def test_tangent_ray_is_inside(self, tiled_crystal):
        x, v = self.RAYS[1]
        # the first cell starts at 0: the ray starts in the grain
        entry = segment_table(tiled_crystal, np.array([x]), np.array([v]),
                              1.0)[0]
        assert entry[0, 0] == 0.0


def _row_strategy(d):
    """(cell fraction, direction) of one ray: generic, axis-parallel, from
    the cell centre along a diagonal, which crosses cell edges (two axes at
    the same time: zero-length segments), or from a cell face."""
    frac = st.lists(st.floats(0.01, 0.99), min_size=d, max_size=d)
    component = st.floats(-1.0, 1.0, allow_subnormal=False)
    generic = st.tuples(frac, st.lists(component, min_size=d,
                                       max_size=d).map(
        lambda v: v if np.linalg.norm(v) > 0.1 else [1.0] + v[1:]))
    axis = st.tuples(frac, st.tuples(st.integers(0, d - 1),
                                     st.sampled_from([-1.0, 1.0])).map(
        lambda a: list(a[1] * np.eye(d)[a[0]])))
    diagonal = st.tuples(st.just([0.5] * d),
                         st.lists(st.sampled_from([-1.0, 1.0]), min_size=d,
                                  max_size=d))
    face = st.builds(_on_face, frac, st.lists(component, min_size=d,
                                              max_size=d),
                     st.integers(0, d - 1), st.sampled_from([-1.0, 0.0, 1.0]))
    return st.one_of(generic, axis, diagonal, face)


def _scalar_walk(scene, kern, x, v, budget, kind):
    """The budget walk of one ray over the scalar itinerary oracle, one
    segment at a time; also the in-grain lengths at which it could change
    segment."""
    segs = oracle.itinerary(scene, x, v, budget + 1.0)
    ell1 = (segs[0].exit - segs[0].entry) if segs else 0.0
    ing, prod, marks = 0.0, 1.0, []
    for k, s in enumerate(segs):
        rem = budget - ing
        if rem < (s.exit - s.entry):
            return (s.entry + rem, rem, budget, prod, ell1, k == 0,
                    False), marks
        ing += (s.exit - s.entry)
        marks.append(ing)
        if not (k == 0 and kind == "psi0"):
            prod *= float(kern.d_phi((s.exit - s.entry)))
    return (np.inf, 0.0, ing, prod, ell1, False, True), marks


class TestBudgetWalk:
    @given(data=st.data(), which=st.sampled_from(["tiled2", "tiled3",
                                                  "finite"]),
           kind=st.sampled_from(["psi", "psi0"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_itinerary_walk(self, data, which, kind,
                                           tiled_crystal, tiled_crystal_3d,
                                           two_squares):
        # scene, box of the starts, period of the tiling (0: finite), and
        # the largest budget: 30 cells, or past all grain of two_squares
        scene, lo, hi, period, top = {
            "tiled2": (tiled_crystal, (0.0,) * 2, (0.35,) * 2, 0.35, 10.5),
            "tiled3": (tiled_crystal_3d, (0.0,) * 3, (0.14,) * 3, 0.14, 4.2),
            "finite": (two_squares, (-0.1, -0.1), (0.85, 0.5), 0.0, 1.0),
        }[which]
        d = scene.dimension
        rows = data.draw(st.lists(_row_strategy(d), min_size=1, max_size=6))
        cells = data.draw(st.lists(st.integers(-3, 3), min_size=d,
                                   max_size=d))
        lo, hi = np.asarray(lo), np.asarray(hi)
        xs = np.array([lo + np.asarray(f) * (hi - lo)
                       + np.asarray(cells) * period for f, _ in rows])
        vs = np.array([np.asarray(v) / np.linalg.norm(v) for _, v in rows])
        budget = np.array(data.draw(st.lists(
            st.floats(0.0, top), min_size=len(rows), max_size=len(rows))))
        kern = flight._uniform_kernel(scene)
        got = flight_oracles._walk_to_budget(scene, kern, xs, vs, budget,
                                             kind)
        for i in range(len(xs)):
            want, marks = _scalar_walk(scene, kern, xs[i], vs[i], budget[i],
                                       kind)
            # a budget on a segment end may land on either side of it
            assume(all(abs(budget[i] - m) > 1e-9 * (1.0 + m) for m in marks))
            scale = 1e-12 * (1.0 + budget[i])
            for name, g, w in zip(("xi", "u", "ing", "prod", "ell1"),
                                  [a[i] for a in got[:5]], want[:5]):
                if np.isinf(w):
                    assert g == w, name
                else:
                    assert g == pytest.approx(w, rel=1e-12, abs=scale), name
            assert got[5][i] == want[5]
            assert got[6][i] == want[6]


class TestSurvivalOracle:
    @pytest.mark.parametrize("which", ["tiled2", "tiled3", "finite"])
    def test_matches_scalar_survival(self, which, tiled_crystal,
                                     tiled_crystal_3d, two_squares):
        scene = {"tiled2": tiled_crystal, "tiled3": tiled_crystal_3d,
                 "finite": two_squares}[which]
        d = scene.dimension
        rng = np.random.default_rng(21)
        n = 300
        assert n > 2 * geometry.TABLE_ROWS    # several blocks of the table
        if which == "finite":
            xs = rng.uniform((-0.1, -0.1), (0.85, 0.5), (n, 2))
        else:
            xs = flight.sample_positions(scene, n, rng)
        vs = scattering.sample_direction(rng, d, n)
        vs[1] = np.eye(d)[0]
        xs[2] = 0.1
        vs[2] = np.eye(d)[0]              # through both finite grains
        segs = oracle.itinerary(scene, xs[2], vs[2], 3.0)
        ts = [0.0, 0.37, 0.9, segs[1].entry]      # the last on a crossing
        if which == "finite":
            ts.append(2.0)       # beyond every segment: the escape mass
            assert max(s.exit for x, v in zip(xs, vs)
                       for s in oracle.itinerary(scene, x, v, 2.0)) < 2.0
        for t in ts:
            got = polykernel.family_curves(scene, xs, vs, [t],
                                           "survival_psi")[:, 0]
            want = [oracle.survival_psi(scene, x, v, t)
                    for x, v in zip(xs, vs)]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_quadrature_is_mean_survival(self, tiled_crystal_3d):
        got = flight.no_collision_fraction_quadrature(
            tiled_crystal_3d, 1.0, 500, np.random.default_rng(22))
        rng = np.random.default_rng(22)
        xs = flight.sample_positions(tiled_crystal_3d, 500, rng)
        vs = scattering.sample_direction(rng, 3, 500)
        want = np.mean([oracle.survival_psi(tiled_crystal_3d, x, v, 1.0)
                        for x, v in zip(xs, vs)])
        assert got == pytest.approx(want, rel=1e-12)


class TestSurvivalCurves:
    """family_curves of the survival families against the scalar survival
    oracles."""

    @pytest.fixture(scope="class")
    def scenes(self, two_squares, mixed_squares, tiled_crystal,
               tiled_crystal_3d):
        return {"finite2": two_squares, "finite3": presets.two_boxes_3d(),
                "mixed": mixed_squares, "tiled2": tiled_crystal,
                "tiled3": tiled_crystal_3d}

    @staticmethod
    def _rays(scene, n, rng, in_grain):
        d = scene.dimension
        if in_grain or scene.periodic_box is not None:
            xs = flight.sample_positions(scene, n, rng)
        else:       # gap and outside starts too
            verts = np.vstack([g.vertices for g in scene.grains])
            xs = rng.uniform(verts.min(axis=0) - 0.1, verts.max(axis=0) + 0.1,
                             (n, d))
            xs[1] = scene.anchor
        vs = scattering.sample_direction(rng, d, n)
        vs[:2] = np.eye(d)[0]            # along the row of grains
        return xs, vs

    @staticmethod
    def _grid(scene, xs, vs, top):
        """0, a regular grid, every entry and exit of two rays, and top:
        beyond every segment of a finite scene (its escape mass)."""
        entry, exit_, _ = geometry.segment_table(scene, xs[:2], vs[:2], top)
        marks = np.concatenate([entry.ravel(), exit_.ravel()])
        marks = marks[marks < top]
        if scene.periodic_box is None:
            assert np.max(exit_[np.isfinite(exit_)]) < top
        assert len(marks) >= 4
        return np.unique(np.concatenate([np.linspace(0.0, top, 33), marks]))

    @pytest.mark.parametrize("which", ["finite2", "finite3", "mixed",
                                       "tiled2", "tiled3"])
    def test_psi_matches_scalar(self, which, scenes):
        scene = scenes[which]
        xs, vs = self._rays(scene, 12, np.random.default_rng(31), False)
        top = 1.0 if scene.periodic_box is not None else 2.0
        grid = self._grid(scene, xs, vs, top)
        got = polykernel.family_curves(scene, xs, vs, grid, "survival_psi")
        for x, v, row in zip(xs, vs, got):
            want = [oracle.survival_psi(scene, x, v, t) for t in grid]
            assert row == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("which", ["finite3", "tiled3", "mixed"])
    def test_psi0_matches_scalar(self, which, scenes):
        scene = scenes[which]
        rng = np.random.default_rng(32)
        xs, vs = self._rays(scene, 10, rng, True)
        z = scattering.sample_ball(rng, scene.dimension - 1, len(xs))
        assert np.all(np.linalg.norm(z, axis=1) > 0)
        top = 1.0 if scene.periodic_box is not None else 2.0
        grid = self._grid(scene, xs, vs, top)
        got = polykernel.family_curves(scene, xs, vs, grid,
                                       "survival_psi0_marg", z=z)
        for x, v, w, row in zip(xs, vs, z, got):
            want = [oracle.survival_psi0_marg(scene, x, v, t, w)
                    for t in grid]
            assert row == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_psi0_off_grain_start_rejected(self, two_squares):
        with pytest.raises(polykernel.OffGrainStart):
            polykernel.family_curves(two_squares, [[0.32, 0.1]],
                                     [[0.0, 1.0]], [0.0, 1.0],
                                     "survival_psi0_marg", z=[[0.2]])


class TestSamplers:
    def test_poisson_exponential(self, tiled_poisson):
        rng = np.random.default_rng(2)
        xs = flight.sample_positions(tiled_poisson, 100000, rng)
        vs = scattering.sample_direction(rng, 2, 100000)
        xi, w = sample_xi_w(tiled_poisson, xs, vs, rng, kind="psi")
        ks = stats.ks_distance(xi, lambda t: 1 - np.exp(-2 * t))
        assert ks < 0.006
        assert np.all(np.abs(w) < 1)

    def test_crystal_tiled_matches_survival_oracle(self, tiled_crystal):
        rng = np.random.default_rng(3)
        n = 100000
        xs = flight.sample_positions(tiled_crystal, n, rng)
        vs = scattering.sample_direction(rng, 2, n)
        xi, _ = sample_xi_w(tiled_crystal, xs, vs, rng, kind="psi")
        grid = np.linspace(0, 3.0, 601)
        m = 2500
        surv = harness.mean_survival_curve(tiled_crystal, xs[:m], vs[:m], grid)
        ks = stats.ks_distance(xi,
                               harness_interp(grid, 1 - surv))
        assert ks < 0.012

    def test_escape_fraction_matches_quadrature(self, two_squares):
        rng = np.random.default_rng(4)
        n = 60000
        xs = flight.sample_positions(two_squares, n, rng)
        vs = scattering.sample_direction(rng, 2, n)
        xi, _ = sample_xi_w(two_squares, xs, vs, rng, kind="psi")
        esc_emp = np.mean(~np.isfinite(xi))
        rng2 = np.random.default_rng(5)
        m = 4000
        xs2 = flight.sample_positions(two_squares, m, rng2)
        vs2 = scattering.sample_direction(rng2, 2, m)
        esc_q = np.mean(polykernel.family_curves(two_squares, xs2, vs2,
                                                 [3.0], "survival_psi")[:, 0])
        se = np.sqrt(esc_q * (1 - esc_q)) * (1 / np.sqrt(n) + 1 / np.sqrt(m))
        assert abs(esc_emp - esc_q) < 4 * se + 1e-3

    def test_factorized_vs_rejection_psi(self, two_squares):
        rng = np.random.default_rng(6)
        n = 40000
        xs = flight.sample_positions(two_squares, n, rng)
        vs = scattering.sample_direction(rng, 2, n)
        xa, wa = sample_xi_w(two_squares, xs, vs, rng, kind="psi")
        xb, wb = flight_oracles.sample_xi_w_rejection(two_squares, xs, vs,
                                                      rng, kind="psi")
        d, p = stats.ks_two_sample(xa[np.isfinite(xa)], xb[np.isfinite(xb)])
        assert p > 0.001
        d2, p2 = stats.ks_two_sample(wa[np.isfinite(xa), 0],
                                     wb[np.isfinite(xb), 0])
        assert p2 > 0.001

    def test_factorized_vs_rejection_psi0(self, two_squares):
        rng = np.random.default_rng(7)
        n = 40000
        x0 = np.tile(two_squares.anchor, (n, 1))
        v_prev = scattering.sample_direction(rng, 2, n)
        b = scattering.sample_ball(rng, 1, n)
        v_now = scattering.deflect_many(v_prev, b)
        xa, va = sample_collision(two_squares, x0, v_prev, v_now, rng)
        z = -scattering.exit_params_many(v_now, v_prev)
        xb, wb = flight_oracles.sample_xi_w_rejection(two_squares, x0, v_now,
                                                      rng, kind="psi0", z=z)
        d, p = stats.ks_two_sample(xa[np.isfinite(xa)], xb[np.isfinite(xb)])
        assert p > 0.001

    @pytest.mark.parametrize("sampler, seed", [("rejection", 8),
                                               ("auto", 28)])
    def test_3d_crystal_matches_density(self, sampler, seed, monkeypatch):
        # d=3 kernels couple (xi, w); bin masses of the sampled law on a
        # single grain against direct quadrature of the marginal density
        # with the per-direction segment cutoff, for the per-segment
        # sampler and for the envelope rejection oracle
        if sampler == "rejection":
            monkeypatch.setattr(flight, "sample_xi_w",
                                flight_oracles.sample_xi_w_rejection)
        scene = presets.single_box_3d(side=0.14)
        rng = np.random.default_rng(seed)
        n = 60000
        x0 = np.tile(scene.anchor, (n, 1))
        v_prev = scattering.sample_direction(rng, 3, n)
        v_now = scattering.deflect_many(v_prev,
                                        scattering.sample_ball(rng, 2, n))
        xi, _ = sample_collision(scene, x0, v_prev, v_now, rng)
        fin = np.isfinite(xi)
        assert fin.mean() > 0.2
        zs = -scattering.exit_params_many(v_now, v_prev)
        edges = np.linspace(0, 0.13, 7)
        emp = np.histogram(xi[fin], edges)[0] / n
        m = 2500
        probs = np.zeros(len(edges) - 1)
        for i in range(m):
            ell1 = itinerary(scene, x0[i], v_now[i], 1.0)[0].exit
            for j, (a, c) in enumerate(zip(edges, edges[1:])):
                c_eff = min(c, ell1)
                if c_eff > a:
                    grid = np.linspace(a, c_eff, 9)
                    probs[j] += np.trapezoid(
                        kernels.phi0_marginal(grid, zs[i], 3), grid)
        probs /= m
        se = np.sqrt(probs * (1 - probs)) * (1 / np.sqrt(n) + 1 / np.sqrt(m))
        assert np.all(np.abs(emp - probs) < 5 * se + 2e-3)

    @pytest.mark.parametrize("which", ["tiled", "two_boxes"])
    @pytest.mark.parametrize("kind", ["psi", "psi0"])
    def test_auto_vs_rejection_3d_crystal(self, which, kind,
                                          tiled_crystal_3d):
        # the per-segment sampler against the envelope rejection on the
        # flight length and on the impact parameter's law given the start:
        # |w| for a generic start, |w - z| for a scatterer start
        scene = tiled_crystal_3d if which == "tiled" \
            else presets.two_boxes_3d()
        seed = {"tiled": 30, "two_boxes": 40}[which] \
            + {"psi": 0, "psi0": 1}[kind]
        rng = np.random.default_rng(seed)
        n = 20000
        z = None
        if kind == "psi":
            xs = flight.sample_positions(scene, n, rng)
            vs = scattering.sample_direction(rng, 3, n)
        else:
            xs = np.tile(scene.anchor, (n, 1))
            v_prev = scattering.sample_direction(rng, 3, n)
            vs = scattering.deflect_many(v_prev,
                                         scattering.sample_ball(rng, 2, n))
            z = -scattering.exit_params_many(vs, v_prev)
        xa, wa = sample_xi_w(scene, xs, vs, rng, kind=kind, z=z)
        xb, wb = flight_oracles.sample_xi_w_rejection(scene, xs, vs, rng,
                                                      kind=kind, z=z)
        fa, fb = np.isfinite(xa), np.isfinite(xb)
        assert np.all(wa[~fa] == 0.0)
        assert np.all(np.linalg.norm(wa, axis=1) < 1.0)
        ref = np.zeros((n, 2)) if z is None else z
        _, p_xi = stats.ks_two_sample(xa[fa], xb[fb])
        _, p_w = stats.ks_two_sample(np.linalg.norm(wa - ref, axis=1)[fa],
                                     np.linalg.norm(wb - ref, axis=1)[fb])
        assert p_xi > 0.001
        assert p_w > 0.001

    def test_psi0_off_grain_start_escapes(self, two_squares):
        rng = np.random.default_rng(9)
        x0 = np.array([[-0.5, -0.5]])
        v_prev = np.array([[1.0, 0.0]])
        v_now = np.array([[0.0, 1.0]])
        xi, _ = sample_collision(two_squares, x0, v_prev, v_now, rng)
        assert not np.isfinite(xi[0])


def harness_interp(grid, values):
    from polyxport.harness import interp_cdf
    return interp_cdf(grid, values)


class TestEvolve:
    def test_translation_only(self, tiled_poisson):
        rng = np.random.default_rng(10)
        ens = sample_initial(tiled_poisson, 1000, rng)
        dt = float(ens.xi.min()) / 2
        out = evolve(tiled_poisson, ens, dt, rng)
        assert np.allclose(out.x, ens.x + dt * ens.v)
        assert np.allclose(out.xi, ens.xi - dt)
        assert np.array_equal(out.nu, ens.nu)

    def test_escaped_are_absorbing(self, two_squares):
        rng = np.random.default_rng(11)
        ens = sample_initial(two_squares, 4000, rng)
        esc = ens.escaped
        assert esc.any()
        out = evolve(two_squares, ens, 5.0, rng)
        assert np.array_equal(out.escaped | True, np.ones(ens.n, dtype=bool))
        assert np.all(out.nu[esc] == 0)
        assert np.allclose(out.x[esc], ens.x[esc] + 5.0 * ens.v[esc])

    def test_poisson_collision_counts(self, tiled_poisson):
        rng = np.random.default_rng(12)
        n = 100000
        ens = sample_initial(tiled_poisson, n, rng)
        t = 1.0
        out = evolve(tiled_poisson, ens, t, rng)
        counts = n_collision_histogram(out)
        lam = 2.0 * t
        pmf = poisson_dist.pmf(np.arange(len(counts)), lam)
        pmf[-1] = 1 - pmf[:-1].sum()
        chi2, p = stats.chi2_gof(counts, pmf, min_expected=5.0)
        assert p > 0.01

    def test_n0_fraction_matches_survival_oracle(self, tiled_crystal):
        rng = np.random.default_rng(13)
        n = 100000
        ens = sample_initial(tiled_crystal, n, rng)
        t = 0.9
        out = evolve(tiled_crystal, ens, t, rng)
        frac0 = float((out.nu == 0).mean())
        oracle = flight.no_collision_fraction_quadrature(
            tiled_crystal, t, 20000, np.random.default_rng(14))
        assert frac0 == pytest.approx(oracle, rel=0.02)

    def test_semigroup_split_statistics(self, tiled_crystal):
        rng_a = np.random.default_rng(15)
        ens = sample_initial(tiled_crystal, 50000, rng_a)
        whole = evolve(tiled_crystal, ens, 1.5, rng_a)
        rng_b = np.random.default_rng(16)
        part = evolve(tiled_crystal, ens, 0.6, rng_b)
        part = evolve(tiled_crystal, part, 0.9, rng_b)
        d, p = stats.ks_two_sample(whole.xi, part.xi)
        assert p > 0.01
        assert np.array_equal(np.bincount(whole.nu).argmax(),
                              np.bincount(part.nu).argmax())

    def test_factorized_and_rejection_evolve_agree(self, tiled_crystal,
                                                   monkeypatch):
        n = 20000
        rng1 = np.random.default_rng(17)
        e1 = sample_initial(tiled_crystal, n, rng1)
        e1 = evolve(tiled_crystal, e1, 1.0, rng1)
        monkeypatch.setattr(flight, "sample_xi_w",
                            flight_oracles.sample_xi_w_rejection)
        rng2 = np.random.default_rng(18)
        e2 = sample_initial(tiled_crystal, n, rng2)
        e2 = evolve(tiled_crystal, e2, 1.0, rng2)
        d, p = stats.ks_two_sample(e1.xi, e2.xi)
        assert p > 0.001
        c1 = np.bincount(e1.nu, minlength=8)[:8] / n
        c2 = np.bincount(e2.nu, minlength=8)[:8] / n
        assert np.max(np.abs(c1 - c2)) < 0.015

    def test_factorized_and_rejection_evolve_agree_3d(self,
                                                      tiled_crystal_3d,
                                                      monkeypatch):
        n = 10000
        scene = tiled_crystal_3d
        runs = []
        for seed, sampler in ((19, sample_xi_w),
                              (20, flight_oracles.sample_xi_w_rejection)):
            monkeypatch.setattr(flight, "sample_xi_w", sampler)
            rng = np.random.default_rng(seed)
            ens = sample_initial(scene, n, rng)
            runs.append(evolve(scene, ens, 0.6, rng))
        e1, e2 = runs
        d, p = stats.ks_two_sample(e1.xi, e2.xi)
        assert p > 0.001
        c1 = np.bincount(e1.nu, minlength=6)[:6] / n
        c2 = np.bincount(e2.nu, minlength=6)[:6] / n
        # 4 standard errors of a difference of two fractions near 0.25
        assert np.max(np.abs(c1 - c2)) < 0.025


class TestStationarity:
    def test_poisson_exact(self, tiled_poisson):
        rep = flight.stationarity_test(tiled_poisson, 50000, 1.5, seed=5)
        assert rep.ks_xi[1] > 0.01
        assert rep.ks_vplus[1] > 0.01

    def test_crystal_tiling(self, tiled_crystal):
        rep = flight.stationarity_test(tiled_crystal, 50000, 2.5, seed=4)
        assert rep.ks_xi[1] > 0.01
        assert rep.ks_vplus[1] > 0.01
        assert rep.ks_cell[1] > 0.01

    def test_split_leaves_the_marginal_tests_alone(self, tiled_crystal):
        plain = flight.stationarity_test(tiled_crystal, 5000, 1.0, seed=3)
        split = flight.stationarity_test(tiled_crystal, 5000, 1.0, seed=3,
                                         split=(0.4, 0.6))
        assert plain.ks_split is None
        for name in ("ks_xi", "ks_vplus", "ks_v", "ks_cell"):
            assert getattr(split, name) == getattr(plain, name)
        assert split.ks_split[1] > 0.001

    def test_crystal_tiling_3d(self, tiled_crystal_3d):
        # every p-value above the Bonferroni level of a 1e-3 family
        names = ("ks_xi", "ks_vplus", "ks_v", "ks_cell", "ks_split")
        seeds = range(3)
        level = 1e-3 / (len(seeds) * len(names))
        for seed in seeds:
            rep = flight.stationarity_test(tiled_crystal_3d, 20000, 1.0,
                                           seed, split=(0.4, 0.6))
            for name in names:
                assert getattr(rep, name)[1] > level, (seed, name)

    def test_3d_sees_polar_angle_and_every_cell_coordinate(
            self, tiled_crystal_3d, monkeypatch):
        # an "evolution" that keeps every azimuth and x, y coordinate but
        # squeezes the polar cosines towards 0 and the wrapped z
        # coordinates towards the bottom face: only the polar and z
        # components can see the drift
        box = tiled_crystal_3d.periodic_box

        def squeeze(scene, ens, dt, rng):
            out = ens.copy()
            for vs in (out.v, out.v_plus):
                c = vs[:, 2] ** 3
                vs[:, :2] *= np.sqrt((1.0 - c * c)
                                     / (1.0 - vs[:, 2] ** 2))[:, None]
                vs[:, 2] = c
            frac = (out.x[:, 2] - box.lo[2]) / box.size[2]
            out.x[:, 2] = box.lo[2] + box.size[2] * frac ** 2
            return out

        monkeypatch.setattr(flight, "evolve", squeeze)
        rep = flight.stationarity_test(tiled_crystal_3d, 2000, 1.0, seed=0)
        assert rep.ks_xi[1] == 1.0
        for name in ("ks_v", "ks_vplus", "ks_cell"):
            assert getattr(rep, name)[1] < 1e-6, name
