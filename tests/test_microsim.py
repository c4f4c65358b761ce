import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyxport import ConvexGrain, make_scene, microsim, presets, scattering
from polyxport.geometry import SceneError
from polyxport.lattice import PoissonMedium, dist_point_segment
from polyxport.microsim import (BetaSpec, MicroConfig, MicroRuntime,
                                PointGrid, poisson_realization)

import microsim_oracles


def brute_force_first_hit(rt, x, v, exclude=None, omegas=None):
    """Full enumeration over every scatterer: the search oracle.

    omegas: optional (G, d) lattice offsets of the crystal grains.  The
    entry root is written as in the engine, so a disagreement can only
    come from the candidate search.
    """
    best_t, best_g = np.inf, -1
    r = rt.r
    for j, g in enumerate(rt.scene.grains):
        ys = rt.scatterers(g.id, None if omegas is None else omegas[j])
        if exclude is not None and len(ys):
            ys = ys[np.linalg.norm(ys - exclude, axis=1) > 1e-9 * rt.epsilon]
        u = ys - x
        tc = np.sum(u * v, axis=1)
        q = np.sum(u * u, axis=1)
        disc = r * r - (q - tc * tc)
        ok = (disc > 0) & (tc > 0) & (q > r * r * (1 + 1e-12))
        if not ok.any():
            continue
        t = (q[ok] - r * r) / (tc[ok] + np.sqrt(disc[ok]))
        if t.min() < best_t:
            best_t, best_g = float(t.min()), g.id
    if best_t > rt.cutoff:
        return np.inf, -1
    return best_t, best_g


def oracle_scene(kind, rng):
    """2D random boxes or the 3D two-box scene, crystal/Poisson/mixed."""
    dim, medium = kind.split("-")
    if dim == "2d":
        scene = presets.random_scene_2d(
            rng, n_grains=3, medium="poisson" if medium == "poisson"
            else "crystal")
    else:
        scene = presets.two_boxes_3d(
            medium="poisson" if medium == "poisson" else "crystal")
    if medium != "mixed":
        return scene
    media = tuple(PoissonMedium() if i % 2 else m
                  for i, m in enumerate(scene.media))
    return make_scene(scene.dimension, scene.grains, media,
                      anchor=scene.anchor, assume_incommensurable=True)


def oracle_rays(rt, rng, n):
    """Generic, near-grazing, near-boundary and on-scatterer rays.

    Returns xs, vs and the per-ray excluded center (far away when the ray
    does not start on a scatterer).
    """
    scene = rt.scene
    d = scene.dimension
    centers = np.vstack([rt.scatterers(g.id) for g in scene.grains])
    xs = scene.anchor + rng.uniform(-0.2, 0.2, (n, d))
    vs = scattering.sample_direction(rng, d, n)
    exclude = np.full((n, d), 1e6)
    kind = rng.integers(0, 4, n)
    for i in range(n):
        v = vs[i]
        perp = rng.normal(size=d)
        perp -= (perp @ v) * v
        perp /= np.linalg.norm(perp)
        y = centers[rng.integers(len(centers))]
        if kind[i] == 1:      # passes a center at r (1 +- delta)
            delta = 10.0 ** rng.uniform(-9, -2) * rng.choice([-1.0, 1.0])
            xs[i] = y - rng.uniform(0.01, 0.3) * v \
                + rt.r * (1.0 + delta) * perp
        elif kind[i] == 2:    # starts on a grain face, nearly along it
            g = scene.grains[rng.integers(len(scene.grains))]
            k = rng.integers(len(g.normals))
            nrm = g.normals[k]
            verts = g.vertices
            on_face = verts[np.abs(verts @ nrm - g.offsets[k]) < 1e-9]
            w = rng.dirichlet(np.ones(len(on_face)))
            xs[i] = w @ on_face + rng.uniform(-2.0, 2.0) * rt.r * nrm
            t = rng.normal(size=d)
            t -= (t @ nrm) * nrm
            t /= np.linalg.norm(t)
            tilt = 10.0 ** rng.uniform(-8, -1) * rng.choice([-1.0, 1.0])
            vs[i] = (t + tilt * nrm) / np.linalg.norm(t + tilt * nrm)
        elif kind[i] == 3:    # leaves the surface of the ball at y
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            if w @ v < 0:
                w = -w
            xs[i] = y + rt.r * w
            exclude[i] = y
    return xs, vs, exclude


@pytest.fixture(scope="module")
def runtime(two_squares):
    return MicroRuntime(two_squares, MicroConfig(r=3e-3, seed=42))


class TestFirstCollision:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["2d-crystal", "2d-poisson", "2d-mixed",
                                 "3d-crystal", "3d-poisson", "3d-mixed"]),
           annealed=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed, kind, annealed):
        rng = np.random.default_rng(seed)
        scene = oracle_scene(kind, rng)
        r = rng.uniform(2e-3, 1e-2) if scene.dimension == 2 \
            else rng.uniform(1e-3, 3e-3)
        rt = MicroRuntime(scene, MicroConfig(r=r, seed=seed))
        n = 120
        xs, vs, exclude = oracle_rays(rt, rng, n)
        omegas = rng.uniform(0, 1, (n, len(scene.grains), scene.dimension)) \
            if annealed else None
        hits = microsim.first_collisions(rt, xs, vs, exclude=exclude,
                                         omegas=omegas)
        for i in range(n):
            bt, bg = brute_force_first_hit(
                rt, xs[i], vs[i], exclude[i],
                None if omegas is None else omegas[i])
            if np.isfinite(bt):
                assert hits.time[i] == pytest.approx(bt, rel=1e-12)
            else:
                assert not np.isfinite(hits.time[i])
            assert hits.grain[i] == bg
        assert (hits.grain >= 0).sum() >= 3     # the search is exercised
        for i in range(5):
            p0, p1 = xs[i], xs[i] + 0.5 * vs[i]
            for g in scene.grains:
                ys = rt.scatterers(g.id)
                near = ys[dist_point_segment(ys, p0, p1) <= r * (1 + 1e-12)]
                got = rt.candidates(g.id, xs[i], vs[i], 0.0, 0.5)
                assert sorted(map(tuple, got)) == sorted(map(tuple, near))

    def test_one_ray_call_matches_block(self, runtime, two_squares):
        rng = np.random.default_rng(1)
        xs = two_squares.anchor + runtime.epsilon * rng.uniform(0, 1, (50, 2))
        vs = scattering.sample_direction(rng, 2, 50)
        hits = microsim.first_collisions(runtime, xs, vs)
        for i in range(50):
            ev = microsim.first_collision(runtime, xs[i], vs[i])
            if ev is None:
                assert hits.grain[i] == -1
            else:
                assert ev.time == hits.time[i]
                assert np.array_equal(ev.w1, hits.w1[i])

    def test_head_on_geometry(self):
        scene = presets.single_square_2d(side=0.34)
        cfg = MicroConfig(r=1e-3, seed=0)
        rt = MicroRuntime(scene, cfg)
        centers = rt.scatterers(1)
        x = centers[0] - np.array([0.05, 0.0])
        between = [c for c in centers
                   if abs(c[1] - centers[0][1]) < 1e-12
                   and x[0] < c[0] < centers[0][0]]
        target = min([centers[0]] + between, key=lambda c: c[0])
        ev = microsim.first_collision(rt, x, np.array([1.0, 0.0]))
        assert ev.time == pytest.approx(target[0] - x[0] - 1e-3, abs=1e-12)
        assert np.allclose(ev.w1, [-1.0, 0.0], atol=1e-9)

    def test_escape_when_nothing_ahead(self, runtime):
        ev = microsim.first_collision(runtime, np.array([-1.0, -1.0]),
                                      np.array([-1.0, 0.0]) / 1.0)
        assert ev is None

    def test_impact_point_on_sphere(self, runtime, two_squares):
        rng = np.random.default_rng(2)
        for _ in range(50):
            th = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(th), np.sin(th)])
            ev = microsim.first_collision(runtime, two_squares.anchor, v)
            if ev is None:
                continue
            assert np.linalg.norm(ev.w1) == pytest.approx(1.0)
            hit = two_squares.anchor + ev.time * v
            assert np.allclose(hit, ev.center + runtime.r * ev.w1, atol=1e-12)
            # impact direction lands in the incoming hemisphere
            u = -scattering.to_frame(ev.w1, v)
            assert u[0] > 0

    def test_near_boundary_scatterer_found(self):
        # a sphere poking out of its grain must be hit by rays passing
        # through the gap next to the grain
        scene = presets.two_squares_2d()
        cfg = MicroConfig(r=5e-3, seed=1)
        rt = MicroRuntime(scene, cfg)
        centers = rt.scatterers(2)
        gid2 = scene.grain_by_id(2)
        left = gid2.vertices[:, 0].min()
        y = centers[np.argmin(centers[:, 0])]
        assert y[0] - left < 0.2   # sanity: some scatterer near the face
        x = np.array([y[0] - 0.03, y[1] - rt.r * 0.5])
        ev = microsim.first_collision(rt, x, np.array([1.0, 0.0]))
        assert ev is not None
        assert ev.time <= 0.03


class TestTrajectory:
    def test_energy_and_chaining(self, two_squares):
        cfg = MicroConfig(r=1e-2, seed=5)
        rt = MicroRuntime(two_squares, cfg)
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(40):
            th = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(th), np.sin(th)])
            evs = microsim_oracles.trajectory(rt, two_squares.anchor, v, 5.0)
            found = max(found, len(evs))
            for ev in evs:
                assert np.linalg.norm(ev.v_out) == pytest.approx(1.0)
                assert ev.v_in @ ev.w1 < 0
                assert ev.v_out @ ev.w1 > 0
        assert found >= 2

    def test_time_reversal_retraces(self, two_squares):
        cfg = MicroConfig(r=1e-2, seed=6)
        rt = MicroRuntime(two_squares, cfg)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            th = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(th), np.sin(th)])
            evs = microsim_oracles.trajectory(rt, two_squares.anchor, v, 3.0)
            if len(evs) < 2:
                continue
            last = evs[-1]
            start = last.center + rt.r * last.w1
            back = microsim_oracles.trajectory(rt, start, -last.v_in,
                                               last.time + 1.0)
            centers_fwd = [tuple(np.round(e.center, 12)) for e in evs[:-1]]
            centers_bck = [tuple(np.round(e.center, 12)) for e in back]
            assert centers_bck[:len(centers_fwd)] == centers_fwd[::-1]
            checked += 1
        assert checked >= 5

    def test_determinism(self, two_squares):
        cfg = MicroConfig(r=5e-3, seed=9)
        samp1 = microsim.sample_tau1_distribution(two_squares, cfg, 200)
        samp2 = microsim.sample_tau1_distribution(two_squares, cfg, 200)
        assert np.array_equal(samp1.tau1, samp2.tau1)
        assert np.array_equal(samp1.u_impact, samp2.u_impact)


    def test_worker_count_invariance(self):
        scene = presets.two_squares_2d(mode="random-offset")
        cfg = MicroConfig(r=1e-2, seed=3, q_mode="zero",
                          resample_offsets=True)
        n = microsim.SAMPLE_CHUNK + 500
        one = microsim.sample_tau1_distribution(scene, cfg, n)
        two = microsim.sample_tau1_distribution(scene, cfg, n, threads=2)
        assert np.array_equal(one.tau1, two.tau1)
        assert np.array_equal(one.u_impact, two.u_impact)

    def test_block_offsets_replay_per_sample_draws(self):
        scene = presets.two_squares_2d(mode="random-offset")
        rt = MicroRuntime(scene, MicroConfig(r=1e-2, resample_offsets=True))
        omegas, q = rt.resample_media(np.random.default_rng([5, 1]), 40)
        rng = np.random.default_rng([5, 1])
        for i in range(40):
            for j in range(len(scene.grains)):
                assert np.array_equal(omegas[i, j], rng.uniform(0, 1, 2))
            assert np.array_equal(q[i], rng.uniform(0, 1, 2))


class TestScaling:
    def test_epsilon_relation(self):
        assert microsim.epsilon_for(1e-4, 2) == pytest.approx(1e-2)
        assert microsim.epsilon_for(1e-6, 3) == pytest.approx(1e-4)

    def test_anchored_scatterer_set(self, two_squares):
        # anchored mode: centers are anchor + eps (Z^d + omega) M cut to
        # the grain, with the experiment base point as the anchor
        rt = MicroRuntime(two_squares, MicroConfig(r=3e-3, seed=0))
        for grain, med in zip(two_squares.grains, two_squares.media):
            pts = rt.scatterers(grain.id)
            assert len(pts)
            lat_coords = (pts - two_squares.anchor) / rt.epsilon \
                @ np.linalg.inv(med.lattice.M) - med.lattice.omega
            assert np.max(np.abs(lat_coords - np.round(lat_coords))) < 1e-9
            assert grain.contains_rows(pts).all()

    def test_single_crystal_law_2d(self):
        # empirical free path CDF on one large grain follows the explicit
        # in-range law (grain beyond the kernel range: geometry only, so
        # scene validation is skipped on purpose)
        from polyxport import ConvexGrain, Scene
        from polyxport.lattice import AffineLattice, CrystalMedium
        from polyxport.kernels import d_phi
        g = ConvexGrain.box(1, (0, 0), (1, 1))
        lat = AffineLattice(np.eye(2), np.array([0.3183, 0.5774]))
        scene = Scene(2, (g,), (CrystalMedium(lat),), anchor=(0.5, 0.5))
        cfg = MicroConfig(r=3e-4, seed=3)
        samp = microsim.sample_tau1_distribution(scene, cfg, 10000)
        for delta in (0.1, 0.25, 0.4, 0.5):
            emp = float(np.mean(samp.tau1 <= delta))
            lim = 1 - float(d_phi(delta, 2))
            assert emp == pytest.approx(lim, abs=0.02)

    def test_scatterer_density(self):
        scene = presets.single_square_2d(side=0.34)
        rt = MicroRuntime(scene, MicroConfig(r=1e-4, seed=0))
        n = len(rt.scatterers(1))
        assert n == pytest.approx(0.34 ** 2 / rt.epsilon ** 2, rel=0.05)

    def test_poisson_mean_free_path(self):
        # trajectory collision rate matches sigma_bar on a disordered grain
        scene = presets.single_square_2d(side=0.34, medium="poisson")
        cfg = MicroConfig(r=3e-4, seed=12)
        rt = MicroRuntime(scene, cfg)
        samp = microsim.sample_tau1_distribution(scene, cfg, 3000)
        # short-path law: P(tau <= delta) ~ 1 - exp(-2 delta)
        delta = 0.05
        emp = np.mean(samp.tau1 <= delta)
        assert emp == pytest.approx(1 - np.exp(-2 * delta), abs=0.02)


class TestStartModes:
    def test_on_scatterer_start(self):
        scene = presets.single_square_2d(side=0.34)
        cfg = MicroConfig(r=1e-3, seed=3, on_scatterer=True, start_grain=1,
                          beta=BetaSpec("radial", alpha=np.pi / 4))
        rt = MicroRuntime(scene, cfg)
        base = microsim._start_points(rt, 1)[0]
        centers = rt.scatterers(1)
        d = np.linalg.norm(centers - base, axis=1).min()
        assert d < 1e-12
        samp = microsim.sample_tau1_distribution(scene, cfg, 500)
        assert samp.exit_w is not None
        assert np.allclose(np.abs(samp.exit_w), np.sin(np.pi / 4), atol=1e-9)

    def test_beta_ray_stays_outside_ball(self):
        spec = BetaSpec("radial", alpha=0.3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            th = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(th), np.sin(th)])
            b = spec(v)
            ts = np.linspace(0, 3, 200)
            pts = b[None, :] + ts[:, None] * v[None, :]
            assert np.all(np.linalg.norm(pts, axis=1) >= 1 - 1e-12)

    def test_resample_offsets_needs_random_offset_media(self, two_squares):
        with pytest.raises(SceneError):
            MicroRuntime(two_squares, MicroConfig(r=1e-3, seed=0,
                                                  resample_offsets=True))

    def test_periodic_scene_rejected(self, tiled_crystal):
        with pytest.raises(SceneError):
            MicroRuntime(tiled_crystal, MicroConfig(r=1e-3, seed=0))


POISSON_GRAINS = {
    "box-2d": presets.single_square_2d(side=0.34).grains[0],
    "box-3d": presets.two_boxes_3d().grains[1],
    # a quadrilateral none of whose facets is axis-aligned
    "skew-2d": ConvexGrain.from_vertices(
        1, [(0.05, 0.0), (0.33, 0.07), (0.27, 0.31), (0.0, 0.25)]),
}


@pytest.mark.parametrize("grain", sorted(POISSON_GRAINS))
def test_contains_rows_is_the_product_rule(grain):
    # the keep rule of poisson_realization and flight.sample_positions:
    # exactly np.all(pts @ N.T < c, axis=1), on points inside, outside and
    # exactly on the lo and hi faces, edges and corners of the bounding box
    grain = POISSON_GRAINS[grain]
    verts = grain.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    d = grain.dimension
    rng = np.random.default_rng(3)
    inner = rng.uniform(lo, hi, (500, d))
    pick = rng.integers(0, 3, (500, d))
    snapped = np.where(pick == 0, lo, np.where(pick == 1, hi, inner))
    corners = np.array(np.meshgrid(*zip(lo, hi))).reshape(d, -1).T
    wide = rng.uniform(lo - 0.1, hi + 0.1, (500, d))
    for pts in (inner, snapped, corners, wide, np.vstack([inner, snapped])):
        want = np.all(pts @ grain.normals.T < grain.offsets, axis=1)
        got = grain.contains_rows(pts)
        assert got.dtype == bool and np.array_equal(got, want)
        # one row's verdict does not depend on the rows passed with it
        assert np.array_equal(got, [grain.contains_rows(p[None])[0]
                                    for p in pts])
    assert not np.any(grain.contains_rows(corners))
    assert grain.contains_rows(np.empty((0, d))).shape == (0,)


def oracle_segments(grain, rng, n=400):
    """Segments around the grain, some of them outside its bounding box."""
    verts = grain.vertices
    lo, hi = verts.min(axis=0) - 0.05, verts.max(axis=0) + 0.05
    p0 = rng.uniform(lo, hi, (n, grain.dimension))
    v = rng.normal(size=p0.shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return p0, p0 + rng.uniform(0.0, 0.1, (n, 1)) * v


class TestPointGrid:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("grain", sorted(POISSON_GRAINS))
    def test_matches_oracle(self, grain, r, seed):
        # the realization and the cover of every segment equal the sorted
        # unique-cell grid's, row for row and index for index
        name, grain = grain, POISSON_GRAINS[grain]
        eps = microsim.epsilon_for(r, grain.dimension)
        pts = poisson_realization(grain, eps, np.random.default_rng(seed))
        ref = microsim_oracles.poisson_realization(
            grain, eps, np.random.default_rng(seed))
        assert np.array_equal(pts, ref)
        # both branches: a box keeps every draw, the skew grain drops some
        verts = grain.vertices
        drawn = np.random.default_rng(seed).poisson(
            float(np.prod(verts.max(axis=0) - verts.min(axis=0)))
            / eps ** grain.dimension)
        if name == "box-3d":
            assert len(pts) == drawn
        if name == "skew-2d":
            assert len(pts) < drawn
        cell = max(eps, 4.0 * r)
        fast = PointGrid(pts, cell)
        slow = microsim_oracles.PointGrid(pts, cell)
        p0, p1 = oracle_segments(grain, np.random.default_rng(seed + 100))
        radius = r * (1.0 + 1e-12)
        rows, idx = fast.cover(p0, p1, radius)
        ref_rows, ref_idx = slow.cover(p0, p1, radius)
        assert len(rows) and np.array_equal(rows, ref_rows)
        assert np.array_equal(idx, ref_idx)

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_and_single_point(self, d):
        p0, p1 = np.zeros((2, d)), np.ones((2, d))
        p1[1] = -1.0
        empty = PointGrid(np.empty((0, d)), 0.1)
        rows, idx = empty.cover(p0, p1, 0.05)
        assert rows.shape == idx.shape == (0,)
        assert empty.query_segment(p0[0], p1[0], 0.05).shape == (0, d)
        one = PointGrid(np.full((1, d), 0.5), 0.1)
        rows, idx = one.cover(p0, p1, 0.05)
        assert np.array_equal(rows, [0]) and np.array_equal(idx, [0])
        assert np.array_equal(one.query_segment(p0[0], p1[0], 0.05),
                              np.full((1, d), 0.5))

    def test_query_outside_occupied_box(self):
        pts = np.random.default_rng(5).uniform(0.5, 0.6, (200, 3))
        grid = PointGrid(pts, 0.01)
        p0 = np.array([[2.0, 2.0, 2.0], [-1.0, 0.55, 0.55], [0.55, 0.55, 0.7]])
        p1 = np.array([[3.0, 3.0, 3.0], [0.3, 0.55, 0.55], [0.55, 0.55, 1.5]])
        rows, idx = grid.cover(p0, p1, 0.01)
        assert rows.shape == idx.shape == (0,)

    def test_build_holds_one_key_per_point(self):
        # the freepath-3d-mixed grain at r = 1e-4 (about 1.7e5 points): the
        # build allocates the sorted keys and temporaries of fixed size
        eps = microsim.epsilon_for(1e-4, 3)
        pts = poisson_realization(POISSON_GRAINS["box-3d"], eps,
                                  np.random.default_rng(0))
        assert len(pts) > 150_000
        tracemalloc.start()
        try:
            PointGrid(pts, max(eps, 4e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(pts) + 2 ** 21

    def test_sparse_points_over_a_huge_cell_box(self):
        # 1000 points over about 1e12 cells: no per-cell memory
        rng = np.random.default_rng(3)
        pts = rng.random((1000, 3))
        fast = PointGrid(pts, 1e-4)
        slow = microsim_oracles.PointGrid(pts, 1e-4)
        v = rng.normal(size=(60, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p0, p1 = pts[:60] - 2e-3 * v, pts[:60] + 2e-3 * v
        rows, idx = fast.cover(p0, p1, 1e-4)
        ref_rows, ref_idx = slow.cover(p0, p1, 1e-4)
        assert len(rows) >= 60 and np.array_equal(rows, ref_rows)
        assert np.array_equal(idx, ref_idx)

    def test_sort_key_overflow_rejected(self):
        # (1e7 + 1)^3 cells x 2 points: the keys cell * 2 + index pass 2^63
        with pytest.raises(ValueError, match="overflow"):
            PointGrid(np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]]), 1.0)

    def test_runtime_on_empty_poisson_grain(self):
        # a grain of expected 0.05 points at this radius: the seed draws
        # none, and every ray escapes
        scene = presets.single_square_2d(side=0.05, medium="poisson")
        cfg = MicroConfig(r=0.05, seed=0)
        assert len(MicroRuntime(scene, cfg).scatterers(1)) == 0
        samp = microsim.sample_tau1_distribution(scene, cfg, 200)
        assert np.all(samp.escaped) and np.all(np.isinf(samp.tau1))
        assert np.all(samp.hit_grain == -1)
