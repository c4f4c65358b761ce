import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyxport import (ConvexGrain, PeriodicBox, Scene, SceneError, gap,
                       itinerary, make_scene, ray_grain_intersect)
from polyxport.geometry import _margin_lp, segment_table
from polyxport.lattice import PoissonMedium
from polyxport import presets

E1 = np.array([1.0, 0.0])


@pytest.fixture(scope="module")
def unit_square():
    return ConvexGrain.box(1, (0, 0), (1, 1))


@pytest.fixture(scope="module")
def two_unit_squares():
    g1 = ConvexGrain.box(1, (0, 0), (1, 1))
    g2 = ConvexGrain.box(2, (1, 0), (2, 1))
    return make_scene(2, (g1, g2), (PoissonMedium(), PoissonMedium()))


def test_intersect_through(unit_square):
    assert ray_grain_intersect(unit_square, [-1, 0.5], E1) == (1.0, 2.0)


def test_intersect_interior_start(unit_square):
    assert ray_grain_intersect(unit_square, [0.5, 0.5], E1) == (0.0, 0.5)


def test_intersect_miss(unit_square):
    assert ray_grain_intersect(unit_square, [-1, 2.0], E1) is None


def test_intersect_tangent_is_miss(unit_square):
    assert ray_grain_intersect(unit_square, [-1.0, 1.0], E1) is None
    assert ray_grain_intersect(unit_square, [-1.0, 0.0], E1) is None


def test_itinerary_two_squares(two_unit_squares):
    segs = itinerary(two_unit_squares, [-0.5, 0.5], E1, 3.0)
    assert [(s.grain_id, s.entry, s.exit) for s in segs] \
        == [(1, 0.5, 1.5), (2, 1.5, 2.5)]
    segs = itinerary(two_unit_squares, [0.2, 0.5], E1, 3.0)
    assert [(s.grain_id, s.entry, s.exit) for s in segs] \
        == [(1, 0.0, 0.8), (2, 0.8, 1.8)]


def test_itinerary_horizon_filters(two_unit_squares):
    segs = itinerary(two_unit_squares, [-0.5, 0.5], E1, 1.0)
    assert [s.grain_id for s in segs] == [1]


def test_itinerary_chains_without_gaps(two_unit_squares):
    rng = np.random.default_rng(5)
    for _ in range(50):
        th = rng.uniform(-0.6, 0.6)
        v = np.array([np.cos(th), np.sin(th)])
        segs = itinerary(two_unit_squares, [-0.3, rng.uniform(0.1, 0.9)], v, 4.0)
        for a, b in zip(segs, segs[1:]):
            assert b.entry >= a.exit


def test_itinerary_shift_covariance(two_unit_squares):
    x = np.array([0.2, 0.5])
    segs = itinerary(two_unit_squares, x, E1, 3.0)
    s = 0.3
    shifted = itinerary(two_unit_squares, x + s * E1, E1, 3.0)
    assert shifted[0].entry == 0.0
    assert shifted[0].exit == pytest.approx(segs[0].exit - s, abs=1e-12)
    assert shifted[1].entry == pytest.approx(segs[1].entry - s, abs=1e-12)
    assert shifted[1].exit == pytest.approx(segs[1].exit - s, abs=1e-12)


def test_periodic_itinerary_matches_unrolled():
    side = 0.35
    g = ConvexGrain.box(1, (0, 0), (side, side))
    scene = make_scene(2, (g,), (PoissonMedium(),),
                       periodic_box=PeriodicBox((0, 0), (side, side)))
    # unrolled copies of the same grain
    copies = [ConvexGrain.box(10 * i + j + 1,
                              (i * side, j * side),
                              ((i + 1) * side, (j + 1) * side))
              for i in range(-8, 9) for j in range(-8, 9)]
    # built unvalidated: validate_scene would check 41k pairs of copies
    unrolled = Scene(2, tuple(copies), tuple(PoissonMedium() for _ in copies))
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(0.05, 0.3, 2)
        th = rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(th), np.sin(th)])
        a = itinerary(scene, x, v, 2.0)
        b = itinerary(unrolled, x, v, 2.0)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.entry == pytest.approx(sb.entry, abs=1e-9)
            assert sa.exit == pytest.approx(sb.exit, abs=1e-9)


def test_gap_values(two_unit_squares):
    # fully covered stretch
    assert gap(two_unit_squares, [[0.2, 0.5]], [E1], [1.5]) \
        == pytest.approx([0.0])
    g1 = ConvexGrain.box(1, (0, 0), (1, 1))
    g2 = ConvexGrain.box(2, (1.3, 0), (2.3, 1))
    scene = make_scene(2, (g1, g2), (PoissonMedium(), PoissonMedium()))
    assert gap(scene, [[0.5, 0.5]], [E1], [1.5]) == pytest.approx([0.3])
    # xi = 0, and inf past every grain
    assert gap(scene, [[0.5, 0.5]] * 2, [E1, E1], [0.0, np.inf]).tolist() \
        == [0.0, np.inf]
    with pytest.raises(ValueError, match="nonnegative"):
        gap(scene, [[0.5, 0.5]], [E1], [np.nan])


@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
@settings(max_examples=60, deadline=None)
def test_gap_cocycle(s, xi):
    scene = presets.poisson_gap_squares_2d()
    x = np.array([0.11, 0.17])
    v = np.array([np.cos(0.3), np.sin(0.3)])
    lhs, whole, head = gap(scene, [x + s * v, x, x], [v] * 3, [xi, xi + s, s])
    assert lhs == pytest.approx(whole - head, abs=1e-10)


def test_gap_monotone_lipschitz():
    scene = presets.poisson_gap_squares_2d()
    x = np.array([-0.2, 0.21])
    v = np.array([np.cos(0.15), np.sin(0.15)])
    grid = np.linspace(0, 2.5, 400)
    vals = gap(scene, np.tile(x, (400, 1)), np.tile(v, (400, 1)), grid)
    d = np.diff(vals)
    assert np.all(d >= -1e-12)
    assert np.all(d <= np.diff(grid) + 1e-12)


def starts_in_grain(scene, xs, vs):
    """A ray starts in a grain when its first table segment starts at 0."""
    return segment_table(scene, np.array(xs, dtype=float),
                         np.array(vs, dtype=float), 1.0)[0][:, 0] == 0.0


def test_inside_indicator_cases(unit_square, two_unit_squares):
    scene = make_scene(2, (unit_square,), (PoissonMedium(),))
    # interior; on a face outwards, tangent and inwards
    assert starts_in_grain(
        scene, [[0.5, 0.5], [0.0, 0.5], [0.0, 0.5], [0.0, 0.5]],
        [E1, -E1, [0, 1.0], E1]).tolist() == [True, False, False, True]
    # shared face of adjacent grains, tangent: outside both
    assert not starts_in_grain(two_unit_squares, [[1.0, 0.5]], [[0, 1.0]])[0]


def test_inside_indicator_probe_oracle():
    scene = presets.poisson_gap_squares_2d()
    rng = np.random.default_rng(2)
    eps = 1e-9
    xs, vs, probes = [], [], []
    for _ in range(300):
        x = rng.uniform([-0.1, -0.1], [1.6, 0.5])
        th = rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(th), np.sin(th)])
        xs.append(x)
        vs.append(v)
        probes.append(any(g.contains_rows((x + eps * v)[None])[0]
                          for g in scene.grains))
    assert starts_in_grain(scene, xs, vs).tolist() == probes


def test_itinerary_union_plus_gap_decomposes(two_unit_squares):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform([-0.5, 0.0], [2.5, 1.0])
        th = rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(th), np.sin(th)])
        xi = rng.uniform(0.1, 3.0)
        segs = itinerary(two_unit_squares, x, v, xi)
        covered = sum(min(s.exit, xi) - s.entry for s in segs)
        assert covered + gap(two_unit_squares, [x], [v], [xi])[0] \
            == pytest.approx(xi)


def test_overlapping_grains_rejected():
    g1 = ConvexGrain.box(1, (0, 0), (1, 1))
    g2 = ConvexGrain.box(2, (0.5, 0), (1.5, 1))
    with pytest.raises(SceneError):
        make_scene(2, (g1, g2), (PoissonMedium(), PoissonMedium()))


def test_crystal_diameter_validation():
    from polyxport.lattice import CrystalMedium
    from polyxport.presets import identity_lattice
    g = ConvexGrain.box(1, (0, 0), (1, 1))
    with pytest.raises(SceneError):
        make_scene(2, (g,), (CrystalMedium(identity_lattice(2)),))


def test_vertices_roundtrip():
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.3, 0.2], [0.0, 0.2]])
    g = ConvexGrain.from_vertices(7, pts)
    assert g.diameter_bound == pytest.approx(np.hypot(0.3, 0.2))
    assert g.contains_rows(np.array([[0.15, 0.1], [0.31, 0.1]])).tolist() \
        == [True, False]
    assert g.volume() == pytest.approx(0.06)


def test_vertex_inside_the_hull_is_dropped():
    # the fourth vertex lies inside the triangle of the other three
    g = ConvexGrain.from_vertices(
        1, [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.03, 0.09]])
    assert len(g.normals) == 3
    assert g.volume() == pytest.approx(0.045)
    pts = np.random.default_rng(8).uniform(-0.05, 0.35, (50000, 2))
    x, y = pts.T
    far = np.abs(x + y - 0.3) > 1e-9      # off the hypotenuse's rounding
    assert np.array_equal(g.contains_rows(pts)[far],
                          ((x > 0) & (y > 0) & (x + y < 0.3))[far])


@pytest.mark.parametrize("lo,hi", [((0.35, 0.0), (0.65, 0.3)),
                                   ((0.0, 0.1, 0.2), (0.12, 0.3, 0.25))],
                         ids=["2d", "3d"])
def test_box_corners_build_the_box(lo, hi):
    rng = np.random.default_rng(9)
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    g = ConvexGrain.from_vertices(1, rng.permutation(corners))
    box = ConvexGrain.box(1, lo, hi)
    assert np.array_equal(g.normals, box.normals)
    assert np.array_equal(g.offsets, box.offsets)
    assert g.diameter_bound == box.diameter_bound
    pts = np.vstack([corners, rng.uniform(np.subtract(lo, 0.01),
                                          np.add(hi, 0.01), (4000, len(lo)))])
    assert np.array_equal(g.contains_rows(pts), box.contains_rows(pts))


# The closed-form margin of axis-aligned systems against HiGHS on the same LP

def _highs_margin(normals, offsets):
    from scipy.optimize import linprog
    n, d = normals.shape
    res = linprog(c=np.r_[np.zeros(d), -1.0], A_ub=np.c_[normals, np.ones(n)],
                  b_ub=offsets, bounds=[(None, None)] * d + [(0, None)],
                  method="highs")
    return res.success, (res.x[-1] if res.success else None)


def _random_box(rng, gid, d):
    lo = rng.uniform(-0.5, 0.5, d)
    return ConvexGrain.box(gid, lo, lo + rng.uniform(0.05, 1.0, d))


def _face_sharing_pair(rng, d):
    """Two boxes that meet on a face orthogonal to a random axis."""
    g1 = _random_box(rng, 1, d)
    hi, lo = g1.offsets[:d].copy(), -g1.offsets[d:]
    j = rng.integers(d)
    lo2 = lo - rng.uniform(0.0, 0.2, d)
    hi2 = hi + rng.uniform(0.0, 0.2, d)
    lo2[j], hi2[j] = hi[j], hi[j] + rng.uniform(0.05, 1.0)
    return g1, ConvexGrain.box(2, lo2, hi2)


def _systems(rng, d):
    for _ in range(150):
        g = _random_box(rng, 1, d)
        yield "single", g.normals, g.offsets
        g1, g2 = _random_box(rng, 1, d), _random_box(rng, 2, d)
        yield "pair", *_stack(g1, g2)
        yield "face", *_stack(*_face_sharing_pair(rng, d))


def _stack(g1, g2):
    return (np.vstack([g1.normals, g2.normals]),
            np.concatenate([g1.offsets, g2.offsets]))


@pytest.mark.parametrize("d", [2, 3])
def test_margin_closed_form_matches_highs(d, monkeypatch):
    import scipy.optimize

    def no_highs(*args, **kwargs):
        raise AssertionError("an axis-aligned system reached HiGHS")
    rng = np.random.default_rng(20 + d)
    seen = {"single": 0, "overlap": 0, "separated": 0, "face": 0}
    for kind, normals, offsets in _systems(rng, d):
        want_ok, want_t = _highs_margin(normals, offsets)
        monkeypatch.setattr(scipy.optimize, "linprog", no_highs)
        ok, x, t = _margin_lp(normals, offsets)
        monkeypatch.undo()
        assert ok == want_ok, kind
        assert ok or kind == "pair", kind
        if kind == "pair":
            kind = "overlap" if ok else "separated"
        seen[kind] += 1
        if ok:
            assert t == pytest.approx(want_t, abs=1e-7), kind
            assert np.all(normals @ x + t <= offsets + 1e-12)
            assert (t == 0.0) == (kind == "face")
    assert seen["single"] == seen["face"] == 150
    assert min(seen.values()) > 30, seen


@pytest.mark.parametrize("d", [2, 3])
def test_box_volume_closed_form_matches_convex_hull(d, monkeypatch):
    from scipy.spatial import ConvexHull
    import scipy.spatial

    def no_hull(*args, **kwargs):
        raise AssertionError("a box volume reached ConvexHull")
    rng = np.random.default_rng(40 + d)
    boxes = [_random_box(rng, 1, d) for _ in range(100)]
    want = [ConvexHull(g.vertices).volume for g in boxes]
    monkeypatch.setattr(scipy.spatial, "ConvexHull", no_hull)
    got = [g.volume() for g in boxes]
    assert got == pytest.approx(want, rel=1e-12)


def test_half_open_axis_system_goes_to_highs():
    # no -e_2 row: not a box, so HiGHS solves it (and finds the margin of
    # the complete axis)
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    offsets = np.array([1.0, 0.0, 5.0])
    ok, x, t = _margin_lp(normals, offsets)
    assert ok and t == pytest.approx(0.5)
    assert _highs_margin(normals, offsets) == (True, pytest.approx(t))


@pytest.fixture()
def counted_highs(monkeypatch):
    import scipy.optimize
    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return calls


# the square of half-diagonal 0.5 about (0.5, 0.5), rotated by 45 degrees
_DIAMOND = [[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]]


def test_rotated_square_overlapping_a_box_fails_through_highs(counted_highs):
    diamond = ConvexGrain.from_vertices(1, _DIAMOND)
    box = ConvexGrain.box(2, (0.9, 0.4), (1.4, 0.6))
    with pytest.raises(SceneError, match="overlap"):
        make_scene(2, (diamond, box), (PoissonMedium(), PoissonMedium()))
    assert counted_highs     # the diamond and the pair took the LP path


def test_rotated_square_beside_a_box_passes_through_highs(counted_highs):
    diamond = ConvexGrain.from_vertices(1, _DIAMOND)
    box = ConvexGrain.box(2, (1.0, 0.4), (1.5, 0.6))    # touches a corner
    make_scene(2, (diamond, box), (PoissonMedium(), PoissonMedium()))
    assert len(counted_highs) == 2     # the diamond, then the pair
    counted_highs.clear()
    make_scene(2, (box,), (PoissonMedium(),))
    assert not counted_highs
