"""The column helpers of polyxport.lattice against the NumPy `axis=` forms
they replace, and the whole-column hot paths against their row forms in
row_oracles.py: equal bits, not a tolerance."""
import numpy as np
import pytest

from polyxport import scattering
from polyxport.geometry import (ConvexGrain, PeriodicBox, TiledBoxWalker,
                                cell_clock, clip_grain_rows, make_scene)
from polyxport.lattice import (PoissonMedium, argmin_cols, divide_rows,
                               norm_rows, reduce_cols)

import row_oracles

# ties, signed zeros, infinities, NaN and subnormals
SPECIAL = np.array([0.0, -0.0, 1.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan,
                    5e-324, -5e-324, 1e-310])


def _rows(rng, shape):
    """Half special values, half normals of mixed scale."""
    a = np.asarray(rng.normal(size=shape)
                   * 10.0 ** rng.integers(-3, 4, size=shape))
    pick = rng.random(shape) < 0.5
    a[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return a


def _same(a, b):
    """Same dtype, shape and bytes: NaNs and the signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


WIDTHS = range(1, 8)
SHAPES = [(0,), (1,), (700,), (9, 11)]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("ufunc", [np.minimum, np.maximum, np.add])
def test_reduce_cols_is_the_axis_reduce(ufunc, width):
    rng = np.random.default_rng(width)
    for shape in SHAPES:
        a = _rows(rng, shape + (width,))
        with np.errstate(invalid="ignore", over="ignore"):
            assert _same(reduce_cols(ufunc, a), ufunc.reduce(a, axis=-1))


@pytest.mark.parametrize("width", WIDTHS)
def test_reduce_cols_of_masks_and_integers(width):
    rng = np.random.default_rng(10 + width)
    for shape in SHAPES:
        mask = rng.random(shape + (width,)) < 0.3
        assert _same(reduce_cols(np.logical_or, mask), np.any(mask, axis=-1))
        assert _same(reduce_cols(np.logical_and, ~mask),
                     np.all(~mask, axis=-1))
        ints = rng.integers(-5, 6, size=shape + (width,))
        assert _same(reduce_cols(np.multiply, ints), np.prod(ints, axis=-1))


def test_reduce_cols_returns_a_new_array():
    a = np.array([[3.0], [1.0]])
    out = reduce_cols(np.minimum, a)
    out[:] = 0.0
    assert a.tolist() == [[3.0], [1.0]]


@pytest.mark.parametrize("width", [0, 8, 9])
def test_reduce_cols_refuses_a_sum_it_would_not_match(width):
    # NumPy sums 8 or more columns pairwise
    with pytest.raises(ValueError):
        reduce_cols(np.add, np.ones((3, width)))


def test_sum_of_eight_columns_is_pairwise():
    # the reason reduce_cols stops at 7 columns of a sum
    row = [3.0, -1e16, -1e16, -1.0, -1.0, 1.0, 1.0, 1.0]
    fold = 0.0
    for x in row:
        fold += x
    assert np.sum(np.array([row]), axis=-1)[0] != fold


@pytest.mark.parametrize("width", WIDTHS)
def test_argmin_cols_is_argmin(width):
    rng = np.random.default_rng(20 + width)
    for shape in SHAPES:
        a = _rows(rng, shape + (width,))
        assert _same(argmin_cols(a), np.argmin(a, axis=-1))
        # rows of ties only, and rows with a NaN after a tie
        a = rng.choice([0.0, -0.0, 1.0, np.nan], size=shape + (width,))
        assert _same(argmin_cols(a), np.argmin(a, axis=-1))


@pytest.mark.parametrize("width", WIDTHS)
def test_norm_rows_is_the_axis_norm(width):
    rng = np.random.default_rng(30 + width)
    for shape in SHAPES + [()]:
        a = _rows(rng, shape + (width,))
        with np.errstate(invalid="ignore", over="ignore"):
            assert _same(norm_rows(a), np.linalg.norm(a, axis=-1))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_divide_rows_is_the_row_broadcast(width):
    rng = np.random.default_rng(40 + width)
    for shape in SHAPES + [()]:
        a = _rows(rng, shape + (width,))
        s = _rows(rng, shape)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            assert _same(divide_rows(a, s), a / np.asarray(s)[..., None])


def _rays(rng, n, d, lo, hi):
    """Starts in and around [lo, hi], on its faces and cell corners, with
    directions that include axis-parallel and subnormal components."""
    xs = rng.uniform(lo - 1.0, hi + 1.0, size=(n, d))
    on_face = rng.random((n, d)) < 0.2
    xs[on_face] = np.broadcast_to(lo, (n, d))[on_face]
    vs = rng.normal(size=(n, d))
    vs[rng.random((n, d)) < 0.15] = 0.0
    vs[rng.random((n, d)) < 0.05] = 5e-324
    vs[rng.random((n, d)) < 0.05] = -0.0
    return xs, vs


@pytest.mark.parametrize("d", [2, 3])
def test_cell_clock_matches_the_row_form(d):
    rng = np.random.default_rng(50 + d)
    box = PeriodicBox(np.full(d, -0.1), np.linspace(0.2, 0.4, d))
    for n in (0, 1, 2000):
        xs, vs = _rays(rng, n, d, box.lo, box.hi)
        for got, want in zip(cell_clock(box, xs, vs),
                             row_oracles.cell_clock(box, xs, vs)):
            assert _same(got, want)


def _twelve_gon():
    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    return ConvexGrain.from_vertices(7, 0.3 * np.c_[np.cos(ang), np.sin(ang)])


@pytest.mark.parametrize("grain", [
    ConvexGrain.box(1, [0.0, 0.0], [0.3, 0.2]),
    ConvexGrain.box(2, [0.0, 0.1, -0.2], [0.12, 0.2, 0.1]),
    _twelve_gon()], ids=["box-2d", "box-3d", "12-gon"])
def test_clip_grain_rows_matches_the_row_form(grain):
    rng = np.random.default_rng(grain.id)
    d = grain.dimension
    lo, hi = grain.vertices.min(axis=0), grain.vertices.max(axis=0)
    for n in (0, 1, 2000):
        xs, vs = _rays(rng, n, d, lo, hi)
        fast = clip_grain_rows(grain, xs, vs)
        # the row form warns where a subnormal direction overflows the
        # facet times to inf, and inf - inf follows
        with np.errstate(over="ignore", invalid="ignore"):
            slow = row_oracles.clip_grain_rows(grain, xs, vs)
        for got, want in zip(fast, slow):
            assert _same(got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_tiled_walker_matches_the_row_form_over_50_rounds(d):
    box = PeriodicBox(np.zeros(d), np.linspace(0.35, 0.14, d))
    scene = make_scene(d, [ConvexGrain.box(1, box.lo, box.hi)],
                       [PoissonMedium()], periodic_box=box)
    rng = np.random.default_rng(60 + d)
    xs, vs = _rays(rng, 3000, d, box.lo, box.hi)
    vs[np.all(vs == 0.0, axis=1)] = 1.0    # every ray crosses a face
    fast = TiledBoxWalker(scene, xs, vs)
    slow = row_oracles.TiledBoxWalker(scene, xs, vs)
    for _ in range(50):
        rows = np.flatnonzero(rng.random(len(xs)) < 0.7)
        fast.advance(rows)
        slow.advance(rows)
        for name in ("t_entry", "t_exit", "tnext"):
            assert _same(getattr(fast, name), getattr(slow, name)), name


def _directions(rng, n, d):
    v = scattering.sample_direction(rng, d, n)
    v[:3] = -np.eye(d)[0]          # the half-turn rows
    v[3:6] = np.eye(d)[0]
    return v


@pytest.mark.parametrize("d", [2, 3])
def test_exit_params_are_the_row_form_frame_columns(d):
    # exit_params_many builds only the columns after the first of u K(v)
    rng = np.random.default_rng(80 + d)
    v = _directions(rng, 500, d)
    v_prev = scattering.sample_direction(rng, d, 500)
    diff = v - v_prev
    unit = diff / np.linalg.norm(diff, axis=1, keepdims=True)
    want = row_oracles.frame_map(unit, v, inverse=False)[:, 1:]
    assert _same(scattering.exit_params_many(v, v_prev), want)


@pytest.mark.parametrize("d", [2, 3])
def test_frame_maps_match_the_row_form(d):
    rng = np.random.default_rng(70 + d)
    v = _directions(rng, 500, d)
    u = rng.normal(size=(500, d))
    for inverse in (False, True):
        fn = scattering.from_frame if inverse else scattering.to_frame
        assert _same(fn(u, v), row_oracles.frame_map(u, v, inverse))
        assert _same(fn(u[0], v[7]), row_oracles.frame_map(u[0], v[7],
                                                           inverse))
        # the matrices K(v), one per row, as harness.direction_grid builds
        eye, vk = np.eye(d), v[:, None, :]
        assert _same(fn(eye, vk), row_oracles.frame_map(eye, vk, inverse))


@pytest.mark.parametrize("d", [2, 3])
def test_deflect_many_matches_the_row_form(d):
    rng = np.random.default_rng(80 + d)
    for n in (1, 2000):
        v = _directions(rng, n, d)
        b = scattering.sample_ball(rng, d - 1, n)
        b[:2] = 0.0
        assert _same(scattering.deflect_many(v, b),
                     row_oracles.deflect_many(v, b))


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_ball_matches_the_row_form(dim):
    # the same draws and the same points; the streams stay in step
    for n in (None, 0, 1, 2000):
        fast, slow = (np.random.default_rng(90 + dim) for _ in range(2))
        assert _same(scattering.sample_ball(fast, dim, n),
                     row_oracles.sample_ball(slow, dim, n))
        assert fast.random() == slow.random()

