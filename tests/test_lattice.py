import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from polyxport import bcc_matrix, points_in_tube
from polyxport.lattice import (AffineLattice, ScaledGrainLattice,
                               dist_point_segment,
                               integer_points_near_segments)

import microsim_oracles


def test_bcc_matrix():
    M = bcc_matrix()
    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
    assert M[0, 0] == pytest.approx(2 ** (1 / 3))
    assert M[2, 2] == pytest.approx(2 ** (-2 / 3))


def test_bcc_rotated_keeps_det():
    from polyxport.presets import rotation_3d
    K = rotation_3d((0.3, 1.0, -0.2), 0.77)
    assert np.linalg.det(bcc_matrix() @ K) == pytest.approx(1.0, abs=1e-12)


def test_affine_lattice_rejects_bad_det():
    with pytest.raises(ValueError):
        AffineLattice(2 * np.eye(2), np.zeros(2))


def test_rational_form_normalization():
    lat = AffineLattice.from_rows([["2", "0", "0"], ["0", "2", "0"],
                                   ["1", "1", "1"]])
    assert np.linalg.det(lat.M) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lat.M, bcc_matrix(), atol=1e-12)


def _brute_tube(sgl, x, v, t0, t1, radius):
    p0, p1 = x + t0 * v, x + t1 * v
    lo = np.minimum(p0, p1) - radius
    hi = np.maximum(p0, p1) + radius
    corners = np.array([sgl.to_lattice_coords(c) for c in
                        [lo, hi, [lo[0], hi[1]], [hi[0], lo[1]]]]) \
        if len(x) == 2 else None
    if corners is None:
        pts = np.array(np.meshgrid(
            *[np.arange(np.floor(a), np.ceil(b) + 1) for a, b in
              zip(sgl.to_lattice_coords(lo) - 5, sgl.to_lattice_coords(hi) + 5)],
            indexing="ij"))
    los = np.floor(corners.min(axis=0)) - 2
    his = np.ceil(corners.max(axis=0)) + 2
    grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(los, his)],
                        indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    pts = sgl.from_integer(ks)
    keep = dist_point_segment(pts, p0, p1) <= radius
    return {tuple(map(int, k)) for k in ks[keep]}


def test_points_in_tube_axis_aligned():
    lat = AffineLattice(np.eye(2), np.zeros(2))
    sgl = ScaledGrainLattice(lat, 0.1, np.zeros(2))
    pts = points_in_tube(sgl, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                         1e-9, 1.0, 0.05)
    xs = sorted(p[0] for p in pts)
    assert len(pts) == 11
    assert xs[0] == pytest.approx(0.0)
    assert xs[-1] == pytest.approx(1.0)
    assert all(abs(p[1]) < 1e-12 for p in pts)


def test_points_in_tube_empty_when_radius_small():
    lat = AffineLattice(np.eye(2), np.array([0.5, 0.5]))
    sgl = ScaledGrainLattice(lat, 0.1, np.zeros(2))
    pts = points_in_tube(sgl, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                         1e-9, 1.0, 0.01)
    assert len(pts) == 0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_points_in_tube_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * np.pi)
    M = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    lat = AffineLattice(M, rng.uniform(0, 1, 2))
    eps = rng.uniform(0.02, 0.1)
    sgl = ScaledGrainLattice(lat, eps, rng.uniform(-1, 1, 2))
    x = rng.uniform(-0.5, 0.5, 2)
    phi = rng.uniform(0, 2 * np.pi)
    v = np.array([np.cos(phi), np.sin(phi)])
    t0, t1 = 0.0, rng.uniform(0.2, 0.8)
    radius = rng.uniform(0.2, 3.0) * eps
    pts = points_in_tube(sgl, x, v, t0 + 1e-12, t1, radius)
    got = {tuple(map(int, k)) for k in np.rint(sgl.to_lattice_coords(pts))}
    assert got == _brute_tube(sgl, x, v, t0, t1, radius)


def test_reanchoring_invariance():
    lat = AffineLattice(np.eye(2), np.array([0.3, 0.7]))
    eps = 0.05
    sgl = ScaledGrainLattice(lat, eps, np.zeros(2))
    shift = eps * np.array([3.0, -2.0])   # eps * integer vector (M = I)
    sgl2 = ScaledGrainLattice(lat, eps, shift)
    x = np.array([0.05, 0.02])
    v = np.array([0.8, 0.6])
    a = points_in_tube(sgl, x, v, 1e-12, 0.6, 0.08)
    b = points_in_tube(sgl2, x, v, 1e-12, 0.6, 0.08)
    assert len(a) == len(b)
    sa = sorted(map(tuple, np.round(a, 9)))
    sb = sorted(map(tuple, np.round(b, 9)))
    assert sa == sb


def test_enumeration_cost_bound():
    # superset size stays within a constant factor of the tube volume
    lat = AffineLattice(np.eye(2), np.array([0.123, 0.456]))
    eps = 0.02
    sgl = ScaledGrainLattice(lat, eps, np.zeros(2))
    L, radius = 1.0, 0.03
    _, ks = integer_points_near_segments(
        sgl.to_lattice_coords(np.array([[0.0, 0.0]])),
        sgl.to_lattice_coords(np.array([[L, 0.37 * L]])),
        radius / eps + 1e-9)
    expected = L * (2 * radius) / eps ** 2
    assert len(ks) < 12 * expected + 100


def _walk_segments(d, rng, n=300):
    """Random segments of lattice-coordinate length up to about 30, each
    one both ways (the first 40 start within 0.005 of an integer point),
    plus zero-length segments and axis-parallel ones along every axis,
    both ways, from integer and from off-integer starts."""
    a0 = rng.uniform(-20.0, 20.0, (n, d))
    a0[:40] = np.round(a0[:40]) + rng.uniform(-0.005, 0.005, (40, d))
    a1 = a0 + rng.normal(size=(n, d)) * rng.uniform(0.0, 15.0, (n, 1))
    zero = np.round(a0[:10])
    zero[1::2] += 0.5
    start = np.round(a0[:2 * d])
    start[::2] += 0.25
    step = 7.0 * np.vstack([np.eye(d), -np.eye(d)])
    return (np.vstack([a0, a1, zero, start]),
            np.vstack([a1, a0, zero, start + step]))


@pytest.mark.parametrize("margin", [0.01, 0.05, 0.2, 0.45, 0.6])
@pytest.mark.parametrize("d", [2, 3])
def test_slab_walk_matches_oracle(d, margin):
    # the walk that drops empty slabs returns the full-box walk's rows,
    # row for row, for crystal tubes (small margins) and Poisson cell
    # covers (1/2 plus the radius in cell units)
    p0, p1 = _walk_segments(d, np.random.default_rng(int(100 * margin) + d))
    rows, ks = integer_points_near_segments(p0, p1, margin)
    ref_rows, ref_ks = microsim_oracles.integer_points_near_segments(
        p0, p1, margin)
    assert len(np.unique(rows)) > 80
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(ks, ref_ks)


def _near_linf(ks, a0, a1, margin):
    """Mask of the rows of ks within L-inf distance margin of the segment
    [a0, a1]: the parameter windows where each coordinate lies within
    margin of k's meet inside [0, 1]."""
    u = a1 - a0
    moving = u != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (ks - margin - a0) / u
        t1 = (ks + margin - a0) / u
    still = np.where(np.abs(a0 - ks) <= margin, np.inf, -np.inf)
    lo = np.where(moving, np.minimum(t0, t1), -still)
    hi = np.where(moving, np.maximum(t0, t1), still)
    return np.maximum(lo.max(axis=1), 0.0) <= np.minimum(hi.min(axis=1), 1.0)


@pytest.mark.parametrize("margin", [0.01, 0.3, 0.6])
@pytest.mark.parametrize("d", [2, 3])
def test_slab_walk_holds_every_point_within_margin(d, margin):
    # brute force over a grid of integer points, with the margin shrunk a
    # little so that no rounding at a window's edge decides
    rng = np.random.default_rng(7 + d)
    p0 = rng.uniform(-3.0, 3.0, (60, d))
    p1 = p0 + rng.normal(size=(60, d)) * rng.uniform(0.0, 2.0, (60, 1))
    p1[:3] = p0[:3]                    # zero-length
    p1[3:6] = p0[3:6]
    p1[3:6, 0] -= 1.5                  # axis-parallel, reversed
    p0[6:30] = np.round(p0[6:30]) + rng.uniform(-0.005, 0.005, (24, d))
    rows, ks = integer_points_near_segments(p0, p1, margin)
    grid = np.stack(np.meshgrid(*[np.arange(-12, 13)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)
    found = 0
    for i in range(len(p0)):
        want = grid[_near_linf(grid, p0[i], p1[i], margin * (1 - 1e-9))]
        got = set(map(tuple, ks[rows == i].tolist()))
        assert set(map(tuple, want.tolist())) <= got
        found += len(want)
    assert found >= 24
