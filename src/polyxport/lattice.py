"""Affine unimodular lattices and thin-tube enumeration.

A lattice is the point set (Z^d + omega) M with det M = 1.  Scatterer
centers of a grain are anchor + eps * (Z^d + omega) M, and the ray tracer
asks for every center within a small radius of a ray segment.  Enumeration
maps the tube into lattice coordinates, walks integer slabs along the
dominant axis, and filters candidates by exact Euclidean distance, so the
output has no false negatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np


def bcc_matrix():
    """Unimodular generator of the body-centered cubic lattice."""
    c = 2.0 ** (1.0 / 3.0)
    h = 2.0 ** (-2.0 / 3.0)
    return np.array([[c, 0.0, 0.0],
                     [0.0, c, 0.0],
                     [h, h, h]])


def _parse_rational_matrix(rows):
    """Fraction matrix from entries given as Fraction/int/'p/q' strings;
    None if any entry is of another type."""
    if all(isinstance(e, (Fraction, int, str)) for row in rows for e in row):
        return [[Fraction(e) for e in row] for row in rows]
    return None


def _frac_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    det = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _frac_det(minor)
        det += term if j % 2 == 0 else -term
    return det


@dataclass(frozen=True, eq=False)
class AffineLattice:
    """Point set (Z^d + omega) M with unimodular M (row-vector convention)."""

    M: np.ndarray
    omega: np.ndarray
    rational_form: Optional[tuple] = None   # Fraction rows of M up to scale

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        if abs(np.linalg.det(M) - 1.0) > 1e-9:
            raise ValueError("lattice matrix must have det 1 "
                             f"(got {np.linalg.det(M)})")

    @classmethod
    def from_rows(cls, rows, omega=None):
        """Build from matrix rows; 'p/q' strings keep an exact rational form.

        A rational matrix Q is normalized to det 1 as (det Q)^(-1/d) Q.
        """
        rat = _parse_rational_matrix(rows)
        d = len(rows)
        omega = np.zeros(d) if omega is None else np.asarray(omega, dtype=float)
        if rat is not None:
            det = _frac_det(rat)
            if det <= 0:
                raise ValueError("rational matrix must have positive det")
            scale = float(det) ** (-1.0 / d)
            M = scale * np.array([[float(e) for e in row] for row in rat])
            return cls(M, omega, tuple(tuple(row) for row in rat))
        M = np.array([[float(e) for e in row] for row in rows])
        return cls(M, omega, None)

    @property
    def dimension(self):
        return self.M.shape[0]

    def with_omega(self, omega):
        return AffineLattice(self.M, np.asarray(omega, dtype=float),
                             self.rational_form)


CRYSTAL_MODES = ("anchored", "random-offset")


@dataclass(frozen=True)
class CrystalMedium:
    """Crystal grain medium: scatterers on a scaled affine lattice.

    mode 'anchored' ties the lattice to the scene anchor (centers
    anchor + eps (Z^d + omega) M); 'random-offset' draws omega uniformly
    per run and drops the anchor shift.
    """
    lattice: AffineLattice
    mode: str = "anchored"
    kind = "crystal"

    def __post_init__(self):
        if self.mode not in CRYSTAL_MODES:
            raise ValueError(f"unknown lattice mode {self.mode!r}")


@dataclass(frozen=True)
class PoissonMedium:
    """Disordered grain medium: scatterers on a unit-intensity Poisson set."""
    kind = "poisson"


@dataclass(frozen=True, eq=False)
class ScaledGrainLattice:
    """Scatterer centers anchor + eps (Z^d + omega) M of one grain.

    M^-1 and its operator norm are computed once here.  The coordinate
    maps take an optional omega, one row per point, so annealed sampling
    can move the lattice offset per sample without building a new object.
    """

    lattice: AffineLattice
    epsilon: float
    anchor: np.ndarray

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        Minv = np.linalg.inv(self.lattice.M)
        object.__setattr__(self, "_Minv", Minv)
        object.__setattr__(self, "minv_norm", float(np.linalg.norm(Minv, 2)))

    def tube_margin(self, radius):
        """Lattice-coordinate distance covering a euclidean radius."""
        return radius / self.epsilon * self.minv_norm + 1e-9

    def to_lattice_coords(self, p, omega=None):
        omega = self.lattice.omega if omega is None else omega
        return rows_times((np.asarray(p, dtype=float) - self.anchor)
                          / self.epsilon, self._Minv) - omega

    def from_integer(self, ks, omega=None):
        omega = self.lattice.omega if omega is None else omega
        ks = np.atleast_2d(np.asarray(ks, dtype=float))
        return self.anchor + self.epsilon * rows_times(ks + omega,
                                                       self.lattice.M)


def rows_times(a, m):
    """a @ m for row vectors a (..., d), summed in a fixed order per row.

    Unlike a BLAS product, each row's result does not depend on how many
    rows are passed together, so block and one-row tracing agree exactly.
    """
    out = a[..., 0, None] * m[0]
    for k in range(1, m.shape[0]):
        out = out + a[..., k, None] * m[k]
    return out


# The hot paths hold rows x d arrays (d = 2 or 3) and rows x facets arrays.
# NumPy reduces or broadcasts along such a short last axis one row at a
# time, which costs 10-100 times a pass over a whole column, so those paths
# reduce across columns with the helpers below and broadcast column by
# column.  Each helper gives the bits of the `axis=-1` form it replaces.

def reduce_cols(ufunc, a):
    """ufunc.reduce(a, axis=-1), bit for bit, as a left-to-right fold over
    the columns of a (..., w).

    For np.minimum, np.maximum, np.logical_or and np.logical_and of any
    width w >= 1, np.multiply of integers, and np.add of widths 1 to 7:
    NumPy folds from the ufunc's identity where it has one (so a row of
    -0.0 adds up to 0.0), and sums 8 or more columns pairwise.
    """
    w = a.shape[-1]
    if w < 1 or (ufunc is np.add and w >= 8):
        raise ValueError(f"no column fold of {ufunc.__name__} over {w} "
                         "columns")
    out = a[..., 0]
    if ufunc.identity is not None:
        out = ufunc(ufunc.identity, out)
    elif w == 1:
        out = out.copy()
    for k in range(1, w):
        out = ufunc(out, a[..., k])
    return out


def argmin_cols(a):
    """np.argmin(a, axis=-1), bit for bit, over the columns of a (..., w):
    the first minimum of each row, or its first NaN.  The columns are
    taken right to left, so a tie or a NaN moves the index left, and a
    number never replaces a NaN (c <= NaN is false)."""
    w = a.shape[-1]
    best = a[..., w - 1]
    idx = np.full(best.shape, w - 1, dtype=np.intp)
    for k in range(w - 2, -1, -1):
        c = a[..., k]
        idx[(c <= best) | (c != c)] = k
        best = np.minimum(best, c)
    return idx


def norm_rows(a):
    """np.linalg.norm(a, axis=-1) for a (..., w) with w < 8, bit for bit:
    the square root of the column fold of the squares."""
    return np.sqrt(reduce_cols(np.add, a * a))


def divide_rows(a, s):
    """a / s[..., None] for a (..., w), one column at a time."""
    return np.stack([a[..., k] / s for k in range(a.shape[-1])], axis=-1)


def integer_points_near_segments(a0, a1, margin):
    """All k in Z^d within margin of each segment [a0[i], a1[i]].

    Returns (rows, ks): ks[m] is near segment rows[m].  The result holds
    every k with |k - a(t)|_inf <= margin for some point a(t) of the
    segment (so every k within euclidean distance margin) and may
    overshoot; callers filter by exact distance.  Each segment walks the
    integer slabs along its own dominant axis; in slab m the segment's
    parameter window where |a(t)_j - m| <= margin bounds the other axes to
    a small box.  The other axes are taken in turn over all slabs at once,
    a slab drops as soon as one axis's window holds no integer, and only
    the slabs left are expanded into their boxes: ks come out slab by
    slab, row-major within a slab.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    n, d = a0.shape
    u = a1 - a0
    j = argmin_cols(-np.abs(u))     # the first axis of largest |u_j|
    seg = np.arange(n)
    flip = u[seg, j] < 0
    b0 = np.where(flip[:, None], a1, a0)
    u = np.where(flip[:, None], -u, u)
    b0j, uj = b0[seg, j], u[seg, j]
    m_lo = np.floor(b0j - margin).astype(np.int64)
    m_hi = np.ceil(b0j + uj + margin).astype(np.int64)
    count = m_hi - m_lo + 1
    slab_seg, m = repeat_with_rank(seg, count)
    m += np.repeat(m_lo, count)
    step = np.repeat(np.where(uj > 0.0, uj, 1.0), count)
    bj = np.repeat(b0j, count)
    t_lo = np.clip((m - margin - bj) / step, 0.0, 1.0)
    t_hi = np.clip((m + margin - bj) / step, 0.0, 1.0)
    # window k of a slab bounds its axis (j + k) % d; window 0 is the slab
    lo, hi = [m], [m]
    for k in range(1, d):
        axis = (j + k) % d
        bk, uk = b0[seg, axis][slab_seg], u[seg, axis][slab_seg]
        c0 = bk + t_lo * uk
        c1 = bk + t_hi * uk
        lo.append(np.ceil(np.minimum(c0, c1) - margin).astype(np.int64))
        hi.append(np.floor(np.maximum(c0, c1) + margin).astype(np.int64))
        full = np.flatnonzero(hi[k] >= lo[k])
        if len(full) < len(slab_seg):
            slab_seg, t_lo, t_hi = slab_seg[full], t_lo[full], t_hi[full]
            lo, hi = ([a[full] for a in arrs] for arrs in (lo, hi))
    slabs = np.arange(len(slab_seg))
    box_lo = np.empty((len(slabs), d), dtype=np.int64)
    extent = np.empty((len(slabs), d), dtype=np.int64)
    for k in range(d):
        axis = (j[slab_seg] + k) % d
        box_lo[slabs, axis] = lo[k]
        extent[slabs, axis] = hi[k] - lo[k] + 1
    size = reduce_cols(np.multiply, extent)
    slab, local = repeat_with_rank(slabs, size)
    ks = np.empty((len(slab), d), dtype=np.int64)
    ext = extent[slab]
    for axis in range(d - 1, -1, -1):
        ks[:, axis] = box_lo[slab, axis] + local % ext[:, axis]
        local = local // ext[:, axis]
    return slab_seg[slab], ks


def segment_cover_bound(a0, a1, margin):
    """Upper bound on the rows integer_points_near_segments returns per segment.

    A slab's box spans at most 4 margin per non-dominant axis, so it holds
    at most floor(4 margin) + 1 integers there.
    """
    span = reduce_cols(np.maximum, np.abs(np.asarray(a1) - np.asarray(a0)))
    d = np.shape(a0)[1]
    return (np.ceil(span + 2.0 * margin) + 2.0) \
        * (np.floor(4.0 * margin) + 1.0) ** (d - 1)


def repeat_with_rank(owner, counts):
    """Repeat owner[i] counts[i] times; also return each copy's rank
    0 .. counts[i]-1 (ragged expansion without a Python loop)."""
    counts = np.asarray(counts, dtype=np.int64)
    rep = np.repeat(owner, counts)
    starts = np.cumsum(counts) - counts
    return rep, np.arange(len(rep), dtype=np.int64) - np.repeat(starts, counts)


def dist_point_segment(pts, p0, p1):
    """Euclidean distances from pts (n,d) to the segment [p0, p1]."""
    pts = np.atleast_2d(pts)
    u = p1 - p0
    uu = float(u @ u)
    if uu == 0.0:
        return norm_rows(pts - p0)
    t = np.clip((pts - p0) @ u / uu, 0.0, 1.0)
    proj = p0 + t[:, None] * u
    return norm_rows(pts - proj)


def points_in_tube(sgl, x, v, t0, t1, radius):
    """All scatterer centers within radius of the segment x + [t0,t1] v.

    Exact: enumeration overshoots in lattice coordinates and then filters
    by true distance, so no admissible center is missed.
    """
    if not (0 <= t0 < t1):
        raise ValueError("need 0 <= t0 < t1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    p0 = x + t0 * v
    p1 = x + t1 * v
    ks = integer_points_near_segments(sgl.to_lattice_coords(p0[None]),
                                      sgl.to_lattice_coords(p1[None]),
                                      sgl.tube_margin(radius))[1]
    pts = sgl.from_integer(ks)
    keep = dist_point_segment(pts, p0, p1) <= radius
    pts, ks = pts[keep], ks[keep]
    return pts[np.lexsort(ks.T[::-1])]
