"""Slow, independent scatterer searches: the test oracles of
polyxport.lattice.integer_points_near_segments,
polyxport.microsim.PointGrid and polyxport.microsim.poisson_realization;
and `trajectory`, a chain of one-ray `microsim.first_collision` calls.

The slab walk builds the full box of every slab of every segment, empty
or not, and expands them all.  The grid orders its points with a stable
argsort of the linear cell keys, lists the occupied cells with
`np.unique`, and looks the cells of a query up with `searchsorted` (over
the oracle walk).  The realization draws with `rng.uniform` on array
bounds and keeps the rows that pass every halfspace test at once.
"""
import numpy as np

from polyxport import microsim
from polyxport.lattice import (dist_point_segment, repeat_with_rank,
                               segment_cover_bound)


def integer_points_near_segments(a0, a1, margin):
    """All k in Z^d within margin of each segment [a0[i], a1[i]].

    Returns (rows, ks): ks[m] is near segment rows[m].  The result holds
    every k with |k - a(t)|_inf <= margin for some point a(t) of the
    segment (so every k within euclidean distance margin) and may
    overshoot; callers filter by exact distance.  Each segment walks the
    integer slabs along its own dominant axis; in slab m the segment's
    parameter window where |a(t)_j - m| <= margin bounds the other axes to
    a small box.  Slabs and boxes are expanded over all segments at once.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    n, d = a0.shape
    u = a1 - a0
    j = np.argmax(np.abs(u), axis=1)
    seg = np.arange(n)
    flip = u[seg, j] < 0
    b0 = np.where(flip[:, None], a1, a0)
    u = np.where(flip[:, None], -u, u)
    b0j, uj = b0[seg, j], u[seg, j]
    m_lo = np.floor(b0j - margin).astype(np.int64)
    m_hi = np.ceil(b0j + uj + margin).astype(np.int64)
    slab_seg, m = repeat_with_rank(seg, m_hi - m_lo + 1)
    m = m + m_lo[slab_seg]
    step = np.where(uj > 0.0, uj, 1.0)[slab_seg]
    bj = b0j[slab_seg]
    t_lo = np.clip((m - margin - bj) / step, 0.0, 1.0)
    t_hi = np.clip((m + margin - bj) / step, 0.0, 1.0)
    c0 = b0[slab_seg] + t_lo[:, None] * u[slab_seg]
    c1 = b0[slab_seg] + t_hi[:, None] * u[slab_seg]
    lo = np.ceil(np.minimum(c0, c1) - margin).astype(np.int64)
    hi = np.floor(np.maximum(c0, c1) + margin).astype(np.int64)
    slabs = np.arange(len(m))
    lo[slabs, j[slab_seg]] = m
    hi[slabs, j[slab_seg]] = m
    extent = np.maximum(hi - lo + 1, 0)
    slab, local = repeat_with_rank(slabs, np.prod(extent, axis=1))
    ks = np.empty((len(slab), d), dtype=np.int64)
    ext = extent[slab]
    for axis in range(d - 1, -1, -1):
        ks[:, axis] = lo[slab, axis] + local % ext[:, axis]
        local = local // ext[:, axis]
    return slab_seg[slab], ks


class PointGrid:
    """Fixed point set hashed into uniform cells, stored sorted by cell.

    The points of each occupied cell are a contiguous run of `_order`
    (an argsort of the linear cell keys); a query looks its cells up with
    `searchsorted`, for many segments at once.
    """

    def __init__(self, points, cell_size):
        self.points = np.asarray(points, dtype=float)
        self.cell = float(cell_size)
        keys = np.floor(self.points / self.cell).astype(np.int64)
        if len(keys):
            self._lo = keys.min(axis=0)
            self._shape = keys.max(axis=0) - self._lo + 1
        else:
            self._lo = self._shape = np.zeros(self.points.shape[1], np.int64)
        lin = self._linear(keys)
        self._order = np.argsort(lin, kind="stable")
        self._cells, self._start, counts = np.unique(
            lin[self._order], return_index=True, return_counts=True)
        self._stop = self._start + counts

    def _linear(self, keys):
        """Row-major cell index inside the occupied box; -1 outside it."""
        rel = keys - self._lo
        inside = np.all((rel >= 0) & (rel < self._shape), axis=1)
        lin = np.zeros(len(keys), dtype=np.int64)
        for axis in range(keys.shape[1]):
            lin = lin * self._shape[axis] + rel[:, axis]
        return np.where(inside, lin, -1)

    def _margin(self, radius):
        # in cell units a point lies within 1/2 (per axis) of its cell's
        # center, so cells are taken within that plus radius
        return radius / self.cell + 0.5 + 1e-9

    def cover(self, p0, p1, radius):
        """Indices of all points in cells near each segment [p0[i], p1[i]].

        Returns (rows, idx), a superset of the points within radius of
        their segment.
        """
        rows, cells = integer_points_near_segments(
            np.asarray(p0) / self.cell - 0.5, np.asarray(p1) / self.cell - 0.5,
            self._margin(radius))
        lin = self._linear(cells)
        pos = np.minimum(np.searchsorted(self._cells, lin),
                         max(len(self._cells) - 1, 0))
        found = (lin >= 0) & (self._cells[pos] == lin) if len(self._cells) \
            else np.zeros(len(lin), dtype=bool)
        rows, pos = rows[found], pos[found]
        owner, rank = repeat_with_rank(np.arange(len(pos)),
                                       self._stop[pos] - self._start[pos])
        return rows[owner], self._order[self._start[pos][owner] + rank]

    def cover_bound(self, p0, p1, radius):
        """Upper bound on the cells `cover` visits per segment."""
        return segment_cover_bound(np.asarray(p0) / self.cell,
                                   np.asarray(p1) / self.cell,
                                   self._margin(radius))

    def query_segment(self, p0, p1, radius):
        """Points within radius of the segment [p0, p1] (one-segment cover)."""
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        _, idx = self.cover(p0[None], p1[None], radius)
        pts = self.points[np.sort(idx)]
        return pts[dist_point_segment(pts, p0, p1) <= radius]


def poisson_realization(grain, epsilon, rng):
    """Fixed unit-intensity Poisson set, scaled by eps and cut to the grain."""
    verts = grain.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    vol = float(np.prod(hi - lo))
    n = rng.poisson(vol / epsilon ** grain.dimension)
    pts = rng.uniform(lo, hi, size=(n, grain.dimension))
    keep = np.all(pts @ grain.normals.T < grain.offsets, axis=1)
    return pts[keep]


MAX_EVENTS = 10 ** 7


def trajectory(runtime, x0, v0, t_max):
    """Chain of collision events up to time t_max (unit speed)."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    events = []
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    t = 0.0
    exclude = None
    while t < t_max:
        ev = microsim.first_collision(runtime, x, v, exclude_center=exclude)
        if ev is None or t + ev.time > t_max:
            break
        t += ev.time
        events.append(microsim.CollisionEvent(t, ev.center, ev.w1,
                                              ev.grain_id, ev.v_in, ev.v_out))
        x = ev.center + runtime.r * ev.w1
        v = ev.v_out
        exclude = ev.center
        if len(events) > MAX_EVENTS:
            raise RuntimeError("runaway trajectory: too many events")
    return events
