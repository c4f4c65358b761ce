"""Convex grains, scenes, ray itineraries and the gap function.

Grains are open convex polytopes stored as halfspace intersections
{x : n_k . x < c_k}.  Ray operations on a finite scene clip against the
halfspaces, which is exact up to floating point and O(#halfspaces) per
grain.  A periodic scene is a box tiled by its one grain: there the grain
segments of a ray are its cells.  The segment table of the rays is the
one itinerary engine; gap reads it at one path length per ray, and a ray
starts in a grain when its first segment starts at 0.
Scene checks solve one margin LP per grain and per pair of grains, in
closed form when the grains are axis-aligned boxes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import XI_MAX
from .lattice import argmin_cols, reduce_cols, rows_times

# Relative tolerance for entry/exit comparisons.  Adjacent tiling grains must
# chain without spurious gaps, so nearly-equal times are merged.
REL_TOL = 1e-12


class SceneError(ValueError):
    """Raised when a scene violates a structural invariant; key, when
    given, is the scene key at fault as a config names it ("grains[1]")."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def _unit_rows(a):
    a = np.asarray(a, dtype=float)
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero normal vector")
    return a / norms


@dataclass(frozen=True, eq=False)
class ConvexGrain:
    """Open convex polytope {x : normals[k] . x < offsets[k] for all k}."""

    id: int
    normals: np.ndarray          # (k, d) unit rows
    offsets: np.ndarray          # (k,)
    diameter_bound: float        # the diameter, from the vertices
    # V-representation; None only on microsim's r-inflated clip windows
    vertices: Optional[np.ndarray] = None

    @classmethod
    def from_vertices(cls, gid, vertices):
        """The convex hull of vertices (n, d) as halfspaces, one per hull
        facet; the box when the vertices are exactly the 2^d corners of
        their bounding box.  ValueError when the hull has no interior."""
        pts = np.asarray(vertices, dtype=float)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if np.all(lo < hi) and sorted(map(tuple, pts.tolist())) == sorted(
                itertools.product(*zip(lo.tolist(), hi.tolist()))):
            return cls.box(gid, lo, hi)
        from scipy.spatial import ConvexHull, QhullError
        try:
            hull = ConvexHull(pts)
        except QhullError:
            raise ValueError("the vertices span no full-dimensional "
                             "hull") from None
        eq = hull.equations   # n.x + b <= 0
        normals = _unit_rows(eq[:, :-1])
        offs = -eq[:, -1] / np.linalg.norm(eq[:, :-1], axis=1)
        diam = max(np.linalg.norm(p - q)
                   for p, q in itertools.combinations(pts, 2))
        return cls(gid, normals, offs, diam, pts[hull.vertices])

    @classmethod
    def box(cls, gid, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not np.all(lo < hi):
            raise ValueError("box needs lo < hi per axis")
        d = lo.size
        normals = np.vstack([np.eye(d), -np.eye(d)])
        offsets = np.concatenate([hi, -lo])
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        return cls(gid, normals, offsets, float(np.linalg.norm(hi - lo)), corners)

    @property
    def dimension(self):
        return self.normals.shape[1]

    def contains_rows(self, pts):
        """Strict interior test per row of pts (n, d): the mask of
        np.all(rows_times(pts, normals.T) < offsets, axis=1), bit for bit,
        so one row's verdict does not depend on the rows passed with it.

        On a box (_axis_bounds) every product column is exactly +-x_j, as
        its other terms are exact zeros, so the test is lo_j < x_j < hi_j
        per column, and one min/max per column keeps every row at once.
        """
        n = len(pts)
        box = _axis_bounds(self.normals, self.offsets)
        if box is None:
            return reduce_cols(np.logical_and,
                               rows_times(pts, self.normals.T) < self.offsets)
        cols = list(zip(pts.T, *box))
        if n and all(lo < c.min() and c.max() < hi for c, lo, hi in cols):
            return np.ones(n, dtype=bool)
        keep = np.ones(n, dtype=bool)
        for c, lo, hi in cols:
            keep &= (lo < c) & (c < hi)
        return keep

    def volume(self):
        box = _axis_bounds(self.normals, self.offsets)
        if box is not None:
            lo, hi = box
            return float(np.prod(hi - lo))
        from scipy.spatial import ConvexHull
        return float(ConvexHull(self.vertices).volume)


def _axis_bounds(normals, offsets):
    """(lo, hi) per axis of {x : N x <= c} when every row of N is +-e_j and
    every axis has rows of both signs, else None.

    hi_j is the smallest offset of the +e_j rows and lo_j the largest
    -offset of the -e_j rows; lo_j > hi_j when the system is empty.
    """
    n, d = normals.shape
    axis = np.argmax(np.abs(normals), axis=1)
    sign = normals[np.arange(n), axis]
    up = sign > 0
    if not (np.all(np.abs(sign) == 1.0) and np.count_nonzero(normals) == n
            and np.all(np.bincount(axis + d * up, minlength=2 * d))):
        return None
    hi = np.full(d, np.inf)
    lo = np.full(d, -np.inf)
    np.minimum.at(hi, axis[up], offsets[up])
    np.maximum.at(lo, axis[~up], -offsets[~up])
    return lo, hi


def _margin_lp(normals, offsets):
    """Max t subject to N x + t <= c, t >= 0, as (ok, x, t).

    ok is False when the LP is infeasible or unbounded.  An axis-aligned
    system (_axis_bounds) splits by axis: the optimum is t = min_j (hi_j -
    lo_j) / 2 at x = (hi + lo) / 2, infeasible when t < 0.  Any other
    system goes to HiGHS.
    """
    n, d = normals.shape
    box = _axis_bounds(normals, offsets)
    if box is not None:
        lo, hi = box
        t = float(np.min(hi - lo)) / 2.0
        if t < 0.0:
            return False, None, None
        return True, (hi + lo) / 2.0, t
    from scipy.optimize import linprog
    res = linprog(c=np.r_[np.zeros(d), -1.0], A_ub=np.c_[normals, np.ones(n)],
                  b_ub=offsets, bounds=[(None, None)] * d + [(0, None)],
                  method="highs")
    if not res.success:
        return False, None, None
    return True, res.x[:d], float(res.x[-1])


@dataclass(frozen=True)
class PeriodicBox:
    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", np.asarray(lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(hi, dtype=float))
        if np.any(self.hi <= self.lo):
            raise SceneError("periodic box needs lo < hi", "periodic_box")

    @property
    def size(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class ItinerarySegment:
    """One traversed grain: entry/exit ray parameters with exit > entry >= 0."""
    grain_id: int
    entry: float
    exit: float


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable grain collection with per-grain media.

    A scene is finite, or periodic: then its one grain is exactly the
    periodic box, whose copies tile space (see check_tiled_box).
    """

    dimension: int
    grains: tuple
    media: tuple
    periodic_box: Optional[PeriodicBox] = None
    anchor: np.ndarray = None
    assume_incommensurable: bool = False

    def __post_init__(self):
        if self.anchor is None:
            object.__setattr__(self, "anchor", np.zeros(self.dimension))
        else:
            object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "_index",
                           {g.id: i for i, g in enumerate(self.grains)})

    def grain_by_id(self, gid):
        return self.grains[self._index[gid]]

    def max_diameter_bound(self):
        return max(g.diameter_bound for g in self.grains)


def make_scene(dimension, grains, media, periodic_box=None, anchor=None,
               assume_incommensurable=False):
    """A validated Scene; a periodic box must be tiled by the one grain."""
    if len(grains) != len(media):
        raise SceneError("one medium per grain required", "grains")
    if periodic_box is not None:
        check_tiled_box(grains, periodic_box)
    scene = Scene(dimension, tuple(grains), tuple(media), periodic_box, anchor,
                  assume_incommensurable)
    validate_scene(scene)
    return scene


def check_tiled_box(grains, box):
    """SceneError unless grains is one grain that is exactly the box: an
    axis-aligned grain (_axis_bounds) with its faces within 1e-9 of the
    box's."""
    if len(grains) != 1:
        raise SceneError(f"a periodic box must be tiled by one grain, not "
                         f"{len(grains)}", "periodic_box")
    g = grains[0]
    bounds = _axis_bounds(g.normals, g.offsets) \
        if g.dimension == box.lo.size else None
    if bounds is None or not np.all(
            np.abs(np.subtract(bounds, (box.lo, box.hi))) <= 1e-9):
        raise SceneError(f"grain {g.id} is not the periodic box from "
                         f"{box.lo.tolist()} to {box.hi.tolist()}",
                         "periodic_box")


def validate_scene(scene):
    """SceneError keyed by the grain (grains[i]) or flag at fault unless
    grain ids are distinct, grains solid, disjoint and, if crystal, within
    the kernel range, and crystal orientations incommensurable."""
    for i, g in enumerate(scene.grains):
        if g.id in [h.id for h in scene.grains[:i]]:
            raise SceneError(f"duplicate grain id {g.id}", f"grains[{i}].id")
        if g.dimension != scene.dimension:
            raise SceneError("grain dimension mismatch", f"grains[{i}]")
        ok, x, _ = _margin_lp(g.normals, g.offsets)
        if not ok:
            raise SceneError("unbounded or empty grain", f"grains[{i}]")
        if not g.contains_rows(x[None])[0]:
            raise SceneError(f"grain {g.id} has empty interior",
                             f"grains[{i}]")

    limit = XI_MAX.get(scene.dimension)
    for i, (g, m) in enumerate(zip(scene.grains, scene.media)):
        if m.kind == "crystal" and g.diameter_bound > limit + REL_TOL:
            raise SceneError(
                f"grain {g.id} diameter bound {g.diameter_bound} exceeds the "
                f"explicit crystal-kernel range {limit} in d={scene.dimension}",
                f"grains[{i}]")
    lats = [m.lattice for m in scene.media if m.kind == "crystal"]
    if len(lats) > 1 and not scene.assume_incommensurable:
        if all(l.rational_form is not None for l in lats):
            raise SceneError(
                "all crystal orientations are rational, hence pairwise "
                "commensurable; the polycrystal limit needs incommensurable "
                "grains", "assume_incommensurable")
        raise SceneError(
            "incommensurability is undecidable from float input; set "
            "assume_incommensurable=True to assert it",
            "assume_incommensurable")

    for (_, g1), (j, g2) in itertools.combinations(
            enumerate(scene.grains), 2):
        if not _pair_disjoint(g1, g2):
            raise SceneError(f"grains {g1.id} and {g2.id} overlap",
                             f"grains[{j}]")


def _pair_disjoint(g1, g2):
    """True if the open interiors of g1 and g2 are disjoint (LP)."""
    ok, _, t = _margin_lp(np.vstack([g1.normals, g2.normals]),
                          np.concatenate([g1.offsets, g2.offsets]))
    # shared interior exists iff a point fits with positive margin
    return not ok or t <= 1e-11


# ---------------------------------------------------------------------------
# ray operations
# ---------------------------------------------------------------------------

def ray_grain_intersect(grain, x, v):
    """Maximal open interval (t_in, t_out) in (0, inf) with x+tv interior.

    Returns None when the ray misses or only grazes tangentially.  Interior
    starts give t_in = 0.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = grain.normals @ v
    nx = grain.normals @ x
    lo, hi = 0.0, np.inf
    for k in range(len(nv)):
        if nv[k] == 0.0:
            if nx[k] >= grain.offsets[k]:
                return None
            continue
        t = (grain.offsets[k] - nx[k]) / nv[k]
        if nv[k] > 0.0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
    t_in = max(lo, 0.0)
    if not np.isfinite(hi):
        raise SceneError(f"grain {grain.id} is unbounded along {v}")
    tol = REL_TOL * (1.0 + abs(t_in) + abs(hi))
    if hi - t_in <= tol:
        return None
    return (t_in, hi)


def clip_grain_rows(grain, xs, vs):
    """Vectorized ray clipping: entry/exit/valid arrays over rows.

    Each facet's column is folded in turn into the latest entry lo, the
    earliest exit hi and the dead mask (a ray parallel to a facet and
    outside it), which is the max, min and any over the facets.
    """
    nv = vs @ grain.normals.T
    nx = xs @ grain.normals.T
    lo, hi, dead = -np.inf, np.inf, False
    # a subnormal component of v overflows a facet time to inf, and then
    # hi - entry may be inf - inf: such a ray is not valid
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, c in enumerate(grain.offsets):
            nv_k, nx_k = nv[:, k], nx[:, k]
            t = (c - nx_k) / nv_k
            lo = np.maximum(lo, np.where(nv_k < 0, t, -np.inf))
            hi = np.minimum(hi, np.where(nv_k > 0, t, np.inf))
            dead = dead | ((nv_k == 0.0) & (nx_k >= c))
        entry = np.maximum(lo, 0.0)
        valid = ~dead & np.isfinite(hi) \
            & (hi - entry > REL_TOL * (1.0 + np.abs(hi)))
    return entry, hi, valid


# Rays per block of the segment table: a tiled box's table is rows x
# segments, its segment count grows with the horizon, and every block of
# the density products is rows x grid, so blocks bound the temporaries.  A
# finite scene's table is only rows x grains: polykernel builds it once.
TABLE_ROWS = 1 << 7

# A tiled table reaches this far past its horizon, relative and absolute
_HORIZON_PAD = 1e-9


def cell_clock(box, xs, vs):
    """Start of the cell walk of rays x + t v through a tiled box.

    Returns (tnext, delta), rows x axes: the time of the next face crossing
    and the time between crossings per axis.  A start on a face belongs to
    the cell that v points into, so no first cell has zero length; an axis
    that v does not move along is never crossed, so a ray along a face
    stays in the grain.
    """
    tnext = np.empty(np.shape(xs))
    delta = np.empty(np.shape(xs))
    for k, (lo, size) in enumerate(zip(box.lo, box.size)):
        v = vs[:, k]
        pos = xs[:, k] - lo
        cell = np.floor(pos / size)
        # the face ahead is cell + 1 when v > 0 and cell when v < 0; a
        # component v = 0 has delta = size / 0 = inf and a crossing at +-inf
        # or NaN, so it takes delta: never crossed.  A subnormal component
        # overflows to a crossing at inf, never crossed either.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = ((cell + (v > 0)) * size - pos) / v
            delta[:, k] = size / np.abs(v)
        # a start on the face that v leaves the cell through is in the
        # next cell
        tnext[:, k] = np.where(t > 0.0, t, delta[:, k])
    return tnext, delta


def _finite_table(scene, xs, vs):
    """All grain segments per ray of a finite scene, sorted by entry."""
    n = len(xs)
    G = len(scene.grains)
    entries = np.full((n, G), np.inf)
    exits = np.full((n, G), np.inf)
    for j, g in enumerate(scene.grains):
        e, h, ok = clip_grain_rows(g, xs, vs)
        entries[:, j] = np.where(ok, e, np.inf)
        exits[:, j] = np.where(ok, h, np.inf)
    order = np.argsort(entries, axis=1, kind="stable")
    entries = np.take_along_axis(entries, order, axis=1)
    exits = np.take_along_axis(exits, order, axis=1)
    base_gids = np.broadcast_to(np.array([g.id for g in scene.grains]),
                                (n, G))
    gids = np.take_along_axis(base_gids, order, axis=1)
    entries[:, 0] = np.where(entries[:, 0] <= REL_TOL, 0.0, entries[:, 0])
    with np.errstate(invalid="ignore"):
        for k in range(1, G):
            gap_k = entries[:, k] - exits[:, k - 1]
            snap = np.isfinite(entries[:, k]) \
                & (np.abs(gap_k) <= REL_TOL * (1.0 + entries[:, k]))
            entries[snap, k] = exits[snap, k - 1]
    return entries, exits, gids


def _tiled_table(scene, xs, vs, horizon):
    """Cell segments per ray of a tiled box, through the first exit past
    horizon.

    Each axis's crossings are one cumsum of [tnext, delta, delta, ...] from
    the walker's start state, which is the walker's repeated += bit for bit;
    the sorted union of all axes is the walker's sequence of cell exits.
    """
    wk = TiledBoxWalker(scene, xs, vs)
    reach = np.asarray(horizon, dtype=float) * (1.0 + _HORIZON_PAD) \
        + _HORIZON_PAD
    reach = np.broadcast_to(reach, (len(xs),))[:, None]
    fin = np.isfinite(wk.tnext)
    beyond = np.zeros(wk.tnext.shape)
    np.divide(reach - wk.tnext, wk.delta, out=beyond, where=fin)
    # crossings per axis up to reach, plus the first one past it
    count = int(np.max(np.floor(beyond), initial=0.0)) + 2
    steps = np.empty(wk.tnext.shape + (count,))
    steps[..., 0] = wk.tnext
    steps[..., 1:] = wk.delta[..., None]
    # an axis the ray barely moves along has a huge delta: its crossings
    # may overflow to inf, which lies past every reach as it should
    with np.errstate(over="ignore"):
        exits = np.sort(np.cumsum(steps, axis=2).reshape(len(xs), -1), axis=1)
    nseg = np.sum(exits <= reach, axis=1) + 1
    exits = np.ascontiguousarray(exits[:, :np.max(nseg, initial=1)])
    entries = np.zeros_like(exits)
    entries[:, 1:] = exits[:, :-1]
    past = np.arange(exits.shape[1]) >= nseg[:, None]
    entries[past] = np.inf
    exits[past] = np.inf
    return entries, exits, np.full(exits.shape, wk.gid)


def segment_table(scene, xs, vs, horizon):
    """Grain segments along the rays x + t v, one row per ray.

    Returns (entry, exit, gid) arrays of shape rows x segments, sorted by
    entry and padded with entry = exit = inf.  A finite scene lists every
    grain the ray crosses; a tiled box lists its cells through the first
    exit beyond horizon (a scalar or one value per row), zero-length cells
    of rays through cell edges included (a start on a face is in the cell
    that v points into, so never the first cell).  Entries within REL_TOL
    of 0 or of the previous exit snap to it.
    """
    if scene.periodic_box is not None:
        return _tiled_table(scene, xs, vs, horizon)
    return _finite_table(scene, xs, vs)


def _table_blocks(scene, xs, vs, horizon):
    """(rows, entry, exit, gid) over consecutive blocks of TABLE_ROWS rows:
    the segment table of each block's rows."""
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), (len(xs),))
    for start in range(0, len(xs), TABLE_ROWS):
        rows = slice(start, start + TABLE_ROWS)
        yield (rows,) + segment_table(scene, xs[rows], vs[rows],
                                      horizon[rows])


class FiniteSceneWalker:
    """Cursor over the segment table of a finite scene."""

    def __init__(self, scene, xs, vs):
        self.entries, self.exits, self.gids = _finite_table(scene, xs, vs)
        self.ptr = np.zeros(len(xs), dtype=int)
        self.nseg = self.entries.shape[1]

    def current(self):
        n = len(self.ptr)
        inb = self.ptr < self.nseg
        idx = np.minimum(self.ptr, self.nseg - 1)
        rows = np.arange(n)
        entry = self.entries[rows, idx]
        exit_ = self.exits[rows, idx]
        valid = inb & np.isfinite(entry)
        gid = self.gids[rows, idx]
        return entry, exit_, gid, valid

    def advance(self, rows):
        """Step each of the given rows (no repeats) one segment on."""
        self.ptr[rows] += 1


class TiledBoxWalker:
    """Cell-by-cell walk of a periodic scene (a box tiled by one grain)."""

    def __init__(self, scene, xs, vs):
        self.gid = scene.grains[0].id
        self.tnext, self.delta = cell_clock(scene.periodic_box, xs, vs)
        self.t_entry = np.zeros(len(xs))
        self.t_exit = reduce_cols(np.minimum, self.tnext)

    def current(self):
        """(entry, exit, gid, valid): every row walks on forever, so valid
        is None and gid the one grain's id."""
        return self.t_entry, self.t_exit, self.gid, None

    def advance(self, rows):
        """Step each of the given rows (no repeats) one cell on."""
        # np.take and flat indices: a[rows] and a[rows, cols] on rows x d
        # arrays copy row by row
        amin = argmin_cols(np.take(self.tnext, rows, axis=0))
        self.t_entry[rows] = self.t_exit[rows]
        at = rows * self.tnext.shape[1] + amin    # the crossing taken
        self.tnext.reshape(-1)[at] += self.delta.reshape(-1)[at]
        self.t_exit[rows] = reduce_cols(np.minimum,
                                        np.take(self.tnext, rows, axis=0))


def itinerary(scene, x, v, horizon):
    """Ordered disjoint grain segments along x+tv with entry < horizon.

    The ray's row of segment_table without its zero-length cells: the
    first segment has entry 0 exactly when x is in a grain or on its
    boundary with v pointing inwards, and adjacent grains chain without
    gaps.  Kept for perfbench/tracing.py until ROADMAP item 1.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    entry, exit_, gid = segment_table(scene, np.asarray(x, dtype=float)[None],
                                      np.asarray(v, dtype=float)[None],
                                      horizon)
    return [ItinerarySegment(int(g), float(a), float(b))
            for a, b, g in zip(entry[0], exit_[0], gid[0])
            if a < horizon and b > a]


def gap(scene, xs, vs, xis):
    """Length of {x+tv : 0<=t<=xi} outside all grains, 0 <= gap <= xi, one
    value per row (x, v, xi); the covered length adds up in segment
    order."""
    xis = np.asarray(xis, dtype=float)
    if not np.all(xis >= 0.0):
        raise ValueError("xi must be nonnegative")
    entry, exit_, _ = segment_table(scene, np.asarray(xs, dtype=float),
                                    np.asarray(vs, dtype=float), xis)
    covered = np.zeros(entry.shape)
    np.subtract(np.minimum(exit_, xis[:, None]), entry, out=covered,
                where=entry < xis[:, None])
    return np.maximum(xis - np.cumsum(covered, axis=1)[:, -1], 0.0)
