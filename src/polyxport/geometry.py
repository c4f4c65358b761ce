"""Convex grains, scenes, ray itineraries, the gap function and inside tests.

Grains are open convex polytopes stored as halfspace intersections
{x : n_k . x < c_k}.  Ray operations on a finite scene clip against the
halfspaces, which is exact up to floating point and O(#halfspaces) per
grain.  A periodic scene is a box tiled by its one grain: there the grain
segments of a ray are its cells, walked face crossing by face crossing.
Scene checks solve one margin LP per grain and per pair of grains, in
closed form when the grains are axis-aligned boxes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Relative tolerance for entry/exit comparisons.  Adjacent tiling grains must
# chain without spurious gaps, so nearly-equal times are merged.
REL_TOL = 1e-12

#: explicit-kernel range of the crystal formulas, indexed by dimension
CRYSTAL_DIAMETER_LIMIT = {2: 0.5, 3: 0.25}


class SceneError(ValueError):
    """Raised when a scene violates a structural invariant."""


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
    diameter_bound: float
    vertices: Optional[np.ndarray] = None   # optional V-representation

    @classmethod
    def from_halfspaces(cls, gid, normals, offsets, diameter_bound):
        normals = np.asarray(normals, dtype=float)
        scale = np.linalg.norm(normals, axis=1)
        return cls(gid, normals / scale[:, None],
                   np.asarray(offsets, dtype=float) / scale,
                   float(diameter_bound))

    @classmethod
    def from_vertices(cls, gid, vertices):
        """Convert a V-representation to halfspaces (convex hull facets)."""
        pts = np.asarray(vertices, dtype=float)
        d = pts.shape[1]
        diam = max(np.linalg.norm(p - q) for p, q in itertools.combinations(pts, 2))
        if d == 2 and len(pts) <= 4:
            # tiny polygons: order by angle around the centroid
            c = pts.mean(axis=0)
            order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
            pts_o = pts[order]
            normals, offs = [], []
            for i in range(len(pts_o)):
                p, q = pts_o[i], pts_o[(i + 1) % len(pts_o)]
                e = q - p
                n = np.array([e[1], -e[0]])
                n /= np.linalg.norm(n)
                if np.dot(n, c - p) > 0:
                    n = -n
                normals.append(n)
                offs.append(np.dot(n, p))
            grain = cls(gid, np.array(normals), np.array(offs), diam, pts_o)
        else:
            from scipy.spatial import ConvexHull
            hull = ConvexHull(pts)
            eq = hull.equations   # n.x + b <= 0
            normals = _unit_rows(eq[:, :-1])
            offs = -eq[:, -1] / np.linalg.norm(eq[:, :-1], axis=1)
            grain = cls(gid, normals, offs, diam, pts[hull.vertices])
        return grain

    @classmethod
    def box(cls, gid, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi <= lo):
            raise ValueError("box needs lo < hi per axis")
        d = lo.size
        normals = np.vstack([np.eye(d), -np.eye(d)])
        offsets = np.concatenate([hi, -lo])
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        return cls(gid, normals, offsets, float(np.linalg.norm(hi - lo)), corners)

    @property
    def dimension(self):
        return self.normals.shape[1]

    def contains(self, x):
        """Strict interior test."""
        return bool(np.all(self.normals @ np.asarray(x, dtype=float) < self.offsets))

    def get_vertices(self):
        if self.vertices is not None:
            return self.vertices
        verts = _halfspace_vertices(self.normals, self.offsets)
        object.__setattr__(self, "vertices", verts)
        return verts

    def volume(self):
        from scipy.spatial import ConvexHull
        return float(ConvexHull(self.get_vertices()).volume)


def _halfspace_vertices(normals, offsets):
    """Vertices of {x : N x <= c} via an interior (Chebyshev) point."""
    from scipy.spatial import HalfspaceIntersection
    ok, x, t = _margin_lp(normals, offsets)
    if not ok or t <= 0:
        raise SceneError("halfspace system has empty interior")
    hs = HalfspaceIntersection(np.c_[normals, -offsets], x)
    return hs.intersections


def _margin_lp(normals, offsets):
    """Max t subject to N x + t <= c, t >= 0, as (ok, x, t).

    ok is False when the LP is infeasible or unbounded.  When every row of
    N is +-e_j and every axis has rows of both signs, the LP splits by
    axis: with hi_j the smallest offset of the +e_j rows and lo_j the
    largest -offset of the -e_j rows, the optimum is t = min_j (hi_j -
    lo_j) / 2 at x = (hi + lo) / 2, infeasible when t < 0.  Any other
    system goes to HiGHS.
    """
    n, d = normals.shape
    axis = np.argmax(np.abs(normals), axis=1)
    sign = normals[np.arange(n), axis]
    up = sign > 0
    if (np.all(np.abs(sign) == 1.0) and np.count_nonzero(normals) == n
            and np.all(np.bincount(axis + d * up, minlength=2 * d))):
        hi = np.full(d, np.inf)
        lo = np.full(d, -np.inf)
        np.minimum.at(hi, axis[up], offsets[up])
        np.maximum.at(lo, axis[~up], -offsets[~up])
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
            raise SceneError("periodic box needs lo < hi")

    @property
    def size(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class ItinerarySegment:
    """One traversed grain: entry/exit ray parameters with exit > entry >= 0."""
    grain_id: int
    entry: float
    exit: float

    @property
    def sejour(self):
        return self.exit - self.entry


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

    def grain_by_id(self, gid):
        return self._grain_index()[gid]

    def medium_by_id(self, gid):
        for g, m in zip(self.grains, self.media):
            if g.id == gid:
                return m
        raise KeyError(gid)

    def _grain_index(self):
        if not hasattr(self, "_gidx"):
            object.__setattr__(self, "_gidx", {g.id: g for g in self.grains})
        return self._gidx

    def max_diameter_bound(self):
        return max(g.diameter_bound for g in self.grains)


def make_scene(dimension, grains, media, periodic_box=None, anchor=None,
               assume_incommensurable=False, validate=True):
    """A Scene; a periodic box must be tiled by the one grain, validate or
    not, because every periodic ray operation walks its cells."""
    if len(grains) != len(media):
        raise SceneError("one medium per grain required")
    if periodic_box is not None:
        check_tiled_box(grains, periodic_box)
    scene = Scene(dimension, tuple(grains), tuple(media), periodic_box, anchor,
                  assume_incommensurable)
    if validate:
        validate_scene(scene)
    return scene


def check_tiled_box(grains, box):
    """SceneError unless grains is one grain that is exactly the box."""
    if len(grains) != 1:
        raise SceneError(f"a periodic box must be tiled by one grain, not "
                         f"{len(grains)}")
    g = grains[0]
    d = box.lo.size
    if g.dimension == d and len(g.normals) == 2 * d:
        # each facet normal is +-e_j, on the box face of that sign
        j = np.argmax(np.abs(g.normals), axis=1)
        nj = g.normals[np.arange(2 * d), j]
        face = np.where(nj > 0, box.hi[j], -box.lo[j])
        if (len(set(zip(j, nj > 0))) == 2 * d
                and np.all(np.abs(np.abs(nj) - 1.0) <= 1e-12)
                and np.all(np.abs(g.offsets - face) <= 1e-9)):
            return
    raise SceneError(f"grain {g.id} is not the periodic box from "
                     f"{box.lo.tolist()} to {box.hi.tolist()}")


def validate_scene(scene):
    ids = [g.id for g in scene.grains]
    if len(set(ids)) != len(ids):
        raise SceneError("duplicate grain ids")
    for g in scene.grains:
        if g.dimension != scene.dimension:
            raise SceneError("grain dimension mismatch")
        ok, x, _ = _margin_lp(g.normals, g.offsets)
        if not ok:
            raise SceneError("unbounded or empty grain")
        if np.any(g.normals @ x >= g.offsets):
            raise SceneError(f"grain {g.id} has empty interior")

    crystal_ids = [g.id for g, m in zip(scene.grains, scene.media)
                   if getattr(m, "kind", None) == "crystal"]
    if crystal_ids:
        limit = CRYSTAL_DIAMETER_LIMIT[scene.dimension]
        for g in scene.grains:
            if scene.medium_by_id(g.id).kind == "crystal" and g.diameter_bound > limit + REL_TOL:
                raise SceneError(
                    f"grain {g.id} diameter bound {g.diameter_bound} exceeds the "
                    f"explicit crystal-kernel range {limit} in d={scene.dimension}")
        if len(crystal_ids) > 1 and not scene.assume_incommensurable:
            lats = [scene.medium_by_id(i).lattice for i in crystal_ids]
            if all(l.rational_form is not None for l in lats):
                raise SceneError(
                    "all crystal orientations are rational, hence pairwise "
                    "commensurable; the polycrystal limit needs incommensurable "
                    "grains")
            raise SceneError(
                "incommensurability is undecidable from float input; set "
                "assume_incommensurable=True to assert it")

    _check_disjoint(scene)


def _pair_disjoint(g1, g2):
    """True if the open interiors of g1 and g2 are disjoint (LP)."""
    ok, _, t = _margin_lp(np.vstack([g1.normals, g2.normals]),
                          np.concatenate([g1.offsets, g2.offsets]))
    # shared interior exists iff a point fits with positive margin
    return not ok or t <= 1e-11


def _check_disjoint(scene):
    for g1, g2 in itertools.combinations(scene.grains, 2):
        if not _pair_disjoint(g1, g2):
            raise SceneError(f"grains {g1.id} and {g2.id} overlap")


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
    """Vectorized ray clipping: entry/exit/valid arrays over rows."""
    nv = vs @ grain.normals.T
    nx = xs @ grain.normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (grain.offsets[None, :] - nx) / nv
    lo = np.where(nv < 0, t, -np.inf).max(axis=1)
    hi = np.where(nv > 0, t, np.inf).min(axis=1)
    dead = np.any((nv == 0.0) & (nx >= grain.offsets[None, :]), axis=1)
    entry = np.maximum(lo, 0.0)
    tol = REL_TOL * (1.0 + np.abs(hi))
    valid = ~dead & np.isfinite(hi) & (hi - entry > tol)
    return entry, hi, valid


def _segments_plain(scene, x, v, horizon):
    raw = []
    for g in scene.grains:
        hit = ray_grain_intersect(g, x, v)
        if hit is not None and hit[0] < horizon:
            raw.append((hit[0], hit[1], g.id))
    raw.sort()
    return raw


def cell_clock(box, xs, vs):
    """Start of the cell walk of rays x + t v through a tiled box.

    Returns (tnext, delta), rows x axes: the time of the next face crossing
    and the time between crossings per axis.  A start on a face belongs to
    the cell that v points into, so no first cell has zero length; an axis
    that v does not move along is never crossed, so a ray along a face
    stays in the grain.
    """
    size = box.size
    pos = xs - box.lo
    cell = np.floor(pos / size)
    # a subnormal component overflows to a crossing at inf: never crossed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up = ((cell + 1.0) * size - pos) / vs
        dn = (cell * size - pos) / vs
        delta = np.where(vs != 0.0, size / np.abs(vs), np.inf)
    tnext = np.where(vs > 0, up, np.where(vs < 0, dn, np.inf))
    # a start on the face that v leaves the cell through is in the next cell
    return np.where(tnext > 0.0, tnext, delta), delta


def _segments_periodic(scene, x, v, horizon):
    """The cells of a tiled box, one scalar step per face crossing."""
    tnext, delta = cell_clock(scene.periodic_box, x[None], v[None])
    tnext, delta = tnext[0], delta[0]
    gid = scene.grains[0].id
    raw = []
    t = 0.0
    while t < horizon:
        i = int(np.argmin(tnext))
        raw.append((t, tnext[i], gid))
        t = tnext[i]
        tnext[i] += delta[i]
    return raw


def itinerary(scene, x, v, horizon):
    """Ordered disjoint grain segments along x+tv with entry < horizon.

    The first segment has entry 0 exactly when x is in a grain or on its
    boundary with v pointing inwards.  Nearly-coincident exit/entry pairs of
    adjacent grains are merged so tilings chain without spurious gaps.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if scene.periodic_box is not None:
        raw = _segments_periodic(scene, x, v, horizon)
    else:
        raw = _segments_plain(scene, x, v, horizon)

    segs = []
    prev_exit = 0.0
    for a, b, gid in raw:
        tol = REL_TOL * (1.0 + abs(a))
        if a <= tol:
            a = 0.0
        if segs:
            if a < prev_exit - REL_TOL * (1.0 + abs(a)):
                raise SceneError("overlapping itinerary segments "
                                 "(scene grains overlap along the ray)")
            if a - prev_exit <= REL_TOL * (1.0 + abs(a)):
                a = prev_exit
        if b <= a:
            continue
        segs.append(ItinerarySegment(gid, a, b))
        prev_exit = b
    return segs


def gap(scene, x, v, xi):
    """Length of {x+tv : 0<=t<=xi} outside all grains; 0 <= gap <= xi."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if xi == 0:
        return 0.0
    covered = 0.0
    for seg in itinerary(scene, x, v, xi):
        covered += min(seg.exit, xi) - seg.entry
    return max(xi - covered, 0.0)


def inside_indicator(scene, x, v):
    """True iff x is interior to a grain, or on a boundary with v inwards."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if scene.periodic_box is not None:
        return True     # a tiled box has no outside
    for g in scene.grains:
        hit = ray_grain_intersect(g, x, v)
        if hit is not None and hit[0] == 0.0:
            return True
    return False
