"""Exact microscopic Lorentz-gas dynamics on a polylattice.

A particle moves straight and reflects specularly off balls of radius r
centered on the per-grain scatterer sets.  The scaling eps = r^((d-1)/d)
keeps the mean free path of order one as r -> 0.

First-hit search runs on blocks of rays (`first_collisions`): every ray is
clipped against every grain inflated by r, the candidate centers inside a
thin tube around each clipped segment are enumerated for all rays at once
(integer slabs of the grain lattice, or the runs of a Poisson grid's
sorted cell keys), and the entry roots are reduced to one minimum per
ray.  The expected work per free path is O(1) at this scaling.  The
one-ray call `first_collision` and the tau_1 sampler use the same engine.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import scattering, streams
# ray_grain_intersect is unused here but stays importable from this
# module: perfbench/tracing.py wraps it in this namespace.
from .geometry import (SceneError, clip_grain_rows,  # noqa: F401
                       ray_grain_intersect)
from .lattice import (ScaledGrainLattice, dist_point_segment, divide_rows,
                      integer_points_near_segments, norm_rows, points_in_tube,
                      reduce_cols, repeat_with_rank, segment_cover_bound)
from .scattering import Q_MODES, BetaSpec

# A ray that meets no scatterer within this many scene diameters escapes.
CUTOFF_FACTOR = 10.0

# Candidate (ray, center) rows the engine expands per vectorized step: it
# bounds the temporaries of one step to a few MB whatever the tube length.
ROW_BUDGET = 1 << 13

# Points a PointGrid build keys per step: its temporaries are a few 64 kB
# arrays whatever the grain holds (larger steps raise the peak memory of a
# freepath run, and are no faster).
GRID_CHUNK = 1 << 13

# tau_1 samples per "micro.chunk_offsets" stream; worker pools trace whole
# chunks, so results do not depend on the worker count.
SAMPLE_CHUNK = 20000


def epsilon_for(r, dimension):
    """Boltzmann-Grad coupling eps = r^((d-1)/d)."""
    if r <= 0:
        raise ValueError("r must be positive")
    return r ** ((dimension - 1) / dimension)


@dataclass(frozen=True)
class MicroConfig:
    """One microscopic run.  A ray in direction v starts at r beta(v) from
    its base point: anchor + eps q (q_mode 'random': q uniform on the unit
    cube, per run or with resample_offsets per sample; 'zero': q = 0), or
    with on_scatterer a scatterer center of start_grain near the anchor."""
    r: float
    seed: int = 0
    beta: BetaSpec = field(default_factory=BetaSpec)
    q_mode: str = "random"          # one of Q_MODES
    on_scatterer: bool = False      # start on a scatterer of start_grain
    start_grain: Optional[int] = None
    resample_offsets: bool = False  # fresh lattice offsets per sample

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.q_mode not in Q_MODES:
            raise ValueError(f"unknown q mode {self.q_mode!r}")
        if self.on_scatterer and self.start_grain is None:
            raise ValueError("on_scatterer start needs start_grain")

    @property
    def draws_q(self):
        """Whether the base point's q is drawn (q_mode 'random', and no
        start on a scatterer)."""
        return self.q_mode == "random" and not self.on_scatterer


@dataclass(frozen=True)
class CollisionEvent:
    time: float
    center: np.ndarray
    w1: np.ndarray            # unit impact point, hit = center + r w1
    grain_id: int
    v_in: np.ndarray
    v_out: np.ndarray


class CellBox:
    """The uniform cells of side `cell` over the box [lo, hi].

    A point x lies in the cell floor(x / cell); flooring is monotone, so
    every point of the box lies in a cell of the box.  `index` is a
    point's row-major cell index in the box, and `near` lists the indices
    of the cells near each of a batch of segments: a `PointGrid` query and
    the reach of a run's rays take their cells from it alike.
    """

    def __init__(self, lo, hi, cell):
        self.cell = float(cell)
        self.lo = np.floor(np.asarray(lo, dtype=float)
                           / self.cell).astype(np.int64)
        self.shape = np.floor(np.asarray(hi, dtype=float)
                              / self.cell).astype(np.int64) - self.lo + 1
        self.strides = np.r_[np.cumprod(self.shape[:0:-1])[::-1], 1]
        self.count = math.prod(int(s) for s in self.shape)

    def index(self, pts):
        """Float row-major cell index of each row, exact: every partial
        sum is an integer below `count`."""
        lin = 0.0
        for k in range(pts.shape[1]):
            lin = lin + (np.floor(pts[:, k] / self.cell) - self.lo[k]) \
                * self.strides[k]
        return lin

    def margin(self, radius):
        # in cell units a point lies within 1/2 (per axis) of its cell's
        # center, so cells are taken within that plus radius
        return radius / self.cell + 0.5 + 1e-9

    def near(self, p0, p1, radius):
        """(rows, lin): the box's cells holding every point within radius
        of segment [p0[rows[m]], p1[rows[m]]], as row-major indices."""
        rows, cells = integer_points_near_segments(
            np.asarray(p0) / self.cell - 0.5, np.asarray(p1) / self.cell - 0.5,
            self.margin(radius))
        rel = cells - self.lo
        inside = np.ones(len(rel), dtype=bool)
        for axis in range(rel.shape[1]):
            inside &= (rel[:, axis] >= 0) & (rel[:, axis] < self.shape[axis])
        return rows[inside], rel[inside] @ self.strides

    def bound(self, p0, p1, radius):
        """Upper bound on the cells `near` lists per segment."""
        return segment_cover_bound(np.asarray(p0) / self.cell,
                                   np.asarray(p1) / self.cell,
                                   self.margin(radius))


class CellMask:
    """A set of cells of a CellBox, one bit per cell of the box."""

    def __init__(self, count):
        self.bits = np.zeros((count + 7) >> 3, dtype=np.uint8)

    def add(self, lin):
        np.bitwise_or.at(self.bits, lin >> 3,
                         np.left_shift(1, lin & 7).astype(np.uint8))

    def holds(self, lin):
        """Whether each integer cell index is in the set."""
        return (self.bits[lin >> 3] >> (lin & 7)) & 1 == 1


class PointGrid:
    """Fixed point set hashed into uniform cells, stored sorted by cell.

    It holds 8 bytes per point besides the points: the sorted int64 keys
    cell << b | index, with 2^b >= n and cell the point's index in a
    CellBox.  The box is the one of `bounds` (lo, hi), which must hold
    every point, or else that of the points' per-axis min and max.  A
    cell's points are one run of keys, found by `searchsorted`; nothing is
    stored per cell, so the box may span far more cells than there are
    points.  The keys must stay below 2^63: ncells * 2^b > 2^63, or ncells
    > 2^53, raises ValueError.  The build fills the keys GRID_CHUNK rows at
    a time and sorts them in place, so it allocates nothing per point but
    the keys.

    reach: None, or the CellMask of the only cells a query may visit (the
    points are those of these cells); `cover` raises RuntimeError on a
    query that visits a cell of the box outside it.
    """

    def __init__(self, points, cell_size, bounds=None, reach=None):
        self.points = np.asarray(points, dtype=float)
        n, d = self.points.shape
        if bounds is None:
            cols = [self.points[:, k] for k in range(d)]
            bounds = ([c.min() for c in cols], [c.max() for c in cols]) \
                if n else (np.zeros(d), np.zeros(d))
        self.box = CellBox(*bounds, cell_size)
        self.reach = reach
        self._bits = max(n - 1, 0).bit_length()
        if self.box.count > 2 ** 53 or self.box.count << self._bits > 2 ** 63:
            raise ValueError(f"{self.box.count} cells x {n} points overflow "
                             "the int64 sort key")
        self._keys = np.empty(n, dtype=np.int64)
        for a in range(0, n, GRID_CHUNK):
            lin = self.box.index(self.points[a:a + GRID_CHUNK])
            self._keys[a:a + len(lin)] = lin.astype(np.int64) << self._bits \
                | np.arange(a, a + len(lin))
        self._keys.sort()

    def cover(self, p0, p1, radius):
        """Indices of all points in cells near each segment [p0[i], p1[i]].

        Returns (rows, idx), a superset of the points within radius of
        their segment.
        """
        # cells outside the box drop in `near`, empty cells (an empty run)
        # in the expansion
        rows, lin = self.box.near(p0, p1, radius)
        if self.reach is not None and not self.reach.holds(lin).all():
            raise RuntimeError("a query visits cells outside the reach the "
                               "grid was built for")
        # each cell's run, looked up in ascending cell order
        mask, order = (1 << self._bits) - 1, np.argsort(lin)
        first = lin[order] << self._bits
        start, stop = np.empty_like(lin), np.empty_like(lin)
        start[order] = np.searchsorted(self._keys, first)
        stop[order] = np.searchsorted(self._keys, first | mask, side="right")
        owner, rank = repeat_with_rank(np.arange(len(lin)), stop - start)
        return rows[owner], self._keys[start[owner] + rank] & mask

    def query_segment(self, p0, p1, radius):
        """Points within radius of the segment [p0, p1] (one-segment cover)."""
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        _, idx = self.cover(p0[None], p1[None], radius)
        pts = self.points[np.sort(idx)]
        return pts[dist_point_segment(pts, p0, p1) <= radius]


def poisson_realization(grain, epsilon, rng, keep=None):
    """Fixed unit-intensity Poisson set, scaled by eps and cut to the grain.

    The draws are scaled in place onto the grain's bounding box, and kept
    in draw order where they lie inside the grain (a box grain keeps them
    all, and returns them as drawn).  keep: None, or a function of a block
    of points that returns the rows to store; the points are then drawn
    GRID_CHUNK rows at a time (the same doubles as one draw of them all),
    so only a block and the rows kept are ever held.
    """
    verts = grain.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    d = grain.dimension
    n = rng.poisson(float(np.prod(hi - lo)) / epsilon ** d)
    step = max(n, 1) if keep is None else GRID_CHUNK
    parts = []
    for a in range(0, n, step):
        # rng.uniform(lo, hi, ...)'s doubles at a third of its cost
        pts = rng.random((min(step, n - a), d))
        for k, (b0, b1) in enumerate(zip(lo, hi)):
            pts[:, k] *= b1 - b0
            pts[:, k] += b0
        parts.append(pts if keep is None else pts[keep(pts)])
    pts = parts[0] if len(parts) == 1 else \
        np.concatenate(parts or [np.empty((0, d))])
    inside = grain.contains_rows(pts)
    return pts if inside.all() else pts[inside]


class MicroRuntime:
    """Scene + radius bound to concrete scatterer sets for one run.

    Per grain it holds the scatterer store (a ScaledGrainLattice, which
    caches M^-1 and its norm, or a PointGrid) and the grain inflated by r,
    whose clip window holds every hit on that grain's balls.

    rays: None, or the blocks (xs, vs) of every ray the run will trace.
    Without rays a Poisson grain's PointGrid holds its whole realization.
    With them it holds only the points of the cells that `first_collisions`
    queries for those blocks (its reach, one bit per cell of the grain's
    cell box), from the same draws, and a query outside that reach raises
    RuntimeError; a grain no ray reaches is not drawn.
    """

    def __init__(self, scene, cfg, rays=None):
        if scene.periodic_box is not None:
            raise SceneError("microscopic runs need a finite scene")
        self.scene = scene
        self.cfg = cfg
        self.r = cfg.r
        self.epsilon = epsilon_for(cfg.r, scene.dimension)
        # the radius of every candidate query: a hit at exactly r is kept
        self._radius = self.r * (1.0 + 1e-12)
        self._inflated = [dataclasses.replace(g, offsets=g.offsets + self.r,
                                              vertices=None)
                          for g in scene.grains]
        allv = np.vstack([g.vertices for g in scene.grains])
        self.scene_diameter = float(np.linalg.norm(allv.max(0) - allv.min(0)))
        self.cutoff = CUTOFF_FACTOR * self.scene_diameter
        self._media = {}
        for j, (g, m) in enumerate(zip(scene.grains, scene.media)):
            if m.kind == "poisson":
                self._media[g.id] = ("poisson", self._poisson_grid(j, rays))
            elif m.mode == "random-offset":
                rng = streams.rng("micro.grain_offset", cfg.seed, g.id)
                omega = rng.uniform(0.0, 1.0, scene.dimension)
                self._media[g.id] = ("crystal", ScaledGrainLattice(
                    m.lattice.with_omega(omega), self.epsilon,
                    np.zeros(scene.dimension)))
            else:
                self._media[g.id] = ("crystal", ScaledGrainLattice(
                    m.lattice, self.epsilon, scene.anchor))
        if cfg.resample_offsets:
            bad = [g.id for g, m in zip(scene.grains, scene.media)
                   if m.kind != "crystal" or m.mode != "random-offset"]
            if bad:
                raise SceneError("per-sample offsets need random-offset "
                                 f"crystal media everywhere (grains {bad})")

    def _poisson_grid(self, j, rays):
        """Grain j's PointGrid, over the cell box of its bounding box."""
        grain = self.scene.grains[j]
        rng = streams.rng("micro.poisson_points", self.cfg.seed, grain.id)
        verts = grain.vertices
        bounds = verts.min(axis=0), verts.max(axis=0)
        cell = max(self.epsilon, 4.0 * self.r)
        if rays is None:
            return PointGrid(poisson_realization(grain, self.epsilon, rng),
                             cell, bounds)
        box = CellBox(*bounds, cell)
        reach = CellMask(box.count)
        for xs, vs in rays:
            _, p0, p1 = self._window(j, xs, vs)
            for part in _budget_slices(box.bound(p0, p1, self._radius),
                                       ROW_BUDGET):
                reach.add(box.near(p0[part], p1[part], self._radius)[1])
        pts = poisson_realization(
            grain, self.epsilon, rng,
            lambda p: reach.holds(box.index(p).astype(np.int64))) \
            if reach.bits.any() else np.empty((0, self.scene.dimension))
        return PointGrid(pts, cell, bounds, reach)

    def _window(self, j, xs, vs):
        """The rays' windows on grain j inflated by r, cut at the cutoff:
        (rows, p0, p1), the rays that have one and its end points."""
        t0, t1, ok = clip_grain_rows(self._inflated[j], xs, vs)
        t1 = np.minimum(t1, self.cutoff + 2.0 * self.r)
        rows = np.flatnonzero(ok & (t0 <= self.cutoff) & (t1 > t0))
        p0 = xs[rows] + t0[rows, None] * vs[rows]
        p1 = xs[rows] + t1[rows, None] * vs[rows]
        return rows, p0, p1

    def resample_media(self, rng, n):
        """Fresh lattice offsets for n annealed samples, in one draw.

        Row i holds sample i's uniforms in the order a per-sample loop
        draws them: each grain's omega in scene order, then the start
        point's q when it is random.  Returns omegas (n, G, d) and q
        (n, d), or None when q is not drawn.
        """
        d, G = self.scene.dimension, len(self.scene.grains)
        u = rng.uniform(0.0, 1.0, (n, G * d + (d if self.cfg.draws_q else 0)))
        return u[:, :G * d].reshape(n, G, d), (u[:, G * d:]
                                               if self.cfg.draws_q else None)

    def scatterers(self, grain_id, omega=None):
        """Every scatterer center of the grain (omega overrides a crystal's;
        a Poisson grain built from rays holds only those of its reach)."""
        kind, store = self._media[grain_id]
        if kind == "crystal":
            grain = self.scene.grain_by_id(grain_id)
            ks = _lattice_points_in_grain(store, grain, omega)
            return store.from_integer(ks, omega) if ks.size \
                else np.empty((0, self.scene.dimension))
        return store.points

    def candidates(self, grain_id, x, v, t0, t1):
        """All scatterer centers of the grain within r of x + [t0,t1] v.

        An exact one-segment query; the engine uses the superset `_cover`.
        """
        kind, store = self._media[grain_id]
        radius = self._radius
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if kind == "crystal":
            pts = points_in_tube(store, x, v, t0, t1, radius)
            return pts[self.scene.grain_by_id(grain_id).contains_rows(pts)]
        return store.query_segment(x + t0 * v, x + t1 * v, radius)

    def _cover(self, j, p0, p1, omega):
        """Superset of grain j's centers near each segment: (rows, centers).

        omega: None, or one lattice offset per segment (crystal grains).
        """
        grain = self.scene.grains[j]
        kind, store = self._media[grain.id]
        radius = self._radius
        if kind == "poisson":
            rows, idx = store.cover(p0, p1, radius)
            return rows, store.points[idx]
        rows, ks = integer_points_near_segments(
            store.to_lattice_coords(p0, omega),
            store.to_lattice_coords(p1, omega), store.tube_margin(radius))
        centers = store.from_integer(ks, None if omega is None else omega[rows])
        keep = grain.contains_rows(centers)
        return rows[keep], centers[keep]

    def _cover_bound(self, j, p0, p1):
        kind, store = self._media[self.scene.grains[j].id]
        radius = self._radius
        if kind == "poisson":
            return store.box.bound(p0, p1, radius)
        return segment_cover_bound(store.to_lattice_coords(p0),
                                   store.to_lattice_coords(p1),
                                   store.tube_margin(radius))


def _lattice_points_in_grain(sgl, grain, omega=None):
    corners = sgl.to_lattice_coords(grain.vertices, omega)
    los = np.floor(corners.min(axis=0)) - 1
    his = np.ceil(corners.max(axis=0)) + 1
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(los, his)],
                        indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    return ks[grain.contains_rows(sgl.from_integer(ks, omega))]


def _budget_slices(cost, budget):
    """Consecutive slices of rows whose costs sum to at most budget
    (a single row over budget gets a slice of its own)."""
    cum = np.cumsum(cost)
    start = 0
    while start < len(cum):
        base = cum[start - 1] if start else 0.0
        stop = max(int(np.searchsorted(cum, base + budget, side="right")),
                   start + 1)
        yield slice(start, stop)
        start = stop


class Hits(NamedTuple):
    """First hits of a block of rays; escapes have time inf and grain -1."""
    time: np.ndarray      # (n,)
    center: np.ndarray    # (n, d)
    grain: np.ndarray     # (n,) grain ids
    w1: np.ndarray        # (n, d) unit impact points, zero rows for escapes


def first_collisions(runtime, xs, vs, exclude=None, omegas=None):
    """Earliest sphere hit along each ray xs[i] + t vs[i].

    exclude: optional (n, d) center per ray that the ray ignores (a start
    on that scatterer).  omegas: optional (n, G, d) lattice offsets of
    the crystal grains, one set per ray (annealed sampling).
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    n, d = xs.shape
    r, cutoff = runtime.r, runtime.cutoff
    best_t = np.full(n, np.inf)
    best_c = np.zeros((n, d))
    best_g = np.full(n, -1, dtype=np.int64)
    for j, grain in enumerate(runtime.scene.grains):
        rows, p0, p1 = runtime._window(j, xs, vs)
        if not len(rows):
            continue
        cost = runtime._cover_bound(j, p0, p1)
        for part in _budget_slices(cost, ROW_BUDGET):
            ray = rows[part]
            om = None if omegas is None else omegas[ray, j]
            k, centers = runtime._cover(j, p0[part], p1[part], om)
            ray = ray[k]
            # np.take and np.compress: a[ray] and a[ok] on rows x d arrays
            # copy row by row
            u = centers - np.take(xs, ray, axis=0)
            tc = reduce_cols(np.add, u * np.take(vs, ray, axis=0))
            q = reduce_cols(np.add, u * u)
            disc = r * r - (q - tc * tc)
            ok = (disc > 0.0) & (tc > 0.0) & (q > r * r * (1.0 + 1e-12))
            if exclude is not None:
                ok &= norm_rows(centers - np.take(exclude, ray, axis=0)) \
                    > 1e-9 * runtime.epsilon
            centers = np.compress(ok, centers, axis=0)
            ray, q, tc, disc = (a[ok] for a in (ray, q, tc, disc))
            if not len(ray):
                continue
            # entry root of |x + t v - y|^2 = r^2 in the cancellation-free form
            thit = (q - r * r) / (tc + np.sqrt(disc))
            order = np.lexsort((thit, ray))
            first = order[np.r_[True, ray[order][1:] != ray[order][:-1]]]
            better = first[thit[first] < best_t[ray[first]]]
            best_t[ray[better]] = thit[better]
            best_c[ray[better]] = centers[better]
            best_g[ray[better]] = grain.id
    hit = best_t <= cutoff
    best_t[~hit] = np.inf
    best_g[~hit] = -1
    w1 = np.zeros((n, d))
    w = (xs[hit] + best_t[hit, None] * vs[hit] - best_c[hit]) / r
    w1[hit] = divide_rows(w, norm_rows(w))
    return Hits(best_t, best_c, best_g, w1)


def first_collision(runtime, x, v, exclude_center=None):
    """Earliest sphere hit along x + t v, or None when the ray escapes."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    hits = first_collisions(runtime, x[None], v[None],
                            exclude=None if exclude_center is None
                            else np.asarray(exclude_center, dtype=float)[None])
    if hits.grain[0] < 0:
        return None
    w1 = hits.w1[0]
    return CollisionEvent(float(hits.time[0]), hits.center[0], w1,
                          int(hits.grain[0]), v.copy(),
                          scattering.reflect(v, w1))


# ---------------------------------------------------------------------------
# tau_1 sampling
# ---------------------------------------------------------------------------

@dataclass
class Tau1Sample:
    """Empirical joint law of (tau_1, impact data) for one radius."""
    r: float
    epsilon: float
    seed: int
    tau1: np.ndarray        # inf marks escape
    hit_grain: np.ndarray   # -1 marks escape
    u_impact: np.ndarray    # rows -w1 K(v), zero rows for escapes
    directions: np.ndarray
    escaped: np.ndarray
    exit_w: Optional[np.ndarray] = None   # (beta(v) K(v))_perp, on-scatterer runs

    @property
    def n(self):
        return len(self.tau1)

    @property
    def escape_fraction(self):
        return float(np.mean(self.escaped))


def _start_points(runtime, n, q=None, omegas=None):
    """n base points: anchor + eps q, or a scatterer center of start_grain.

    q: (n, d) uniforms for q_mode 'random'.  omegas: (n, G, d) per-sample
    lattice offsets (annealed sampling) for starts on a scatterer.
    """
    scene, cfg = runtime.scene, runtime.cfg
    if not cfg.on_scatterer:
        return _offset_starts(scene, cfg, n, q)
    x = np.broadcast_to(scene.anchor, (n, scene.dimension))
    gid = cfg.start_grain
    grain = scene.grain_by_id(gid)
    kind, store = runtime._media[gid]
    om = None
    if omegas is not None:
        om = omegas[:, [g.id for g in scene.grains].index(gid)]
    if kind != "crystal":
        centers = np.empty((n, scene.dimension))
        inside = np.zeros(n, dtype=bool)
    else:
        k = np.round(store.to_lattice_coords(x, om))
        centers = store.from_integer(k, om)
        inside = grain.contains_rows(centers)
    for i in np.flatnonzero(~inside):
        cands = runtime.scatterers(gid, None if om is None else om[i])
        if not len(cands):
            raise SceneError("start grain holds no scatterers at this radius")
        centers[i] = cands[int(np.argmin(norm_rows(cands - x[i])))]
    return centers


def _offset_starts(scene, cfg, n, q):
    """n base points anchor + eps q (the anchor itself for q_mode 'zero')."""
    x = np.broadcast_to(scene.anchor, (n, scene.dimension))
    if cfg.q_mode == "zero":
        return x.copy()
    return x + epsilon_for(cfg.r, scene.dimension) * q


def _ray_origins(cfg, starts, dirs):
    """Where the rays leave their base points: starts + r beta(v)."""
    return starts + cfg.r * cfg.beta(dirs)


def _trace_chunk(job):
    """First hits of one chunk of directions: (tau_1, grain ids, w1)."""
    rt, dirs, base, chunk_id = job
    cfg = rt.cfg
    n = len(dirs)
    omegas = None
    starts = np.broadcast_to(base, dirs.shape)
    if cfg.resample_offsets:
        rng = streams.rng("micro.chunk_offsets", cfg.seed, chunk_id)
        omegas, q = rt.resample_media(rng, n)
        starts = _start_points(rt, n, q, omegas)
    hits = first_collisions(rt, _ray_origins(cfg, starts, dirs), dirs,
                            exclude=starts if cfg.on_scatterer else None,
                            omegas=omegas)
    return hits.time, hits.grain, hits.w1


def sample_tau1_distribution(scene, cfg, n_samples, threads=1):
    """Empirical (tau_1, -w1 K(v)) law over n uniform directions.

    Streams: "micro.directions" draws the base point (its q when q_mode is
    'random'), then the directions;
    with resample_offsets, "micro.chunk_offsets" (key: chunk) draws the
    per-sample offsets (and q) of each SAMPLE_CHUNK-sized chunk.  threads
    > 1 traces the chunks in worker processes; the result is the same for
    any count.

    The base point and the directions come first, and the runtime is
    built from the rays of every chunk, so a Poisson grain stores only
    the cells those rays reach.  A start on a scatterer is the start
    grain's center nearest the anchor, which needs that grain's store
    first: such a run keeps its Poisson grains whole.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = streams.rng("micro.directions", cfg.seed)
    q = rng.uniform(0.0, 1.0, (1, scene.dimension)) if cfg.draws_q else None
    rt = None
    if cfg.on_scatterer:
        rt = MicroRuntime(scene, cfg)
        base = _start_points(rt, 1, q)[0]
    else:
        base = _offset_starts(scene, cfg, 1, q)[0]
    dirs = scattering.sample_direction(rng, scene.dimension, n_samples)
    chunks = [dirs[i:i + SAMPLE_CHUNK] for i in range(0, n_samples,
                                                      SAMPLE_CHUNK)]
    if rt is None:
        poisson = any(m.kind == "poisson" for m in scene.media)
        rt = MicroRuntime(scene, cfg, [
            (_ray_origins(cfg, np.broadcast_to(base, c.shape), c), c)
            for c in chunks] if poisson else None)
    jobs = [(rt, c, base, i) for i, c in enumerate(chunks)]
    if threads > 1 and len(jobs) > 1:
        import multiprocessing
        with multiprocessing.get_context("spawn").Pool(threads) as pool:
            parts = pool.map(_trace_chunk, jobs)
    else:
        parts = [_trace_chunk(job) for job in jobs]
    tau1 = np.concatenate([p[0] for p in parts])
    grains = np.concatenate([p[1] for p in parts])
    w1 = np.concatenate([p[2] for p in parts])
    hit = grains >= 0
    u_imp = np.zeros_like(dirs)
    u_imp[hit] = -scattering.to_frame(w1[hit], dirs[hit])
    exit_w = None
    if cfg.on_scatterer:
        exit_w = scattering.to_frame(cfg.beta(dirs), dirs)[:, 1:]
    return Tau1Sample(cfg.r, rt.epsilon, cfg.seed, tau1, grains, u_imp,
                      dirs, ~hit, exit_w)
