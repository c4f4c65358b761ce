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


@dataclass(frozen=True)
class CollisionEvent:
    time: float
    center: np.ndarray
    w1: np.ndarray            # unit impact point, hit = center + r w1
    grain_id: int
    v_in: np.ndarray
    v_out: np.ndarray


class PointGrid:
    """Fixed point set hashed into uniform cells, stored sorted by cell.

    It holds 8 bytes per point besides the points: the sorted int64 keys
    cell << b | index, with 2^b >= n and cell the row-major index of the
    point's cell in the box of cells the points occupy.  A cell's points
    are one run of keys, found by `searchsorted`; nothing is stored per
    cell, so the box may span far more cells than there are points.  The
    keys must stay below 2^63: ncells * 2^b > 2^63, or ncells > 2^53,
    raises ValueError.  The build takes each axis's cell range from the
    column's min and max (flooring is monotone) and fills the keys
    GRID_CHUNK rows at a time, each cell index a float sum that is exact
    as every partial sum is an integer below ncells; it sorts them in
    place, so it allocates nothing per point but the keys.
    """

    def __init__(self, points, cell_size):
        self.points = np.asarray(points, dtype=float)
        self.cell = float(cell_size)
        n, d = self.points.shape
        cols = [self.points[:, k] for k in range(d)]
        if n:
            lo = np.array([np.floor(c.min() / self.cell) for c in cols])
            shape = np.array([np.floor(c.max() / self.cell)
                              for c in cols]) - lo + 1
        else:
            lo = shape = np.zeros(d)
        self._lo, self._shape = lo.astype(np.int64), shape.astype(np.int64)
        self._strides = np.r_[np.cumprod(self._shape[:0:-1])[::-1], 1]
        ncells = math.prod(int(s) for s in self._shape)
        self._bits = max(n - 1, 0).bit_length()
        if ncells > 2 ** 53 or ncells << self._bits > 2 ** 63:
            raise ValueError(f"{ncells} cells x {n} points overflow the "
                             "int64 sort key")
        self._keys = np.empty(n, dtype=np.int64)
        for a in range(0, n, GRID_CHUNK):
            lin = 0.0
            for k, c in enumerate(cols):
                rel = np.floor(c[a:a + GRID_CHUNK] / self.cell) - lo[k]
                lin = lin + rel * self._strides[k]
            self._keys[a:a + len(lin)] = lin.astype(np.int64) << self._bits \
                | np.arange(a, a + len(lin))
        self._keys.sort()

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
        rel = cells - self._lo
        inside = np.ones(len(rel), dtype=bool)
        for axis in range(rel.shape[1]):
            inside &= (rel[:, axis] >= 0) & (rel[:, axis] < self._shape[axis])
        # outside cells drop here, empty cells (an empty run) in the expansion
        rows, lin = rows[inside], rel[inside] @ self._strides
        # each cell's run, looked up in ascending cell order
        mask, order = (1 << self._bits) - 1, np.argsort(lin)
        first = lin[order] << self._bits
        start, stop = np.empty_like(lin), np.empty_like(lin)
        start[order] = np.searchsorted(self._keys, first)
        stop[order] = np.searchsorted(self._keys, first | mask, side="right")
        owner, rank = repeat_with_rank(np.arange(len(lin)), stop - start)
        return rows[owner], self._keys[start[owner] + rank] & mask

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
    """Fixed unit-intensity Poisson set, scaled by eps and cut to the grain.

    The draws are scaled in place, and returned as they are when every one
    lies inside the grain (a box grain keeps them all).
    """
    verts = grain.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    vol = float(np.prod(hi - lo))
    n = rng.poisson(vol / epsilon ** grain.dimension)
    # rng.uniform(lo, hi, ...)'s doubles at a third of its cost
    pts = rng.random((n, grain.dimension))
    for k, (a, b) in enumerate(zip(lo, hi)):
        pts[:, k] *= b - a
        pts[:, k] += a
    keep = grain.contains_rows(pts)
    return pts if keep.all() else pts[keep]


class MicroRuntime:
    """Scene + radius bound to concrete scatterer sets for one run.

    Per grain it holds the scatterer store (a ScaledGrainLattice, which
    caches M^-1 and its norm, or a PointGrid) and the grain inflated by r,
    whose clip window holds every hit on that grain's balls.
    """

    def __init__(self, scene, cfg):
        if scene.periodic_box is not None:
            raise SceneError("microscopic runs need a finite scene")
        self.scene = scene
        self.cfg = cfg
        self.r = cfg.r
        self.epsilon = epsilon_for(cfg.r, scene.dimension)
        self._media = {}
        for g, m in zip(scene.grains, scene.media):
            if m.kind == "crystal":
                if m.mode == "random-offset":
                    rng = streams.rng("micro.grain_offset", cfg.seed, g.id)
                    lat = m.lattice.with_omega(rng.uniform(0.0, 1.0, scene.dimension))
                    sgl = ScaledGrainLattice(lat, self.epsilon,
                                             np.zeros(scene.dimension))
                else:
                    sgl = ScaledGrainLattice(m.lattice, self.epsilon, scene.anchor)
                self._media[g.id] = ("crystal", sgl)
            else:
                rng = streams.rng("micro.poisson_points", cfg.seed, g.id)
                pts = poisson_realization(g, self.epsilon, rng)
                cell = max(self.epsilon, 4.0 * self.r)
                self._media[g.id] = ("poisson", PointGrid(pts, cell))
        self._inflated = [dataclasses.replace(g, offsets=g.offsets + self.r,
                                              vertices=None)
                          for g in scene.grains]
        allv = np.vstack([g.vertices for g in scene.grains])
        self.scene_diameter = float(np.linalg.norm(allv.max(0) - allv.min(0)))
        self.cutoff = CUTOFF_FACTOR * self.scene_diameter
        if cfg.resample_offsets:
            bad = [g.id for g, m in zip(scene.grains, scene.media)
                   if m.kind != "crystal" or m.mode != "random-offset"]
            if bad:
                raise SceneError("per-sample offsets need random-offset "
                                 f"crystal media everywhere (grains {bad})")

    @property
    def _draws_q(self):
        return self.cfg.q_mode == "random" and not self.cfg.on_scatterer

    def resample_media(self, rng, n):
        """Fresh lattice offsets for n annealed samples, in one draw.

        Row i holds sample i's uniforms in the order a per-sample loop
        draws them: each grain's omega in scene order, then the start
        point's q when it is random.  Returns omegas (n, G, d) and q
        (n, d), or None when q is not drawn.
        """
        d, G = self.scene.dimension, len(self.scene.grains)
        u = rng.uniform(0.0, 1.0, (n, G * d + (d if self._draws_q else 0)))
        return u[:, :G * d].reshape(n, G, d), (u[:, G * d:]
                                               if self._draws_q else None)

    def scatterers(self, grain_id, omega=None):
        """Every scatterer center of the grain (omega overrides a crystal's)."""
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
        radius = self.r * (1.0 + 1e-12)
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
        radius = self.r * (1.0 + 1e-12)
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
        radius = self.r * (1.0 + 1e-12)
        if kind == "poisson":
            return store.cover_bound(p0, p1, radius)
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
    for j, (grain, inflated) in enumerate(zip(runtime.scene.grains,
                                              runtime._inflated)):
        t0, t1, ok = clip_grain_rows(inflated, xs, vs)
        t1 = np.minimum(t1, cutoff + 2.0 * r)
        rows = np.flatnonzero(ok & (t0 <= cutoff) & (t1 > t0))
        if not len(rows):
            continue
        p0 = xs[rows] + t0[rows, None] * vs[rows]
        p1 = xs[rows] + t1[rows, None] * vs[rows]
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
    x = np.broadcast_to(scene.anchor, (n, scene.dimension))
    if not cfg.on_scatterer:
        if cfg.q_mode == "zero":
            return x.copy()
        return x + runtime.epsilon * q
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
    hits = first_collisions(rt, starts + cfg.r * cfg.beta(dirs), dirs,
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
    """
    rt = MicroRuntime(scene, cfg)
    rng = streams.rng("micro.directions", cfg.seed)
    q = rng.uniform(0.0, 1.0, (1, scene.dimension)) if rt._draws_q else None
    base = _start_points(rt, 1, q)[0]
    dirs = scattering.sample_direction(rng, scene.dimension, n_samples)
    jobs = [(rt, dirs[i:i + SAMPLE_CHUNK], base, i // SAMPLE_CHUNK)
            for i in range(0, n_samples, SAMPLE_CHUNK)]
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
