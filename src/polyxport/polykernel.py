"""Polycrystal limit densities as products over the segment table.

Each member of the family multiplies per-grain survival factors D_Phi over
fully traversed grains with a density factor for the grain containing the
path length xi.  Values vanish off the grain segments; starts on a grain
boundary with inward velocity behave like interior starts (the one-sided
limit of the formulas), and starts outside all grains make the
scatterer-start family identically zero.

family_blocks is the one product, over rows of geometry's segment table:
on one sorted grid shared by every ray, or at one path length per ray
(family_rows, which the phase-point checks below and along_ray read).  It
runs in two steps.  The segment step runs once per segment table (the
whole table of a finite scene, each block's own table of a tiled box): the
factor code, length and grid columns of every segment, its factor when
fully traversed, and the prefix products of those factors.  The point step
runs once per block of TABLE_ROWS rows: it lists the grid points inside
segments ordered by factor code, turns each code's contiguous slice of
in-segment lengths into factors by one KernelModel call, and spreads the
prefix products over the block's rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, kernels as K
# itinerary: unused, kept for perfbench/tracing.py until ROADMAP item 1
from .geometry import (SceneError, _table_blocks, gap, itinerary,  # noqa: F401
                       segment_table)


class OffGrainStart(SceneError):
    """A scatterer-start survival row whose ray does not start in a grain."""


class InfiniteOnTiledBox(ValueError):
    """An infinite path length on a tiled box, whose cells never end."""


# The factors of each family, each a KernelModel method and the names of
# the row parameters it takes after the length: in the segment that holds
# the grid point; the same on the leading segment of a scatterer start;
# and on a fully traversed leading segment (None: the family has no
# leading segment).  Every other traversed segment gives D_Phi(length).
_FAMILIES = {
    "survival_psi": (("d_phi",), None, None),
    "survival_psi0_marg": (("d_phi",), ("phi_marg", "z"), ("phi_marg", "z")),
    "psi": (("phi",), None, None),
    "psi_marg_w": (("phi_marg", "w"), None, None),
    "psi0_marg": (("phi",), ("phi0_marg", "w"), ("phi_marg", "w")),
    "psi0_full": (("phi_marg", "w"), ("phi0", "w", "z"), ("phi_marg", "z")),
}


def family_blocks(scene, xs, vs, grid, family, w=None, z=None):
    """A family of _FAMILIES at every point g of a sorted grid, one row per
    ray x + t v, with one parameter row of w and z per ray; or, given a
    rows x 1 grid, at one point per ray.

    The factors of the segments that g has fully traversed multiply in
    segment order, then the factor in the segment holding g.  A density is
    0 off the segments, and on a scatterer-start row (psi0_*) whose ray
    does not start in a grain; a survival function carries the product on
    past the segments, and raises OffGrainStart on such a row.  Every grid
    point must be >= 0 (inf is one on a finite scene; a tiled box raises
    InfiniteOnTiledBox).  Yields (rows, values) over blocks of TABLE_ROWS
    rays of the segment table to each row's last grid point.  values, a
    fresh rows x W array, holds the rows on the first W grid points, the
    same W for every block of the call, and every row is constant from its
    last column on: W - 1 is the first column at or past the call's last
    finite exit (0 if no ray meets a grain), at most the last one; W is the
    grid's width on a tiled box, whose table runs past its horizon, and for
    a grid of one point per ray.

    The segment step (_Segments) runs once per segment table: the whole
    table of a finite scene, each block's own table of a tiled box.  The
    point step (_Segments.block) runs once per block and calls each
    factor's KernelModel method once, on the contiguous slice of the
    block's in-segment lengths that has its factor code.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all(grid >= 0.0):          # NaN fails too
        raise ValueError("path lengths must be nonnegative")
    if scene.periodic_box is not None and not np.all(np.isfinite(grid)):
        raise InfiniteOnTiledBox("path lengths on a tiled box must be "
                                 "finite")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    per_row = grid.ndim == 2
    params = {k: np.atleast_2d(np.asarray(p, dtype=float))
              for k, p in (("w", w), ("z", z)) if p is not None}
    inner, lead_inner, lead_full = _FAMILIES[family]
    # factor code 2 * kind index + lead: the KernelModel of the kind, its
    # factor on a full segment and at a point inside one
    kinds = list(dict.fromkeys(m.kind for m in scene.media))
    specs = [(K.KernelModel(kind, scene.dimension), full, inside)
             for kind in kinds
             for full, inside in ((("d_phi",), inner),
                                  (lead_full, lead_inner))]
    # 2 * kind index of each grain id, looked up by searchsorted in the ids
    ids = np.array([g.id for g in scene.grains])
    by_id = np.argsort(ids)
    ids = ids[by_id]
    codes = np.array([2 * kinds.index(m.kind) for m in scene.media],
                     dtype=np.int8)[by_id]
    step = geometry.TABLE_ROWS
    width = grid.shape[-1]
    if scene.periodic_box is None:
        # one table: the call's last exit is known up front
        tables = [(slice(0, len(xs)),) + segment_table(scene, xs, vs, None)]
        if not per_row:
            exit_ = tables[0][2]
            last = np.max(exit_, where=np.isfinite(exit_), initial=0.0)
            width = min(int(np.searchsorted(grid, last)) + 1, width)
    else:
        tables = _table_blocks(scene, xs, vs, grid[..., -1])
    # the grid repeated over the rows of a block, read at output positions
    repeated = None if per_row else np.tile(grid[:width],
                                            min(len(xs), step))
    for rows, entry, exit_, gid in tables:
        if family == "survival_psi0_marg" and np.any(entry[:, 0] != 0.0):
            raise OffGrainStart("scatterer-start survival needs every ray "
                                "to start in a grain")
        code = np.where(np.isfinite(entry), codes[np.searchsorted(ids, gid)],
                        np.int8(-1))
        table = _Segments(family, specs, entry, exit_, code,
                          grid[rows] if per_row else grid[:width],
                          {k: p[rows] for k, p in params.items()}, step)
        for i, start in enumerate(range(0, len(entry), step)):
            block = slice(start, min(start + step, len(entry)))
            yield (slice(rows.start + block.start, rows.start + block.stop),
                   table.block(i, block, repeated))


def family_rows(scene, xs, vs, xis, family, w=None, z=None):
    """The family at one path length per ray: xis[i] along xs[i] + t vs[i].

    w and z are one row per ray, or one row for all; they must lie in the
    closed unit ball where the family takes them, and are ignored
    elsewhere.  Returns one value per ray.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, 1)
    d, takes = scene.dimension, family_params(family)
    params = {key: np.broadcast_to(check_ball(p, d), (len(xis), d - 1))
              for key, p in (("w", w), ("z", z)) if key in takes}
    out = np.empty(len(xis))
    for rows, values in family_blocks(scene, xs, vs, xis, family, **params):
        out[rows] = values[:, 0]
    return out


def family_curves(scene, xs, vs, grid, family, w=None, z=None):
    """family_blocks as one rows x grid array."""
    values = np.concatenate([c for _, c in family_blocks(
        scene, xs, vs, grid, family, w, z)])
    return np.pad(values, ((0, 0), (0, len(grid) - values.shape[1])),
                  mode="edge")


class _Segments:
    """The segment step of family_blocks on one segment table, whose rows
    are cut into blocks of `step` rows; code is each segment's 2 * kind
    index (-1 on the padding).

    The segments that hold grid points are listed by block, then by factor
    code (code, plus 1 on the leading segment of a scatterer start), and
    their points follow in the same order; cut[i * len(specs) + c] is where
    factor code c of block i starts.  Per listed segment: row, count of
    points, first (list index of its first point), offset (flat position
    in the table's values minus list index, for each of its points), entry,
    and seg_prefix, the product of the full factors before it.  prefix[r,
    k] is that product before segment k of row r, over the runs[r, k] grid
    columns that have traversed exactly segments 0..k-1.
    """

    def __init__(self, family, specs, entry, exit_, code, grid, params,
                 step):
        lead_full = _FAMILIES[family][2]
        self.specs, self.params, self.grid = specs, params, grid
        self.survival = family.startswith("survival")
        # psi0_*: no mass off a grain
        self.off = (entry[:, 0] != 0.0 if lead_full is not None
                    and not self.survival else None)
        n, nseg = entry.shape
        valid = np.isfinite(entry)
        ell = np.zeros(entry.shape)
        np.subtract(exit_, entry, out=ell, where=valid)
        if lead_full is not None:
            code[:, 0] += valid[:, 0]
        # grid points inside segment (r, k): lo <= col < hi.  A grid of one
        # point per row compares each row's segments with its own point.
        m = grid.shape[-1]
        if grid.ndim == 1:
            lo = np.searchsorted(grid, entry)
            hi = np.searchsorted(grid, exit_)
        else:
            lo = (grid < entry).astype(int)
            hi = (grid < exit_).astype(int)
        factor = np.ones(entry.shape)
        for c, (kern, spec, _) in enumerate(specs):
            full = code == c
            if full.any():
                rows = np.nonzero(full)[0] if len(spec) > 1 else None
                factor[full] = _factor(kern, spec, ell[full], params, rows)
        # grid points in [hi of segment k-1, hi of segment k) have traversed
        # segments 0..k-1 fully: the prefix product before segment k
        self.prefix = np.ones((n, nseg + 1))
        self.prefix[:, 1:] = np.cumprod(factor, axis=1)
        self.runs = np.empty((n, nseg + 1), dtype=hi.dtype)
        self.runs[:, :-1] = hi
        self.runs[:, -1] = m
        self.runs[:, 1:] -= hi
        # the segments that hold grid points, by block and factor code
        segs = np.flatnonzero(hi > lo)
        row = segs // nseg
        key = row // step * len(specs) + code.ravel()[segs]
        order = np.argsort(key)
        segs, self.row = segs[order], row[order]
        blocks = -(-n // step)
        self.cut = np.searchsorted(key[order],
                                   np.arange(blocks * len(specs) + 1))
        self.count = (hi - lo).ravel()[segs]
        self.first = np.concatenate(([0], np.cumsum(self.count)))
        # point j of segment (r, k) is grid column lo + j, at the flat
        # position r * m + lo + j of the table's values
        self.offset = self.row * m + lo.ravel()[segs] - self.first[:-1]
        self.entry = entry.ravel()[segs]
        self.seg_prefix = self.prefix.ravel()[segs + self.row]

    def block(self, i, b, repeated):
        """The point step: the values of block i, rows b, as a rows x m
        array, given the grid repeated over the rows of a block (None for
        one point per row)."""
        m = self.grid.shape[-1]
        nc = len(self.specs)
        cut = self.cut[i * nc:(i + 1) * nc + 1]
        s = slice(cut[0], cut[-1])
        count = self.count[s]
        q0 = self.first[cut[0]]
        # the block's points in list order: flat positions pos in the
        # block's values, in-segment lengths u
        pos = np.repeat(self.offset[s] - b.start * m, count)
        pos += np.arange(q0, self.first[cut[-1]])
        u = np.take(self.grid[b, 0] if repeated is None else repeated, pos)
        u -= np.repeat(self.entry[s], count)
        # u turns into the factors, one contiguous slice per factor code
        for c, (kern, _, spec) in enumerate(self.specs):
            if cut[c] < cut[c + 1]:
                p = slice(self.first[cut[c]] - q0, self.first[cut[c + 1]] - q0)
                rows = (np.repeat(self.row[cut[c]:cut[c + 1]],
                                  self.count[cut[c]:cut[c + 1]])
                        if len(spec) > 1 else None)
                u[p] = _factor(kern, spec, u[p], self.params, rows)
        u *= np.repeat(self.seg_prefix[s], count)
        if self.survival:
            out = np.repeat(self.prefix[b].ravel(), self.runs[b].ravel())
        else:
            out = np.zeros((b.stop - b.start) * m)
        out[pos] = u
        out = out.reshape(-1, m)
        if self.off is not None:
            out[self.off[b]] = 0.0
        return out


def _factor(kern, spec, lengths, params, rows):
    """Method spec[0] of kern at lengths, with parameters spec[1:] of rows."""
    name, *keys = spec
    return getattr(kern, name)(lengths, *(params[k][rows] for k in keys))


def along_ray(scene, family, x, v, xis, w=None, z=None):
    """The family at the path lengths xis, in any order, along the one ray
    x + t v: family_rows over copies of the ray."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    shape = (len(xis),) + np.shape(x)
    return family_rows(scene, np.broadcast_to(x, shape),
                       np.broadcast_to(v, shape), xis, family, w, z)


def family_params(family):
    """The row parameters, of "w" and "z", that a family takes."""
    return [key for key in "wz"
            if any(key in spec for spec in _FAMILIES[family] if spec)]


def check_ball(p, dimension):
    """p as rows of the closed unit (d-1)-ball, up to 1e-12; else a
    ValueError."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape[-1] != dimension - 1:
        raise ValueError(f"parameter must have dimension {dimension - 1}")
    if not np.all(np.einsum("ij,ij->i", p, p) <= 1.0 + 1e-12):  # NaN too
        raise ValueError("parameter outside the closed unit ball")
    return p


def survival_psi(scene, x, v, t):
    """P(path length >= t) along one ray: one row of family_rows.  Kept
    for perfbench/tracing.py until ROADMAP item 1."""
    return float(family_rows(scene, [x], [v], [t], "survival_psi")[0])


# ---------------------------------------------------------------------------
# tail bound with the gap function
# ---------------------------------------------------------------------------

def tail_rate(scene):
    """Decay rate gamma = min(sigma_bar/2, zeta(d)/(2 max diameter))."""
    sb = K.sigma_bar(scene.dimension)
    ell = scene.max_diameter_bound()
    return min(0.5 * sb, 0.5 * K.zeta(scene.dimension) / ell)


def tail_prefactor(scene):
    """Envelope constant C with every family value <= C e^{-gamma(xi-gap)}.

    Follows from D_Phi(l) <= e^{-gamma l} per traversed grain: at most the
    first and the current grain are missing from the product, each
    contributing at most e^{gamma l_max}, and every density factor is at
    most sigma_bar.
    """
    sb = K.sigma_bar(scene.dimension)
    return sb * float(np.exp(2.0 * tail_rate(scene) * scene.max_diameter_bound()))


def psi_tail_bound(scene, xs, vs, xis):
    """C exp(-gamma (xi - gap(x, v, xi))) dominating the whole family, one
    value per row (x, v, xi)."""
    return tail_prefactor(scene) * np.exp(
        -tail_rate(scene) * (xis - gap(scene, xs, vs, xis)))


# ---------------------------------------------------------------------------
# disordered closed forms
# ---------------------------------------------------------------------------

def poisson_psi(scene, xs, vs, xis):
    """Gap-discounted exponential forms of a fully disordered scene.

    Returns a dict with the four family members, one value per row
    (x, v, xi); none of them depends on the parameters w and z.  A start
    counts as in a grain when its ray's first segment starts at 0.
    """
    if any(m.kind != "poisson" for m in scene.media):
        raise ValueError("poisson_psi needs an all-poisson scene")
    sb = K.sigma_bar(scene.dimension)
    xs, vs, xis = (np.asarray(a, dtype=float) for a in (xs, vs, xis))
    decay = np.exp(-sb * (xis - gap(scene, xs, vs, xis)))
    here, there = (segment_table(scene, p, vs, 0.0)[0][:, 0] == 0.0
                   for p in (xs, xs + xis[:, None] * vs))
    return {
        "psi": sb * decay * there,
        "psi_marg_w": decay * there,
        "psi0_marg": sb * decay * here * there,
        "psi0_full": decay * here * there,
    }


# ---------------------------------------------------------------------------
# transport identity check
# ---------------------------------------------------------------------------

@dataclass
class TransportReport:
    residuals: list
    skipped: int
    boundary_max_err: float


def _ball_quadrature(dimension, order=64):
    """Gauss-Legendre nodes/weights on the unit (d-1)-ball."""
    x, wts = np.polynomial.legendre.leggauss(order)
    if dimension == 2:
        return x[:, None], wts
    rad = 0.5 * (x + 1.0)
    rw = wts * 0.5 * rad
    ang = np.linspace(0.0, 2.0 * np.pi, 2 * order, endpoint=False)
    aw = 2.0 * np.pi / (2 * order)
    nodes = np.stack([np.outer(rad, np.cos(ang)).ravel(),
                      np.outer(rad, np.sin(ang)).ravel()], axis=1)
    weights = np.outer(rw, np.full(ang.size, aw)).ravel()
    return nodes, weights


def integrate_psi0_marg_over_w(scene, xs, vs, xis):
    """The w-integral of psi0_marg at each row (x, v, xi): one family_rows
    call over rows x quadrature nodes."""
    nodes, weights = _ball_quadrature(scene.dimension)
    k = len(nodes)
    xis = np.asarray(xis, dtype=float)
    vals = family_rows(scene, np.repeat(xs, k, axis=0),
                       np.repeat(vs, k, axis=0), np.repeat(xis, k),
                       "psi0_marg", w=np.tile(nodes, (len(xis), 1)))
    return vals.reshape(len(xis), k) @ weights


def check_transport_identity(scene, xs, vs, xis):
    """Verify the directional-derivative identity at the phase points
    (xs[i], vs[i], xis[i]).

    At each: the one-sided difference of psi along (x + eps v, xi - eps)
    must equal the w-integral of the scatterer-start marginal.  Points
    within 10 eps of a segment boundary, or off every segment, are skipped
    and counted.  Boundary values psi(x,v,0) = sigma_bar * inside and
    psi_marg(x,v,0,w) = inside are checked exactly.
    """
    xs, vs, xis = (np.asarray(a, dtype=float) for a in (xs, vs, xis))
    eps = 1e-6 * (1.0 + xis)
    entry, exit_, _ = segment_table(scene, xs, vs, xis + 1.0)
    xi, tol = xis[:, None], 10 * eps[:, None]
    near = np.any((np.abs(xi - entry) < tol) | (np.abs(xi - exit_) < tol),
                  axis=1)
    keep = ~near & np.any((entry <= xi) & (xi < exit_), axis=1)
    xs, vs, xis, eps = xs[keep], vs[keep], xis[keep], eps[keep]
    d_num = (family_rows(scene, xs + eps[:, None] * vs, vs, xis - eps, "psi")
             - family_rows(scene, xs, vs, xis, "psi")) / eps
    rhs = integrate_psi0_marg_over_w(scene, xs, vs, xis)
    inside = entry[keep, 0] == 0.0
    zero = np.zeros(len(xis))
    err = np.r_[family_rows(scene, xs, vs, zero, "psi")
                - K.sigma_bar(scene.dimension) * inside,
                family_rows(scene, xs, vs, zero, "psi_marg_w",
                            w=np.zeros(scene.dimension - 1)) - inside]
    return TransportReport(np.abs(d_num - rhs).tolist(),
                           int(np.count_nonzero(~keep)),
                           float(np.max(np.abs(err), initial=0.0)))
