"""Polycrystal limit densities as products over the segment table.

Each member of the family multiplies per-grain survival factors D_Phi over
fully traversed grains with a density factor for the grain containing the
path length xi.  Values vanish off the grain segments; starts on a grain
boundary with inward velocity behave like interior starts (the one-sided
limit of the formulas), and starts outside all grains make the
scatterer-start family identically zero.

family_blocks is the one product, over rows of geometry's segment table:
on one sorted grid shared by every ray, or at one path length per ray
(family_rows, which the phase-point checks below and along_ray read).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
# itinerary: unused, kept for perfbench/tracing.py until ROADMAP item 1
from .geometry import (SceneError, _table_blocks, gap, itinerary,  # noqa: F401
                       segment_table)


class OffGrainStart(SceneError):
    """A scatterer-start survival row whose ray does not start in a grain."""


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
    point must be >= 0 (inf is one).  Yields (rows, values) over blocks of
    TABLE_ROWS rays of the segment table to each row's last grid point.
    values, the first W columns of a fresh rows x grid array, holds the
    rows on the first W grid points, the same W for every block of the
    call, and every row is constant from its last column on: W - 1 is the
    first column at or past the call's last finite exit (0 if no ray meets
    a grain), at most the last one; W is the grid's width on a tiled box,
    whose table runs past its horizon, and for a grid of one point per ray.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all(grid >= 0.0):          # NaN fails too
        raise ValueError("path lengths must be nonnegative")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    per_row = grid.ndim == 2
    params = {k: np.atleast_2d(np.asarray(p, dtype=float))
              for k, p in (("w", w), ("z", z)) if p is not None}
    # factor code of each grain id, looked up by searchsorted in the ids
    kinds = list(dict.fromkeys(m.kind for m in scene.media))
    ids = np.array([g.id for g in scene.grains])
    by_id = np.argsort(ids)
    ids = ids[by_id]
    codes = np.array([2 * kinds.index(m.kind) for m in scene.media],
                     dtype=np.int8)[by_id]
    blocks = _table_blocks(scene, xs, vs, grid[..., -1])
    width = grid.shape[-1]
    if scene.periodic_box is None and not per_row:
        # slices of one table: the call's last exit is known up front
        blocks = list(blocks)
        last = max((np.max(exit_, where=np.isfinite(exit_), initial=0.0)
                    for _, _, exit_, _ in blocks), default=0.0)
        width = min(int(np.searchsorted(grid, last)) + 1, width)
    for rows, entry, exit_, gid in blocks:
        if family == "survival_psi0_marg" and np.any(entry[:, 0] != 0.0):
            raise OffGrainStart("scatterer-start survival needs every ray "
                                "to start in a grain")
        code = np.where(np.isfinite(entry), codes[np.searchsorted(ids, gid)],
                        np.int8(-1))
        block_params = {k: p[rows] for k, p in params.items()}
        # no reference to the block stays here: callers free each block
        # before the next one is built
        yield rows, _full_width(_block_curves(
            scene, kinds, grid[rows] if per_row else grid[:width], family,
            entry, exit_, code, block_params), grid.shape[-1])


def family_rows(scene, xs, vs, xis, family, w=None, z=None):
    """The family at one path length per ray: xis[i] along xs[i] + t vs[i].

    w and z are one row per ray, or one row for all; they must lie in the
    closed unit ball where the family takes them, and are ignored
    elsewhere.  Returns one value per ray.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, 1)
    params = {}
    for key, p in (("w", w), ("z", z)):
        if any(key in spec for spec in _FAMILIES[family] if spec):
            params[key] = np.broadcast_to(_check_ball(scene, p),
                                          (len(xis), scene.dimension - 1))
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


def survival_blocks(scene, xs, vs, grid, z=None):
    """P(path length >= g) at every point g of a sorted grid, one row per
    ray: the (rows, values) blocks of family_blocks of the generic start,
    or, given exit parameters z, of the scatterer-start marginal; values
    are W columns wide, every row constant from its last column on."""
    family = "survival_psi" if z is None else "survival_psi0_marg"
    return family_blocks(scene, xs, vs, grid, family, z=z)


def survival_curves(scene, xs, vs, grid, z=None):
    """survival_blocks as one rows x grid array."""
    family = "survival_psi" if z is None else "survival_psi0_marg"
    return family_curves(scene, xs, vs, grid, family, z=z)


def _full_width(values, m):
    """values in the first columns of a fresh array of m columns.

    Blocks of one full size, allocated after the block's temporaries are
    freed, keep glibc's mmap threshold above every array of a freepath
    repetition: narrower blocks, or a block allocated before its
    temporaries, cost page faults on every block and every sampler call.
    """
    out = np.empty((len(values), m))[:, :values.shape[1]]
    out[...] = values
    return out


def _block_curves(scene, kinds, grid, family, entry, exit_, code, params):
    inner, lead_inner, lead_full = _FAMILIES[family]
    n, nseg = entry.shape
    m = grid.shape[-1]
    valid = np.isfinite(entry)
    ell = np.zeros(entry.shape)
    np.subtract(exit_, entry, out=ell, where=valid)
    # factor code per segment: 2 * kind index, plus 1 on the leading
    # segment of a scatterer start; -1 on the padding
    if lead_full is not None:
        code[:, 0] += valid[:, 0]
    # grid points inside segment (r, k), lo <= col < hi, as one ragged
    # array; pos is the flat index r * m + col of the output.  A grid of
    # one point per row compares each row's segments with its own point.
    if grid.ndim == 1:
        lo = np.searchsorted(grid, entry)
        hi = np.searchsorted(grid, exit_)
    else:
        lo = (grid < entry).astype(int)
        hi = (grid < exit_).astype(int)
    segs = np.flatnonzero(hi > lo)
    count = (hi - lo).ravel()[segs]
    shift = np.cumsum(count) - count - lo.ravel()[segs]
    cols = np.arange(int(count.sum())) - np.repeat(shift, count)
    pos = cols + np.repeat(segs // nseg * m, count)
    u = (grid[cols] if grid.ndim == 1 else grid[pos // m, cols]) \
        - np.repeat(entry.ravel()[segs], count)
    pcode = np.repeat(code.ravel()[segs], count)
    # u turns from in-segment lengths into their factors
    factor = np.ones(entry.shape)
    specs = ((("d_phi",), inner), (lead_full, lead_inner))
    for i, kind in enumerate(kinds):
        kern = K.for_medium(kind, scene.dimension)
        for lead, (full_spec, inner_spec) in enumerate(specs):
            full = code == 2 * i + lead
            if full.any():
                factor[full] = _factor(kern, full_spec, ell[full], params,
                                       np.nonzero(full)[0])
            inside = pcode == 2 * i + lead
            if inside.any():
                u[inside] = _factor(kern, inner_spec, u[inside], params,
                                    pos[inside] // m)
    # grid points in [hi of segment k-1, hi of segment k) have traversed
    # segments 0..k-1 fully: the prefix product before segment k
    prefix = np.ones((n, nseg + 1))
    prefix[:, 1:] = np.cumprod(factor, axis=1)
    edges = np.zeros((n, nseg + 2), dtype=int)
    edges[:, 1:-1] = hi
    edges[:, -1] = m
    surv = np.repeat(prefix.ravel(), np.diff(edges, axis=1).ravel())
    if family.startswith("survival"):
        surv[pos] *= u
        return surv.reshape(n, m)
    out = np.zeros(n * m)
    out[pos] = surv[pos] * u
    out = out.reshape(n, m)
    if lead_full is not None:     # psi0_*: no mass off a grain
        out[entry[:, 0] != 0.0] = 0.0
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


def _check_ball(scene, p):
    """p as rows of the closed unit (d-1)-ball."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape[-1] != scene.dimension - 1:
        raise ValueError(f"parameter must have dimension {scene.dimension - 1}")
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

    @property
    def max_residual(self):
        return max(self.residuals) if self.residuals else 0.0


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


def integrate_psi0_marg_over_w(scene, xs, vs, xis, order=64):
    """The w-integral of psi0_marg at each row (x, v, xi): one family_rows
    call over rows x quadrature nodes."""
    nodes, weights = _ball_quadrature(scene.dimension, order)
    k = len(nodes)
    xis = np.asarray(xis, dtype=float)
    vals = family_rows(scene, np.repeat(xs, k, axis=0),
                       np.repeat(vs, k, axis=0), np.repeat(xis, k),
                       "psi0_marg", w=np.tile(nodes, (len(xis), 1)))
    return vals.reshape(len(xis), k) @ weights


def check_transport_identity(scene, xs, vs, xis, fd_scale=1e-6,
                             quad_order=64):
    """Verify the directional-derivative identity at the phase points
    (xs[i], vs[i], xis[i]).

    At each: the one-sided difference of psi along (x + eps v, xi - eps)
    must equal the w-integral of the scatterer-start marginal.  Points
    within 10 eps of a segment boundary, or off every segment, are skipped
    and counted.  Boundary values psi(x,v,0) = sigma_bar * inside and
    psi_marg(x,v,0,w) = inside are checked exactly.
    """
    xs, vs, xis = (np.asarray(a, dtype=float) for a in (xs, vs, xis))
    eps = fd_scale * (1.0 + xis)
    entry, exit_, _ = segment_table(scene, xs, vs, xis + 1.0)
    xi, tol = xis[:, None], 10 * eps[:, None]
    near = np.any((np.abs(xi - entry) < tol) | (np.abs(xi - exit_) < tol),
                  axis=1)
    keep = ~near & np.any((entry <= xi) & (xi < exit_), axis=1)
    xs, vs, xis, eps = xs[keep], vs[keep], xis[keep], eps[keep]
    d_num = (family_rows(scene, xs + eps[:, None] * vs, vs, xis - eps, "psi")
             - family_rows(scene, xs, vs, xis, "psi")) / eps
    rhs = integrate_psi0_marg_over_w(scene, xs, vs, xis, order=quad_order)
    inside = entry[keep, 0] == 0.0
    zero = np.zeros(len(xis))
    err = np.r_[family_rows(scene, xs, vs, zero, "psi")
                - K.sigma_bar(scene.dimension) * inside,
                family_rows(scene, xs, vs, zero, "psi_marg_w",
                            w=np.zeros(scene.dimension - 1)) - inside]
    return TransportReport(np.abs(d_num - rhs).tolist(),
                           int(np.count_nonzero(~keep)),
                           float(np.max(np.abs(err), initial=0.0)))
