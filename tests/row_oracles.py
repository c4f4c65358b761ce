"""The rows x d hot paths written with NumPy's `axis=` reductions and
broadcasts along the short last axis, and with row-by-row fancy-index
copies: the test oracles of polyxport.geometry.cell_clock, clip_grain_rows
and TiledBoxWalker, and of polyxport.scattering.to_frame, from_frame,
deflect_many and sample_ball, whose whole-column forms must reproduce their
bits."""
import numpy as np

from polyxport.geometry import REL_TOL
from polyxport.lattice import reduce_cols


def cell_clock(box, xs, vs):
    """(tnext, delta) of rays x + t v through a tiled box, rows x axes."""
    size = box.size
    pos = xs - box.lo
    cell = np.floor(pos / size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up = ((cell + 1.0) * size - pos) / vs
        dn = (cell * size - pos) / vs
        delta = np.where(vs != 0.0, size / np.abs(vs), np.inf)
    tnext = np.where(vs > 0, up, np.where(vs < 0, dn, np.inf))
    return np.where(tnext > 0.0, tnext, delta), delta


def clip_grain_rows(grain, xs, vs):
    """Entry/exit/valid arrays of rays clipped against a grain."""
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


class TiledBoxWalker:
    """Cell-by-cell walk of a periodic scene, one argmin and min per row."""

    def __init__(self, scene, xs, vs):
        self.tnext, self.delta = cell_clock(scene.periodic_box, xs, vs)
        self.t_entry = np.zeros(len(xs))
        self.t_exit = self.tnext.min(axis=1)

    def advance(self, rows):
        amin = np.argmin(self.tnext[rows], axis=1)
        self.t_entry[rows] = self.t_exit[rows]
        self.tnext[rows, amin] += self.delta[rows, amin]
        self.t_exit[rows] = self.tnext[rows].min(axis=1)


def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def frame_map(u, v, inverse):
    """Rows u K(v), or u K(v)^T if inverse, with (n, 1) x (n, d)
    broadcasts."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    e1 = np.zeros(v.shape[-1])
    e1[0] = 1.0
    s = v + e1
    ss = _dot(s, s)
    ok = ss >= 1e-18
    out = u - 2.0 * _dot(u, s) * s / np.where(ok, ss, 1.0)
    if inverse:
        out += 2.0 * u[..., :1] * v
    else:
        out[..., 0] += 2.0 * _dot(u, v)[..., 0]
    if ok.all():
        return out
    flip = np.ones(u.shape[-1])
    flip[:2] = -1.0
    return np.where(ok, out, u * flip)


def deflect_many(vs, bs):
    """Outgoing velocities for impact parameters, rows (n, d)."""
    vs = np.asarray(vs, dtype=float)
    bs = np.atleast_2d(np.asarray(bs, dtype=float))
    bb = np.sum(bs * bs, axis=1)
    wk = np.concatenate([-np.sqrt(1.0 - bb)[:, None], bs], axis=1)
    w = frame_map(wk, vs, inverse=True)
    vw = np.sum(vs * w, axis=1)
    out = vs - 2.0 * vw[:, None] * w
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def sample_ball(rng, dim, n=None):
    """Uniform points of the open unit ball, accepted rows copied as rows."""
    shape = (n, dim) if n is not None else (1, dim)
    out = np.empty(shape)
    need = np.ones(shape[0], dtype=bool)
    while need.any():
        cand = rng.uniform(-1.0, 1.0, size=(int(need.sum()), dim))
        good = reduce_cols(np.add, cand * cand) < 1.0
        idx = np.flatnonzero(need)[good]
        out[idx] = cand[good]
        need[idx] = False
    return out if n is not None else out[0]

