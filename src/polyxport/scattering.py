"""Direction frames, hard-sphere specular maps, the cross section, and the
start offset beta(v) of a microscopic run.

Row-vector convention throughout: the frame K(v) is the rotation with
v K(v) = e_1.  It is applied row by row and never stored: to_frame gives
u K(v) and from_frame its inverse wk K(v)^T, each in O(d) per row, and
to_frame(np.eye(d), v) is the matrix itself.  Impact and exit parameters
live in the open unit (d-1)-ball and are the orthogonal components
(u K(v))_perp of unit sphere points in the frame of the outgoing velocity.
The row maps take K(v) as frame(v), which a collision builds once for its
exit parameter and its deflection.  BetaSpec and the mode tables live here,
where parsing a config finds them without loading microsim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import divide_rows, norm_rows, reduce_cols

GRAZE_TOL = 1e-12

# Base point modes of a microscopic run: anchor + eps q with q uniform on
# [0, 1)^d, or the anchor; and the modes of its start offset beta(v).
Q_MODES = ("random", "zero")
BETA_MODES = ("zero", "radial")


@dataclass(frozen=True)
class BetaSpec:
    """Initial offset r*beta(v) from the base point.

    mode 'zero' starts exactly at the base point.  mode 'radial' starts on
    the unit sphere at angle alpha from v (alpha <= pi/2 keeps the forward
    ray outside the ball, as required for starts on a scatterer).
    """
    mode: str = "zero"
    alpha: float = 0.0

    def __post_init__(self):
        if self.mode not in BETA_MODES:
            raise ValueError(f"unknown beta mode {self.mode!r}")
        if self.mode == "radial" and not 0.0 <= self.alpha <= np.pi / 2:
            raise ValueError("radial beta needs alpha in [0, pi/2]")

    def __call__(self, v):
        """beta for one direction (d,) or for each row of (n, d)."""
        v = np.asarray(v, dtype=float)
        if self.mode == "zero":
            return np.zeros_like(v)
        if v.shape[-1] == 2:
            perp = np.stack([-v[..., 1], v[..., 0]], axis=-1)
        else:
            ref = np.where((np.abs(v[..., 2]) < 0.9)[..., None],
                           [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
            perp = np.cross(v, ref)
            perp = divide_rows(perp, norm_rows(perp))
        return math.cos(self.alpha) * v + math.sin(self.alpha) * perp


def _dot(a, b):
    """Row dots a.b over the last axis, kept as a length-1 axis."""
    # A stack of (1, d) @ (d, 1) products runs on the inner-product kernel
    # of a 1-D `@`, so to_frame(np.eye(d), v) carries the bits of the
    # matrix I - 2 s s^T / (s @ s) + 2 v e_1^T built with that `@`.
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def frame(v):
    """The frame K(v) of rows v, as the maps below take it: (v, s = v + e_1,
    |s|^2 or 1 where v = -e_1, the mask of the rows where v != -e_1, as a
    length-1 axis).  A collision builds it once for both of its maps."""
    v = np.asarray(v, dtype=float)
    s = v + 0.0           # v + e_1 without a broadcast along the rows
    s[..., 0] += 1.0
    ss = _dot(s, s)
    ok = ss >= 1e-18
    return v, s, np.where(ok, ss, 1.0)[..., 0], ok


def _frame_map(u, fr, inverse, perp=False):
    """Rows u K(v), or u K(v)^T if inverse, in the frame fr = frame(v):
    u - 2 (u.s) s / |s|^2 plus 2 (u.v) e_1, or plus 2 u_0 v.  perp keeps
    only the columns after the first, of u K(v)."""
    u = np.asarray(u, dtype=float)
    v, s, den, ok = fr
    d = v.shape[-1]
    us = 2.0 * _dot(u, s)[..., 0]
    lo = 1 if perp else 0
    cols = [u[..., k] - us * s[..., k] / den for k in range(lo, d)]
    if inverse:
        u0 = 2.0 * u[..., 0]
        cols = [c + u0 * v[..., k] for k, c in enumerate(cols)]
    elif not perp:
        cols[0] = cols[0] + 2.0 * _dot(u, v)[..., 0]
    out = np.stack(cols, axis=-1)
    if ok.all():
        return out
    # exactly at v = -e_1, K(v) is the half-turn diag(-1, -1, 1, ...)
    flip = np.ones(u.shape[-1])
    flip[:2] = -1.0
    return np.where(ok, out, (u * flip)[..., lo:])


def to_frame(u, v):
    """Rows u K(v) = u - 2 (u.s) s / |s|^2 + 2 (u.v) e_1, with s = v + e_1.

    K(v) is the rotation in the (v, e_1) plane with v K(v) = e_1, written
    with the denominator |s|^2 = 2 (1 + v_1) as a sum of squares, which
    does not cancel near the excluded direction v = -e_1 (the rows still
    lose about eps / |s| there, as K jumps at -e_1); exactly there
    (|s|^2 < 1e-18) a half-turn is used.  u and v broadcast row by row;
    to_frame(np.eye(d), v) is the matrix K(v) itself.
    """
    return _frame_map(u, frame(v), inverse=False)


def from_frame(wk, v):
    """Rows wk K(v)^T = wk - 2 (wk.s) s / |s|^2 + 2 wk_0 v: the inverse of
    to_frame."""
    return _frame_map(wk, frame(v), inverse=True)


def reflect(v, w):
    """Specular map v -> v - 2 (v.w) w at impact point w; requires v.w < 0."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    vw = float(v @ w)
    if vw >= -GRAZE_TOL:
        raise ValueError("grazing or outgoing hit: need v.w < 0")
    return v - 2.0 * vw * w


def _sphere_point(v_from, v_to):
    """Unit sphere point w with reflect(v_from, w) = v_to."""
    diff = np.asarray(v_to, dtype=float) - np.asarray(v_from, dtype=float)
    n = np.linalg.norm(diff)
    if n <= GRAZE_TOL:
        raise ValueError("no deflection: velocities coincide")
    return diff / n


def impact_param(v, v_plus):
    """Impact parameter b of the collision turning v into v_plus.

    b = (w K(v))_perp where w is the unique impact point with
    reflect(v, w) = v_plus; |b| < 1 and |b| = cos(theta/2) in d=2.
    """
    return to_frame(_sphere_point(v, v_plus), v)[1:]


def exit_param(v, v_prev):
    """Exit parameter s of the previous collision, in the frame of v.

    s = (w' K(v))_perp with w' the sphere point through which the previous
    collision (incoming v_prev, outgoing v) released the particle.
    """
    return to_frame(_sphere_point(v_prev, v), v)[1:]


def deflect_many(vs, bs, fr=None):
    """Outgoing velocities for impact parameters: vs (n,d), bs (n,d-1).

    Reflects each row at its impact point w, with w K(v) = (-sqrt(1-|b|^2), b),
    and returns unit rows (n,d).  fr, given, is frame(vs).
    """
    vs = np.asarray(vs, dtype=float)
    bs = np.atleast_2d(np.asarray(bs, dtype=float))
    bb = reduce_cols(np.add, bs * bs)
    wk = np.concatenate([-np.sqrt(1.0 - bb)[:, None], bs], axis=1)
    w = _frame_map(wk, frame(vs) if fr is None else fr, inverse=True)
    vw = 2.0 * reduce_cols(np.add, vs * w)
    out = np.stack([vs[:, k] - vw * w[:, k] for k in range(vs.shape[1])],
                   axis=1)
    return divide_rows(out, norm_rows(out))


def exit_params_many(vs, v_prevs, fr=None):
    """Vectorized exit_param over rows; fr, given, is frame(vs)."""
    vs = np.asarray(vs, dtype=float)
    diff = vs - np.asarray(v_prevs, dtype=float)
    return _frame_map(divide_rows(diff, norm_rows(diff)),
                      frame(vs) if fr is None else fr, False, perp=True)


def cross_section(v, v_plus, dimension=None):
    """Hard-sphere differential cross section sigma(v, v_plus).

    sigma = 2^(1-d) (|v - v_plus| / 2)^(3-d): the Jacobian of the impact
    parameter map, integrating to sigma_bar over the sphere.
    """
    v = np.asarray(v, dtype=float)
    v_plus = np.asarray(v_plus, dtype=float)
    d = dimension or v.shape[-1]
    half_chord = 0.5 * norm_rows(v - v_plus)
    if np.any(half_chord <= 0):
        raise ValueError("no deflection: velocities coincide")
    return 2.0 ** (1 - d) * half_chord ** (3 - d)


def sample_direction(rng, dimension, n=None):
    """Uniform unit vectors."""
    size = (n, dimension) if n is not None else (dimension,)
    g = rng.normal(size=size)
    return divide_rows(g, norm_rows(g))


def sample_ball(rng, dim, n=None):
    """Uniform points of the open unit ball of dimension dim (1 or 2)."""
    out = np.empty((1 if n is None else n, dim))
    need = np.arange(len(out))
    while len(need):
        cand = rng.uniform(-1.0, 1.0, size=(len(need), dim))
        good = reduce_cols(np.add, cand * cand) < 1.0
        idx = need[good]
        # one column at a time: out[idx] = cand[good] copies row by row
        for k in range(dim):
            out[:, k][idx] = cand[:, k][good]
        need = need[~good]
    return out if n is not None else out[0]
