"""Direction frames, hard-sphere specular maps, and the cross section.

Row-vector convention throughout: the frame K(v) is a rotation matrix with
v K(v) = e_1, applied as ``u @ K``.  Impact and exit parameters live in the
open unit (d-1)-ball and are the orthogonal components (u K(v))_perp of
unit sphere points in the frame of the outgoing velocity.
"""
from __future__ import annotations

import numpy as np

GRAZE_TOL = 1e-12


def frame_matrix(v):
    """Rotation K with v K = e_1, continuous except at v = -e_1.

    Rotation in the (v, e_1) plane written with the subtraction-free
    denominator |v + e_1|^2 / 2 = 1 + v_1, so it stays accurate arbitrarily
    close to the excluded direction; exactly there a half-turn is used.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    e1 = np.zeros(d)
    e1[0] = 1.0
    s = v + e1
    ss = float(s @ s)
    if ss < 1e-18:
        K = np.eye(d)
        K[0, 0] = -1.0
        K[1, 1] = -1.0
        return K
    K = np.eye(d) - 2.0 * np.outer(s, s) / ss + 2.0 * np.outer(v, e1)
    return K


def frame_matrices(vs):
    """Vectorized frame_matrix over rows of vs, shape (n, d) -> (n, d, d)."""
    vs = np.asarray(vs, dtype=float)
    n, d = vs.shape
    e1 = np.zeros(d)
    e1[0] = 1.0
    s = vs + e1
    ss = np.sum(s * s, axis=1)
    ok = ss >= 1e-18
    denom = np.where(ok, ss, 1.0)
    K = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    K -= 2.0 * s[:, :, None] * s[:, None, :] / denom[:, None, None]
    K += 2.0 * vs[:, :, None] * e1[None, None, :]
    if not ok.all():
        fb = np.eye(d)
        fb[0, 0] = fb[1, 1] = -1.0
        K[~ok] = fb
    return K


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
    w = _sphere_point(v, v_plus)
    return (w @ frame_matrix(v))[1:]


def exit_param(v, v_prev):
    """Exit parameter s of the previous collision, in the frame of v.

    s = (w' K(v))_perp with w' the sphere point through which the previous
    collision (incoming v_prev, outgoing v) released the particle.
    """
    w = _sphere_point(v_prev, v)
    return (w @ frame_matrix(v))[1:]


def impact_point_from_param(v, b):
    """Invert b -> impact point: w K(v) = (-sqrt(1-|b|^2), b)."""
    v = np.asarray(v, dtype=float)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    bb = float(b @ b)
    if bb >= 1.0:
        raise ValueError("impact parameter must lie in the open unit ball")
    wk = np.concatenate(([-np.sqrt(1.0 - bb)], b))
    return wk @ frame_matrix(v).T


def deflect(v, b):
    """Outgoing velocity for impact parameter b: reflect at w(b)."""
    return reflect(v, impact_point_from_param(v, b))


def deflect_many(vs, bs):
    """Vectorized deflect: vs (n,d), bs (n,d-1) -> unit rows (n,d)."""
    vs = np.asarray(vs, dtype=float)
    bs = np.atleast_2d(np.asarray(bs, dtype=float))
    bb = np.sum(bs * bs, axis=1)
    wk = np.concatenate([-np.sqrt(1.0 - bb)[:, None], bs], axis=1)
    K = frame_matrices(vs)
    w = np.einsum("nj,nij->ni", wk, K)      # w = wk @ K^T per row
    vw = np.sum(vs * w, axis=1)
    out = vs - 2.0 * vw[:, None] * w
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def exit_params_many(vs, v_prevs):
    """Vectorized exit_param over rows."""
    vs = np.asarray(vs, dtype=float)
    diff = vs - np.asarray(v_prevs, dtype=float)
    n = np.linalg.norm(diff, axis=1, keepdims=True)
    w = diff / n
    K = frame_matrices(vs)
    wk = np.einsum("ni,nij->nj", w, K)
    return wk[:, 1:]


def cross_section(v, v_plus, dimension=None):
    """Hard-sphere differential cross section sigma(v, v_plus).

    sigma = 2^(1-d) (|v - v_plus| / 2)^(3-d): the Jacobian of the impact
    parameter map, integrating to sigma_bar over the sphere.
    """
    v = np.asarray(v, dtype=float)
    v_plus = np.asarray(v_plus, dtype=float)
    d = dimension or v.shape[-1]
    half_chord = 0.5 * np.linalg.norm(v - v_plus, axis=-1)
    if np.any(half_chord <= 0):
        raise ValueError("no deflection: velocities coincide")
    return 2.0 ** (1 - d) * half_chord ** (3 - d)


def sample_direction(rng, dimension, n=None):
    """Uniform unit vectors."""
    size = (n, dimension) if n is not None else (dimension,)
    g = rng.normal(size=size)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def sample_ball(rng, dim, n=None):
    """Uniform points of the open unit ball of dimension dim (1 or 2)."""
    shape = (n, dim) if n is not None else (1, dim)
    out = np.empty(shape)
    need = np.ones(shape[0], dtype=bool)
    while need.any():
        cand = rng.uniform(-1.0, 1.0, size=(int(need.sum()), dim))
        good = np.sum(cand * cand, axis=1) < 1.0
        idx = np.flatnonzero(need)[good]
        out[idx] = cand[good]
        need[idx] = False
    return out if n is not None else out[0]
