"""Polycrystal limit densities as itinerary products.

Each member of the family multiplies per-grain survival factors D_Phi over
fully traversed grains with a density factor for the grain containing the
path length xi.  Values vanish off the grain segments; starts on a grain
boundary with inward velocity behave like interior starts (the one-sided
limit of the formulas), and starts outside all grains make the
scatterer-start family identically zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .geometry import gap, inside_indicator, itinerary

_HORIZON_PAD = 1e-9


def kernel_for_grain(scene, grain_id):
    return K.for_medium(scene.medium_by_id(grain_id), scene.dimension)


def _segments_upto(scene, x, v, xi):
    return itinerary(scene, x, v, xi * (1.0 + _HORIZON_PAD) + _HORIZON_PAD)


def _locate(segs, xi):
    """Index of the segment with entry <= xi < exit, else None."""
    idx = None
    for i, s in enumerate(segs):
        if s.entry <= xi:
            idx = i
        else:
            break
    if idx is not None and xi < segs[idx].exit:
        return idx
    return None


def _product_before(scene, segs, n):
    out = 1.0
    for s in segs[:n]:
        out *= kernel_for_grain(scene, s.grain_id).d_phi(s.sejour)
    return out


def psi(scene, x, v, xi):
    """Free path density for a generic start (product form)."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    segs = _segments_upto(scene, x, v, xi)
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    return _product_before(scene, segs, nu) * float(kern.phi(xi - segs[nu].entry))


def psi_marg_w(scene, x, v, xi, w):
    """Joint path/impact density for a generic start."""
    _check_ball(scene, w)
    segs = _segments_upto(scene, x, v, xi)
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    return _product_before(scene, segs, nu) * float(kern.phi_marg(xi - segs[nu].entry, w))


def _first_branch_ok(scene, x, v, segs):
    return bool(segs) and segs[0].entry == 0.0 and inside_indicator(scene, x, v)


def psi0_marg(scene, x, v, xi, w):
    """Path density for a start on a scatterer with exit parameter w."""
    _check_ball(scene, w)
    segs = _segments_upto(scene, x, v, xi)
    if not _first_branch_ok(scene, x, v, segs):
        return 0.0
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    k1 = kernel_for_grain(scene, segs[0].grain_id)
    if nu == 0:
        return float(k1.phi0_marg(xi, w))
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    mid = 1.0
    for s in segs[1:nu]:
        mid *= kernel_for_grain(scene, s.grain_id).d_phi(s.sejour)
    return float(k1.phi_marg(segs[0].sejour, w)) * mid \
        * float(kern.phi(xi - segs[nu].entry))


def psi0_full(scene, x, v, xi, w, z):
    """Joint path/impact density for a start on a scatterer.

    w is the impact parameter at distance xi, z the exit parameter at the
    start.  Zero unless x is in a grain or on its boundary with v inwards.
    """
    _check_ball(scene, w)
    _check_ball(scene, z)
    segs = _segments_upto(scene, x, v, xi)
    if not _first_branch_ok(scene, x, v, segs):
        return 0.0
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    k1 = kernel_for_grain(scene, segs[0].grain_id)
    if nu == 0:
        return float(k1.phi0(xi, w, z))
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    mid = 1.0
    for s in segs[1:nu]:
        mid *= kernel_for_grain(scene, s.grain_id).d_phi(s.sejour)
    return float(k1.phi_marg(segs[0].sejour, z)) * mid \
        * float(kern.phi_marg(xi - segs[nu].entry, w))


def _check_ball(scene, w):
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != scene.dimension - 1:
        raise ValueError(f"parameter must have dimension {scene.dimension - 1}")
    if w @ w > 1.0 + 1e-12:
        raise ValueError("parameter outside the closed unit ball")


# ---------------------------------------------------------------------------
# survival / cumulative forms (telescoped integrals of the densities)
# ---------------------------------------------------------------------------

def survival_psi(scene, x, v, t, horizon=None):
    """P(path length >= t) = int_t^inf psi + escape mass, in closed form."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    segs = itinerary(scene, x, v, (horizon or t) * (1 + _HORIZON_PAD) + _HORIZON_PAD)
    out = 1.0
    for s in segs:
        if s.exit <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(s.sejour)
        elif s.entry <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(t - s.entry)
            break
        else:
            break
    return float(out)


def survival_psi0_marg(scene, x, v, t, w):
    """P(path length >= t) for the scatterer-start marginal with exit w."""
    _check_ball(scene, w)
    if t < 0:
        raise ValueError("t must be nonnegative")
    segs = _segments_upto(scene, x, v, max(t, 1.0))
    if not _first_branch_ok(scene, x, v, segs):
        raise ValueError("scatterer-start survival needs an in-grain start")
    if t == 0:
        return 1.0
    k1 = kernel_for_grain(scene, segs[0].grain_id)
    if t < segs[0].exit:
        return float(k1.phi_marg(t, w))
    out = float(k1.phi_marg(segs[0].sejour, w))
    for s in segs[1:]:
        if s.exit <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(s.sejour)
        elif s.entry <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(t - s.entry)
            break
        else:
            break
    return float(out)


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


def psi_tail_bound(scene, x, v, xi):
    """C exp(-gamma (xi - gap(x,v,xi))) dominating the whole family."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    g = gap(scene, x, v, xi) if xi > 0 else 0.0
    return tail_prefactor(scene) * float(np.exp(-tail_rate(scene) * (xi - g)))


# ---------------------------------------------------------------------------
# disordered closed forms
# ---------------------------------------------------------------------------

def poisson_psi(scene, x, v, xi, w=None, z=None):
    """Gap-discounted exponential forms of a fully disordered scene.

    Returns a dict with the four family members at (x, v, xi); w and z are
    accepted for signature parity but do not enter the values.
    """
    for m in scene.media:
        if m.kind != "poisson":
            raise ValueError("poisson_psi needs an all-poisson scene")
    sb = K.sigma_bar(scene.dimension)
    g = gap(scene, x, v, xi) if xi > 0 else 0.0
    decay = float(np.exp(-sb * (xi - g)))
    here = 1.0 if inside_indicator(scene, x, v) else 0.0
    there = 1.0 if inside_indicator(scene, x + xi * np.asarray(v, dtype=float), v) else 0.0
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
    residuals: list = field(default_factory=list)
    skipped: int = 0
    boundary_max_err: float = 0.0

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


def integrate_psi0_marg_over_w(scene, x, v, xi, order=64):
    nodes, weights = _ball_quadrature(scene.dimension, order)
    vals = np.array([psi0_marg(scene, x, v, xi, n) for n in nodes])
    return float(vals @ weights)


def check_transport_identity(scene, samples, fd_scale=1e-6, tol_boundary=1e-12,
                             quad_order=64):
    """Verify the directional-derivative identity on sampled phase points.

    For each (x, v, xi): the one-sided difference of psi along
    (x + eps v, xi - eps) must equal the w-integral of the scatterer-start
    marginal.  Samples landing within fd_scale of a segment boundary are
    skipped and counted.  Boundary values psi(x,v,0) = sigma_bar * inside
    and psi_marg(x,v,0,w) = inside are checked exactly.
    """
    report = TransportReport()
    sb = K.sigma_bar(scene.dimension)
    for (x, v, xi) in samples:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        eps = fd_scale * (1.0 + xi)
        segs = _segments_upto(scene, x, v, xi + 1.0)
        near = any(min(abs(xi - s.entry), abs(xi - s.exit)) < 10 * eps
                   for s in segs)
        if near or _locate(segs, xi) is None:
            report.skipped += 1
            continue
        d_num = (psi(scene, x + eps * v, v, xi - eps) - psi(scene, x, v, xi)) / eps
        rhs = integrate_psi0_marg_over_w(scene, x, v, xi, order=quad_order)
        report.residuals.append(abs(d_num - rhs))
        inside = 1.0 if inside_indicator(scene, x, v) else 0.0
        err0 = abs(psi(scene, x, v, 0.0) - sb * inside)
        w0 = np.zeros(scene.dimension - 1)
        err1 = abs(psi_marg_w(scene, x, v, 0.0, w0) - inside)
        report.boundary_max_err = max(report.boundary_max_err, err0, err1)
    return report
