"""Slow, independent builds of the d=3 kernel tables: the test oracles of
polyxport.kernels' shipped G coefficients and closed-form cubic root."""
import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from polyxport.kernels import _GTable, d_phi, phi_freepath


def _section_area_scalar(t):
    """kernels.F of one Python float, bit for bit, as a
    float.

    The quadrature integrands call it about 1.3e5 times per rebuild of the
    2001 G nodes; the array version spends most of that in np.asarray and
    its range scans.  The arithmetic after the arccos is the same IEEE
    operations on floats.  np.arccos is kept on purpose: math.acos (libm)
    differs from numpy's arccos in the last bit on some inputs, which would
    move the nodes away from the shipped table.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    return np.pi - float(np.arccos(t)) + t * math.sqrt(1.0 - t * t)


def g_direct(w):
    """G(w) by direct quadrature, for a scalar or an array of w in [0, 1].

    Integrates twice with an adaptive Gauss-Kronrod rule (abs target
    1e-9); the endpoint of the arccos factor has a sqrt-type derivative
    blow-up which the rule handles after splitting at the breakpoints
    r = 1-w and r = 1+w.  The integrands evaluate F through
    _section_area_scalar and do their own arithmetic on Python floats, the
    same IEEE operations as the array version, so the rule takes the same
    steps and gives the shipped table's nodes bit for bit.  The np.arccos
    calls must not become math.acos: libm's arccos moves over a hundred of
    the nodes by up to 1.8e-15, away from the shipped table.
    """
    if np.ndim(w):
        return np.array([g_direct(t) for t in np.ravel(w)]).reshape(
            np.shape(w))
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    total = 0.0
    if w < 1.0:
        i1, _ = quad(lambda r: _section_area_scalar(0.5 * r) * r,
                     0.0, 1.0 - w, epsabs=1e-10, epsrel=1e-12, limit=200)
        total += np.pi * i1

    def inner(r):
        c = (w * w + r * r - 1.0) / (2.0 * w * r)
        c = 1.0 if c > 1.0 else -1.0 if c < -1.0 else c
        return _section_area_scalar(0.5 * r) * float(np.arccos(c)) * r

    if w > 0.0:
        # arccos has sqrt-type derivative blow-up at both ends; the
        # substitutions r = (1-w) + u^2 and r = (1+w) - u^2 flatten it
        lo, hi = 1.0 - w, 1.0 + w
        half = np.sqrt(w)
        i2a, _ = quad(lambda u: inner(lo + u * u) * 2.0 * u,
                      0.0, half, epsabs=1e-10, epsrel=1e-12, limit=200)
        i2b, _ = quad(lambda u: inner(hi - u * u) * 2.0 * u,
                      0.0, half, epsabs=1e-10, epsrel=1e-12, limit=200)
        total += i2a + i2b
    return total


def g_spline_slow():
    """The cubic spline through G at 2001 even nodes, each integrated by
    quad: the build the shipped g_table.npy was saved from."""
    ws = np.linspace(0.0, 1.0, _GTable.n_grid)
    return CubicSpline(ws, np.array([g_direct(w) for w in ws]))


def invert_phi_cdf_newton(mass):
    """Solve 1 - D_Phi(u) = mass on [0, 1/4] in d=3 by Newton from the
    linear estimate mass / pi, clipped to the range, until every step is
    below 1e-14."""
    mass = np.asarray(mass, dtype=float)
    u = np.minimum(mass / np.pi, 0.25)
    for _ in range(60):
        step = (1.0 - d_phi(u, 3) - mass) / phi_freepath(u, 3)
        u = np.clip(u - step, 0.0, 0.25)
        if np.max(np.abs(step)) < 1e-14:
            break
    return u
