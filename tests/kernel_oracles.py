"""Slow, independent builds of the d=3 kernel tables: the test oracles of
polyxport.kernels' shipped G coefficients and closed-form cubic root."""
import numpy as np
from scipy.interpolate import CubicSpline

from polyxport.kernels import _GTable, d_phi, phi_freepath


def g_spline_slow():
    """The cubic spline through G at 2001 even nodes, each integrated by
    quad: the build the shipped g_table.npy was saved from."""
    ws = np.linspace(0.0, 1.0, _GTable.n_grid)
    return CubicSpline(ws, np.array([_GTable.direct(w) for w in ws]))


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
