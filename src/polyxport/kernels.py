"""Single-medium transition kernels and free-path densities.

Covers the explicit crystal formulas in d=2 (all path lengths for the pair
kernel, xi <= 1/2 for the marginals) and d=3 (xi <= 1/4), the exponential
kernels of a disordered (Poisson) medium, and the universal tail bound.
Crystal evaluations outside the validated range raise RangeError; scene
validation keeps grain diameters inside it.

Notation used throughout: xi is the path length, w and z are impact/exit
parameters in the closed unit (d-1)-ball, sigma_bar = vol(unit (d-1)-ball)
is the total scattering cross section.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .lattice import norm_rows

ZETA2 = np.pi ** 2 / 6.0
ZETA3 = 1.2020569031595942854

#: upper end of the validated crystal range per dimension
XI_MAX = {2: 0.5, 3: 0.25}
_RANGE_TOL = 1e-12


class RangeError(ValueError):
    """Crystal kernel queried outside the explicit small-xi range."""


def sigma_bar(dimension):
    """Volume of the unit (d-1)-ball: 2 in d=2, pi in d=3."""
    if dimension == 2:
        return 2.0
    if dimension == 3:
        return np.pi
    raise ValueError("dimension must be 2 or 3")


def zeta(dimension):
    if dimension == 2:
        return ZETA2
    if dimension == 3:
        return ZETA3
    raise ValueError("dimension must be 2 or 3")


def upsilon(x):
    """Clamp to [0, 1]: 0 for x<=0, x on (0,1), 1 for x>=1."""
    return np.clip(x, 0.0, 1.0)


def phi0_2d(xi, w, z):
    """Pair transition density of the planar crystal, any xi > 0.

    Constant 6/pi^2 for xi <= 1/2.  At w+z = 0 the inner fraction is taken
    as +inf, -inf or 0 according to the sign of its numerator.
    """
    xi = np.asarray(xi, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(xi <= 0):
        raise ValueError("xi must be positive")
    num = 1.0 / xi - np.maximum(np.abs(w), np.abs(z)) - 1.0
    den = np.abs(w + z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = num / den
    frac = np.where(den == 0.0, np.where(num == 0.0, 0.0,
                                         np.copysign(np.inf, num)), frac)
    return 6.0 / np.pi ** 2 * upsilon(1.0 + frac)


def F(t):
    """F(t): area of the disk section {x in unit disk : x_1 < t} for
    0 <= t < 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= 1):
        raise ValueError("t must lie in [0, 1)")
    return np.pi - np.arccos(t) + t * np.sqrt(1.0 - t * t)


class _GTable:
    """The quadratic-coefficient weight G, read from a shipped cubic table.

    `g_table.npy` holds the (4, 2000) coefficients of scipy's CubicSpline
    through the 2001 nodes G(k / 2000), each integrated by quadrature; the
    tests rebuild them from their quadrature oracle and compare exactly.
    It is loaded on the first call and evaluated in the order of
    operations of scipy's PPoly: the spline's bits, no SciPy.  The knots
    are uniform, so _interval finds x's interval as floor(x * 2000),
    corrected by one step against the knots to the index searchsorted
    gives; fmin sends a NaN to the last interval, where G stays NaN.
    """

    n_grid = 2001

    def __init__(self):
        self._coef = None

    def _build(self):
        self._knots = np.linspace(0.0, 1.0, self.n_grid)
        self._coef = np.load(os.path.join(os.path.dirname(__file__),
                                          "g_table.npy"))
        self._node_max = float(self(self._knots).max())

    def node_max(self):
        """Largest node value: the bound on G that the samplers use, in
        case the interpolant is not exactly monotone near w = 1."""
        if self._coef is None:
            self._build()
        return self._node_max

    def _interval(self, x):
        """The spline interval of each x in [0, 1] (or NaN): searchsorted's
        index, clipped to the last interval, without a binary search."""
        last = self.n_grid - 2
        i = np.fmin(x * (self.n_grid - 1), last).astype(np.intp)
        knots = self._knots
        i -= knots[i] > x
        i += (i < last) & (knots[i + 1] <= x)
        return i

    def __call__(self, w):
        if self._coef is None:
            self._build()
        w = np.asarray(w, dtype=float)
        if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
            raise ValueError("w must lie in [0, 1]")
        x = np.clip(w, 0.0, 1.0).ravel()
        i = self._interval(x)
        s = x - self._knots[i]
        res, z = 0.0, 1.0
        for k in range(4):
            res = res + self._coef[3 - k, i] * z
            z = z * s
        return res.reshape(w.shape)


_G_TABLE = _GTable()


def G(w):
    """G(w): weight of the quadratic term of the d=3 marginal survival.

    Known endpoints: G(0) = pi (4 pi + 3 sqrt 3)/16, G(1) = 5 pi^2/16 + 1;
    continuous and strictly increasing in between.  Read from the shipped
    cubic coefficients (no SciPy); the tests check them against direct
    quadrature.
    """
    return _G_TABLE(w)


def _check_range(xi, dimension):
    # fmin/fmax skip NaN, as any() of a comparison does, and allocate nothing
    xi = np.asarray(xi, dtype=float)
    if np.fmin.reduce(xi, axis=None, initial=0.0) < 0:
        raise ValueError("xi must be nonnegative")
    hi = np.fmax.reduce(xi, axis=None, initial=0.0)
    if hi > XI_MAX[dimension] + _RANGE_TOL:
        raise RangeError(
            f"xi={hi} outside the explicit crystal range "
            f"(0, {XI_MAX[dimension]}] in d={dimension}")
    return xi


def phi0_3d(xi, w, z):
    """Pair transition density of the d=3 crystal for 0 <= xi <= 1/4.

    w, z are points of the closed unit disk, shape (..., 2).
    """
    xi = _check_range(xi, 3)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    sep = 0.5 * norm_rows(w - z)
    return (1.0 - 6.0 / np.pi ** 2 * F(sep) * xi) / ZETA3


def phi0_3d_max(xi):
    """Bound of phi0_3d(xi, ., .) over w and z: the section area is at
    least pi/2 (at w = z)."""
    xi = _check_range(xi, 3)
    return (1.0 - 3.0 / np.pi * xi) / ZETA3


# d=3: Phi(xi, w) = 1 - _A3 xi + _B3 G(|w|) xi^2
_A3 = np.pi / ZETA3
_B3 = 6.0 / (np.pi ** 2 * ZETA3)


def phi_marginal(xi, w, dimension):
    """Survival marginal Phi(xi, w) on the explicit range.

    d=2: 1 - (12/pi^2) xi, independent of w.  d=3: quadratic in xi with
    the G-weight of |w|.
    """
    xi = _check_range(xi, dimension)
    if dimension == 2:
        return 1.0 - 12.0 / np.pi ** 2 * xi
    r = norm_rows(np.asarray(w, dtype=float))
    return 1.0 - _A3 * xi + _B3 * G(r) * xi ** 2


def phi_marginal_max(xi):
    """Bound of the d=3 Phi(xi, .) over the disk: G increases in |w|."""
    xi = _check_range(xi, 3)
    return 1.0 - _A3 * xi + _B3 * _G_TABLE.node_max() * xi ** 2


def invert_phi_marginal(mass, w):
    """Solve 1 - Phi(u, w) = mass for u on the d=3 range.

    1 - Phi = _A3 u - b u^2 with b = _B3 G(|w|); the stable root is
    2 mass / (_A3 + sqrt(_A3^2 - 4 b mass)).  Its discriminant stays
    positive for u <= 1/4, below the vertex _A3 / (2b) >= pi^3 / (12 G(1))
    ~ 0.63.
    """
    mass = np.asarray(mass, dtype=float)
    b = _B3 * G(norm_rows(np.asarray(w, dtype=float)))
    return 2.0 * mass / (_A3 + np.sqrt(_A3 * _A3 - 4.0 * b * mass))


def phi0_marginal(xi, w, dimension):
    """Density marginal Phi_0(xi, w) = -d/dxi Phi(xi, w)."""
    xi = _check_range(xi, dimension)
    if dimension == 2:
        return 12.0 / np.pi ** 2 + 0.0 * xi
    r = norm_rows(np.asarray(w, dtype=float))
    return np.pi / ZETA3 - 12.0 / (np.pi ** 2 * ZETA3) * G(r) * xi


def phi_freepath(xi, dimension):
    """Free path density Phi(xi) of a single crystal on the explicit range."""
    xi = _check_range(xi, dimension)
    if dimension == 2:
        return 2.0 - 24.0 / np.pi ** 2 * xi
    return np.pi - np.pi ** 2 / ZETA3 * xi \
        + (3.0 * np.pi ** 2 + 16.0) / (2.0 * np.pi * ZETA3) * xi ** 2


def d_phi(xi, dimension):
    """Complementary distribution D_Phi(xi) = 1 - int_0^xi Phi."""
    xi = _check_range(xi, dimension)
    if dimension == 2:
        return 1.0 - 2.0 * xi + 12.0 / np.pi ** 2 * xi ** 2
    return 1.0 - np.pi * xi + _CDF_A * xi ** 2 - _CDF_B * xi ** 3


# d=3: 1 - D_Phi(u) = pi u - _CDF_A u^2 + _CDF_B u^3 is strictly increasing
# (the discriminant 4 _CDF_A^2 - 12 pi _CDF_B of its derivative is
# negative).  u = _CDF_H + t turns 1 - D_Phi(u) = mass into the depressed
# cubic t^3 + p t + q = 0, with p = _CDF_P > 0 and q = _CDF_Q0 - mass /
# _CDF_B, whose one real root is
# t = -2 sqrt(p/3) sinh(arcsinh(1.5 q sqrt(3/p) / p) / 3).
_CDF_A = np.pi ** 2 / (2.0 * ZETA3)
_CDF_B = (3.0 * np.pi ** 2 + 16.0) / (6.0 * np.pi * ZETA3)
_CDF_H = _CDF_A / (3.0 * _CDF_B)
_CDF_P = np.pi / _CDF_B - 3.0 * _CDF_H ** 2
_CDF_Q0 = _CDF_H * np.pi / _CDF_B - 2.0 * _CDF_H ** 3
_CDF_K = 1.5 / _CDF_P * math.sqrt(3.0 / _CDF_P)
_CDF_R = 2.0 * math.sqrt(_CDF_P / 3.0)


def tail_bound(xi, dimension):
    """max(exp(-sigma_bar xi / 2), exp(-zeta(d)/2)), dominating D_Phi."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be nonnegative")
    return np.maximum(np.exp(-0.5 * sigma_bar(dimension) * xi),
                      np.exp(-0.5 * zeta(dimension)))


def _poisson_decay(xi, dimension):
    """exp(-sigma_bar xi): every exponential kernel is it or sigma_bar
    times it."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be nonnegative")
    return np.exp(-sigma_bar(dimension) * xi)


# ---------------------------------------------------------------------------
# per-medium model facade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelModel:
    """Evaluatable kernel family for one medium type and dimension."""

    medium: str          # "crystal" or "poisson"
    dimension: int

    def __post_init__(self):
        if self.medium not in ("crystal", "poisson"):
            raise ValueError(f"unknown medium {self.medium!r}")
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")

    @property
    def sigma_bar(self):
        return sigma_bar(self.dimension)

    @property
    def wz_free(self):
        """True when the whole family is independent of w and z."""
        return self.medium == "poisson" or self.dimension == 2

    def phi0(self, xi, w, z):
        if self.medium == "poisson":
            return _poisson_decay(xi, self.dimension)
        if self.dimension == 2:
            xi = _check_range(xi, 2)
            return 6.0 / np.pi ** 2 + 0.0 * xi
        return phi0_3d(xi, w, z)

    def phi_marg(self, xi, w):
        if self.medium == "poisson":
            return _poisson_decay(xi, self.dimension)
        return phi_marginal(xi, w, self.dimension)

    def phi0_marg(self, xi, w):
        if self.medium == "poisson":
            return self.sigma_bar * _poisson_decay(xi, self.dimension)
        return phi0_marginal(xi, w, self.dimension)

    def phi(self, xi):
        if self.medium == "poisson":
            return self.sigma_bar * _poisson_decay(xi, self.dimension)
        return phi_freepath(xi, self.dimension)

    def d_phi(self, xi):
        if self.medium == "poisson":
            return _poisson_decay(xi, self.dimension)
        return d_phi(xi, self.dimension)

    def phi_cdf(self, u):
        """int_0^u Phi = 1 - D_Phi(u)."""
        return 1.0 - self.d_phi(u)

    def invert_phi_cdf(self, mass):
        """Solve int_0^u Phi(s) ds = mass for u (vectorized, exact branch).

        A negative mass raises ValueError; a crystal mass beyond
        1 - D_Phi(XI_MAX) gives XI_MAX.
        """
        mass = np.asarray(mass, dtype=float)
        if np.fmin.reduce(mass, axis=None, initial=0.0) < 0:
            raise ValueError("mass must be nonnegative")
        sb = self.sigma_bar
        if self.medium == "poisson":
            return -np.log1p(-mass) / sb
        if self.dimension == 2:
            c = 12.0 / np.pi ** 2
            # 2u - c u^2 = mass, root in [0, 1/2]
            root = np.sqrt(np.maximum(4.0 - 4.0 * c * mass, 0.0))
            return np.clip((2.0 - root) / (2.0 * c), 0.0, XI_MAX[2])
        # the one real root of the cubic, clipped to the range, then one
        # Newton step on the Horner form, which has no cancellation at
        # small u
        q = _CDF_Q0 - mass / _CDF_B
        u = _CDF_H - _CDF_R * np.sinh(np.arcsinh(_CDF_K * q) / 3.0)
        u = np.clip(u, 0.0, XI_MAX[3])
        f = u * (np.pi - u * (_CDF_A - _CDF_B * u)) - mass
        df = np.pi - u * (2.0 * _CDF_A - 3.0 * _CDF_B * u)
        return np.clip(u - f / df, 0.0, XI_MAX[3])

    def tail_bound(self, xi):
        return tail_bound(xi, self.dimension)
