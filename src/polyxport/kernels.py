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

from dataclasses import dataclass

import numpy as np

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
                                         np.sign(num) * np.inf), frac)
    return 6.0 / np.pi ** 2 * upsilon(1.0 + frac)


def disk_section_area(t):
    """Area of {x in unit disk : x_1 < t} for 0 <= t < 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= 1):
        raise ValueError("t must lie in [0, 1)")
    return np.pi - np.arccos(t) + t * np.sqrt(1.0 - t * t)


F = disk_section_area


class _GTable:
    """Quadrature-backed evaluation of the quadratic-coefficient weight G.

    Direct evaluation integrates twice with an adaptive Gauss-Kronrod rule
    (abs target 1e-9); the endpoint of the arccos factor has a sqrt-type
    derivative blow-up which the rule handles after splitting at the
    breakpoints r = 1-w and r = 1+w.  A cubic interpolant on a dense grid
    serves the samplers, validated against direct quadrature in the tests.
    """

    def __init__(self, n_grid=2001):
        self.n_grid = n_grid
        self._spline = None

    @staticmethod
    def direct(w):
        from scipy.integrate import quad
        w = float(w)
        if not 0.0 <= w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        total = 0.0
        if w < 1.0:
            i1, _ = quad(lambda r: float(disk_section_area(0.5 * r)) * r,
                         0.0, 1.0 - w, epsabs=1e-10, epsrel=1e-12, limit=200)
            total += np.pi * i1

        def inner(r):
            c = (w * w + r * r - 1.0) / (2.0 * w * r)
            c = min(1.0, max(-1.0, c))
            return float(disk_section_area(0.5 * r)) * np.arccos(c) * r

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

    def _build(self):
        from scipy.interpolate import CubicSpline
        ws = np.linspace(0.0, 1.0, self.n_grid)
        vals = np.array([self.direct(w) for w in ws])
        self._spline = CubicSpline(ws, vals)

    def __call__(self, w):
        if self._spline is None:
            self._build()
        w = np.asarray(w, dtype=float)
        if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
            raise ValueError("w must lie in [0, 1]")
        return self._spline(np.clip(w, 0.0, 1.0))


_G_TABLE = _GTable()


def second_order_weight(w, method="interp"):
    """G(w): weight of the quadratic term of the d=3 marginal survival.

    Known endpoints: G(0) = pi (4 pi + 3 sqrt 3)/16, G(1) = 5 pi^2/16 + 1;
    continuous and strictly increasing in between.
    """
    if method == "quad":
        if np.ndim(w) == 0:
            return _GTable.direct(w)
        return np.array([_GTable.direct(t) for t in np.ravel(w)]).reshape(np.shape(w))
    return _G_TABLE(w)


G = second_order_weight


def _check_range(xi, dimension):
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be nonnegative")
    if np.any(xi > XI_MAX[dimension] + _RANGE_TOL):
        raise RangeError(
            f"xi={np.max(xi)} outside the explicit crystal range "
            f"(0, {XI_MAX[dimension]}] in d={dimension}")
    return xi


def phi0_3d(xi, w, z):
    """Pair transition density of the d=3 crystal for 0 <= xi <= 1/4.

    w, z are points of the closed unit disk, shape (..., 2).
    """
    xi = _check_range(xi, 3)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    sep = 0.5 * np.linalg.norm(w - z, axis=-1)
    return (1.0 - 6.0 / np.pi ** 2 * disk_section_area(sep) * xi) / ZETA3


def phi_marginal(xi, w, dimension):
    """Survival marginal Phi(xi, w) on the explicit range.

    d=2: 1 - (12/pi^2) xi, independent of w.  d=3: quadratic in xi with
    the G-weight of |w|.
    """
    xi = _check_range(xi, dimension)
    if dimension == 2:
        return 1.0 - 12.0 / np.pi ** 2 * xi
    r = np.linalg.norm(np.asarray(w, dtype=float), axis=-1)
    return 1.0 - np.pi / ZETA3 * xi + 6.0 / (np.pi ** 2 * ZETA3) * G(r) * xi ** 2


def phi0_marginal(xi, w, dimension):
    """Density marginal Phi_0(xi, w) = -d/dxi Phi(xi, w)."""
    xi = _check_range(xi, dimension)
    if dimension == 2:
        return 12.0 / np.pi ** 2 + 0.0 * xi
    r = np.linalg.norm(np.asarray(w, dtype=float), axis=-1)
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
    return 1.0 - np.pi * xi + np.pi ** 2 / (2.0 * ZETA3) * xi ** 2 \
        - (3.0 * np.pi ** 2 + 16.0) / (6.0 * np.pi * ZETA3) * xi ** 3


def tail_bound(xi, dimension):
    """max(exp(-sigma_bar xi / 2), exp(-zeta(d)/2)), dominating D_Phi."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be nonnegative")
    return np.maximum(np.exp(-0.5 * sigma_bar(dimension) * xi),
                      np.exp(-0.5 * zeta(dimension)))


def poisson_kernels(xi, dimension):
    """The five exponential kernels of a disordered medium.

    Returns (Phi_0(xi,w,z), Phi(xi,w), Phi_0(xi,w), Phi(xi), D_Phi(xi)),
    all independent of w and z.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be nonnegative")
    sb = sigma_bar(dimension)
    e = np.exp(-sb * xi)
    return e, e, sb * e, sb * e, e


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
    def zeta_d(self):
        return zeta(self.dimension)

    @property
    def xi_max(self):
        return np.inf if self.medium == "poisson" else XI_MAX[self.dimension]

    @property
    def wz_free(self):
        """True when the whole family is independent of w and z."""
        return self.medium == "poisson" or self.dimension == 2

    def phi0(self, xi, w, z):
        if self.medium == "poisson":
            return poisson_kernels(xi, self.dimension)[0]
        if self.dimension == 2:
            xi = _check_range(xi, 2)
            return 6.0 / np.pi ** 2 + 0.0 * xi
        return phi0_3d(xi, w, z)

    def phi_marg(self, xi, w):
        if self.medium == "poisson":
            return poisson_kernels(xi, self.dimension)[1]
        return phi_marginal(xi, w, self.dimension)

    def phi0_marg(self, xi, w):
        if self.medium == "poisson":
            return poisson_kernels(xi, self.dimension)[2]
        return phi0_marginal(xi, w, self.dimension)

    def phi(self, xi):
        if self.medium == "poisson":
            return poisson_kernels(xi, self.dimension)[3]
        return phi_freepath(xi, self.dimension)

    def d_phi(self, xi):
        if self.medium == "poisson":
            return poisson_kernels(xi, self.dimension)[4]
        return d_phi(xi, self.dimension)

    def phi_cdf(self, u):
        """int_0^u Phi = 1 - D_Phi(u)."""
        return 1.0 - self.d_phi(u)

    def invert_phi_cdf(self, mass):
        """Solve int_0^u Phi(s) ds = mass for u (vectorized, exact branch)."""
        mass = np.asarray(mass, dtype=float)
        sb = self.sigma_bar
        if self.medium == "poisson":
            return -np.log1p(-mass) / sb
        if self.dimension == 2:
            c = 12.0 / np.pi ** 2
            # 2u - c u^2 = mass, root in [0, 1/2]
            return (2.0 - np.sqrt(4.0 - 4.0 * c * mass)) / (2.0 * c)
        # monotone cubic on [0, 1/4]: Newton from the linear estimate
        u = np.minimum(np.asarray(mass, dtype=float) / np.pi, XI_MAX[3])
        for _ in range(60):
            f = self.phi_cdf(u) - mass
            df = self.phi(u)
            step = f / df
            u = np.clip(u - step, 0.0, XI_MAX[3])
            if np.max(np.abs(step)) < 1e-14:
                break
        return u

    def tail_bound(self, xi):
        return tail_bound(xi, self.dimension)


def for_medium(medium, dimension):
    """KernelModel for a medium descriptor (object with .kind) or name."""
    kind = getattr(medium, "kind", medium)
    if kind not in ("crystal", "poisson"):
        raise ValueError(f"unknown medium kind {kind!r}")
    return KernelModel(kind, dimension)
