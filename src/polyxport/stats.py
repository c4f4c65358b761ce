"""Empirical CDFs, Kolmogorov-Smirnov and chi-square machinery.

The KS statistics are searchsorted-based; their independent slow twins
(a grid scan and a merge walk) live with the tests as oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class EmpiricalCDF:
    """Sorted samples with optional sub-unit total mass (escape deficit)."""

    values: np.ndarray
    total_mass: float = 1.0

    @classmethod
    def from_samples(cls, samples):
        """Build from raw draws; non-finite entries count as escape mass."""
        samples = np.asarray(samples, dtype=float)
        fin = np.isfinite(samples)
        vals = np.sort(samples[fin])
        total = fin.mean() if len(samples) else 1.0
        return cls(vals, float(total))

    @property
    def n(self):
        return len(self.values)

    @property
    def escape_mass(self):
        return 1.0 - self.total_mass

    def evaluate(self, x):
        """F(x) = mass of samples <= x (defective when escapes exist)."""
        x = np.asarray(x, dtype=float)
        n_all = self.n / self.total_mass if self.total_mass > 0 else self.n
        return np.searchsorted(self.values, x, side="right") / max(n_all, 1)


def ks_distance(samples_or_ecdf, cdf: Callable):
    """sup_x |F_emp(x) - F(x)| against a callable reference CDF.

    Handles defective empirical laws: escaped samples (inf) contribute no
    jumps, and the reference CDF may be defective as well.
    """
    if isinstance(samples_or_ecdf, EmpiricalCDF):
        e = samples_or_ecdf
    else:
        e = EmpiricalCDF.from_samples(samples_or_ecdf)
    if e.n == 0:
        return float(np.max(np.abs(0.0 - cdf(np.array([0.0])))))
    n_all = e.n / e.total_mass
    f = np.asarray(cdf(e.values), dtype=float)
    hi = np.arange(1, e.n + 1) / n_all
    lo = np.arange(0, e.n) / n_all
    return float(np.max(np.maximum(np.abs(hi - f), np.abs(f - lo))))


def ks_two_sample(a, b):
    """Two-sample KS statistic and asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / n
    fb = np.searchsorted(b, grid, side="right") / m
    d = float(np.max(np.abs(fa - fb)))
    ne = n * m / (n + m)
    return d, kolmogorov_sf((np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d)


def kolmogorov_sf(lam):
    """Survival function of the Kolmogorov distribution (series)."""
    lam = float(lam)
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(max(total, 0.0), 1.0))


def chi2_pvalue(stat, dof):
    """Right tail of the chi-square distribution."""
    if dof <= 0:
        return 1.0
    from scipy.special import gammaincc
    return float(gammaincc(dof / 2.0, stat / 2.0))


def chi2_statistic(observed, expected):
    """Pearson statistic; expected cells below 1e-12 must be empty."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        raise ValueError("shape mismatch")
    tiny = expected < 1e-12
    if np.any(observed[tiny] > 0):
        raise ValueError("observed mass in a zero-probability cell")
    obs, exp = observed[~tiny], expected[~tiny]
    return float(np.sum((obs - exp) ** 2 / exp))


def merge_tail(counts, probs, n, min_expected=5.0):
    """Lump trailing cells until every expected count reaches the floor.

    Sparse tail cells make the Pearson statistic blow up; standard practice
    is to merge them before testing.
    """
    counts = list(np.asarray(counts, dtype=float))
    probs = list(np.asarray(probs, dtype=float))
    while len(counts) > 2 and probs[-1] * n < min_expected:
        c_last = counts.pop()
        p_last = probs.pop()
        counts[-1] += c_last
        probs[-1] += p_last
    return np.array(counts), np.array(probs)


def chi2_gof(observed_counts, probs, n_constraints=1, min_expected=None):
    """Goodness-of-fit test of counts against cell probabilities."""
    counts = np.asarray(observed_counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    n = counts.sum()
    if min_expected is not None:
        counts, probs = merge_tail(counts, probs, n, min_expected)
    stat = chi2_statistic(counts, probs * n)
    dof = int((probs > 1e-12).sum()) - n_constraints
    return stat, chi2_pvalue(stat, dof)


def chi2_independence(table):
    """Independence test on a 2-way contingency table."""
    t = np.asarray(table, dtype=float)
    n = t.sum()
    rows = t.sum(axis=1, keepdims=True)
    cols = t.sum(axis=0, keepdims=True)
    expected = rows @ cols / n
    keep = expected > 0
    stat = float(np.sum((t[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = (np.count_nonzero(rows) - 1) * (np.count_nonzero(cols) - 1)
    return stat, chi2_pvalue(stat, dof)
