"""Kolmogorov-Smirnov and chi-square machinery.

The one-sample KS statistic reads the sorted draws against the reference
CDF, and the two-sample one merges both samples with one stable argsort;
their independent slow twins (a grid scan and a merge walk) live with the
tests as oracles.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np


def ks_distance(samples, cdf: Callable):
    """sup_x |F_emp(x) - F(x)| of raw draws against a callable reference CDF.

    Handles defective empirical laws: non-finite draws (escapes) count as
    missing mass and contribute no jumps, and the reference CDF may be
    defective as well.
    """
    samples = np.asarray(samples, dtype=float)
    fin = np.isfinite(samples)
    values = np.sort(samples[fin])
    n = len(values)
    if n == 0:
        return float(np.max(np.abs(0.0 - cdf(np.array([0.0])))))
    n_all = n / float(fin.mean())
    f = np.asarray(cdf(values), dtype=float)
    hi = np.arange(1, n + 1) / n_all
    lo = np.arange(0, n) / n_all
    return float(np.max(np.maximum(np.abs(hi - f), np.abs(f - lo))))


def ks_two_sample(a, b):
    """Two-sample KS statistic and asymptotic p-value.

    A stable argsort of the two sorted samples merges them; the running
    counts of each sample, read at the last copy of each value, are n and
    m times its empirical CDF there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    both = np.concatenate([np.sort(a), np.sort(b)])
    order = np.argsort(both, kind="stable")
    both = both[order]
    last = np.append(both[1:] != both[:-1], True)
    ca = np.cumsum(order < n)
    cb = np.arange(1, n + m + 1) - ca
    d = float(np.max(np.abs(ca / n - cb / m), where=last, initial=0.0))
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


# Term cap of gamma_q (its loops converge in O(sqrt(a)) terms), and the
# modified Lentz method's stand-in for a zero denominator.
_GAMMA_TERMS = 1000
_LENTZ_TINY = 1e-300


def chi2_pvalue(stat, dof):
    """Right tail of the chi-square distribution: Q(dof / 2, stat / 2)."""
    if dof <= 0:
        return 1.0
    return gamma_q(float(dof) / 2.0, float(stat) / 2.0)


def gamma_q(a, x):
    """The regularized upper incomplete gamma function Q(a, x) for a > 0.

    With the prefactor x^a e^-x / Gamma(a) in log space, Q is 1 - P by the
    power series of P for x < a + 1 (where Q > 0.08 for a >= 1/2, as in
    every chi-square tail, so the difference loses no relative accuracy),
    and otherwise the continued fraction of Q,
    evaluated by the modified Lentz method.  Both converge in O(sqrt(a))
    terms; a NaN x gives NaN.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    pre = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        # P = pre * sum_n x^n / (a (a + 1) ... (a + n))
        term = total = 1.0 / a
        for n in range(1, _GAMMA_TERMS):
            term *= x / (a + n)
            total += term
            if term < total * 1e-17:
                break
        return 1.0 - pre * total
    # Q = pre / (b_0 + c_1 / (b_1 + c_2 / (b_2 + ...))), with
    # b_n = x + 2n + 1 - a and c_n = -n (n - a)
    b = x + 1.0 - a
    c, d = 1.0 / _LENTZ_TINY, 1.0 / b
    h = d
    for n in range(1, _GAMMA_TERMS):
        cn = -n * (n - a)
        b += 2.0
        d = b + cn * d
        d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
        c = b + cn / c
        c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-16:
            break
    return pre * h


def poisson_pmf(ks, lam):
    """P(N = k) for each k of ks, N Poisson with mean lam > 0, in log space
    in the order of scipy.stats.poisson.pmf."""
    return np.array([math.exp(k * math.log(lam) - math.lgamma(k + 1) - lam)
                     for k in ks])


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


def bonferroni(tests):
    """The (statistic, p-value) of the test with the smallest p-value in a
    family, that p-value times the family size, capped at 1."""
    stat, p = min(tests, key=lambda test: test[1])
    return stat, min(1.0, len(tests) * p)


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
