"""Slow, independent KS statistics: the test oracles of polyxport.stats."""
import numpy as np


def ks_distance_slow(samples, cdf, grid=None):
    """Grid-scan oracle for ks_distance (dense evaluation, O(n*grid))."""
    samples = np.asarray(samples, dtype=float)
    fin = samples[np.isfinite(samples)]
    total = len(fin) / len(samples)
    if grid is None:
        grid = np.unique(np.concatenate([fin, fin - 1e-9, fin + 1e-9]))
    emp = np.array([(fin <= g).mean() * total for g in grid])
    return float(np.max(np.abs(emp - np.asarray(cdf(grid)))))


def ks_two_sample_slow(a, b):
    """Merge-walk oracle for the two-sample statistic: each step passes
    every copy of the next value in both samples, then measures D."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    i = j = 0
    d = 0.0
    while i < len(a) and j < len(b):
        t = min(a[i], b[j])
        while i < len(a) and a[i] == t:
            i += 1
        while j < len(b) and b[j] == t:
            j += 1
        d = max(d, abs(i / len(a) - j / len(b)))
    return d
