"""Acceptance suite: one test per criterion, with a printed verdict line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic for the frozen seeds below.
"""
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson as poisson_dist

from polyxport import (flight, harness, kernels, microsim, polykernel,
                       presets, scattering, stats)
from polyxport.kernels import ZETA3

import kernel_oracles

PI = np.pi


def _report(num, ok, detail, elapsed=None, budget=None):
    tick = "PASS" if ok else "FAIL"
    timing = f", {elapsed:.1f}s" if elapsed is not None else ""
    print(f"[acceptance] criterion {num:2d}: {tick} ({detail}{timing})")
    assert ok, f"criterion {num}: {detail}"
    if elapsed is not None and budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


# -- criterion 1: kernel unit values ---------------------------------------

def test_criterion_01_kernel_unit_values():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    xi = rng.uniform(1e-6, 0.5, 1000)
    w = rng.uniform(-1, 1, 1000)
    z = rng.uniform(-1, 1, 1000)
    dev_const = float(np.max(np.abs(
        kernels.phi0_2d(xi, w, z) - 6 / PI ** 2)))

    grid2 = np.linspace(0, 0.5, 1001)
    dev_phi2 = float(np.max(np.abs(
        kernels.phi_freepath(grid2, 2) - (2 - 24 / PI ** 2 * grid2))))
    dev_dphi2 = float(np.max(np.abs(
        kernels.d_phi(grid2, 2) - (1 - 2 * grid2 + 12 / PI ** 2 * grid2 ** 2))))

    grid3 = np.linspace(0, 0.25, 1001)
    phi3 = PI - PI ** 2 / ZETA3 * grid3 \
        + (3 * PI ** 2 + 16) / (2 * PI * ZETA3) * grid3 ** 2
    dphi3 = 1 - PI * grid3 + PI ** 2 / (2 * ZETA3) * grid3 ** 2 \
        - (3 * PI ** 2 + 16) / (6 * PI * ZETA3) * grid3 ** 3
    dev_phi3 = float(np.max(np.abs(kernels.phi_freepath(grid3, 3) - phi3)))
    dev_dphi3 = float(np.max(np.abs(kernels.d_phi(grid3, 3) - dphi3)))

    poly_dev = max(dev_phi2, dev_dphi2, dev_phi3, dev_dphi3)
    elapsed = time.perf_counter() - t0
    _report(1, dev_const < 1e-12 and poly_dev == 0.0,
            f"phi0 const dev {dev_const:.2e}, polynomial dev {poly_dev:.2e}",
            elapsed, budget=1.0)


# -- criterion 2: G endpoints and monotonicity ------------------------------

def test_criterion_02_g_endpoints():
    t0 = time.perf_counter()
    g0 = kernel_oracles.g_direct(0.0)
    g1 = kernel_oracles.g_direct(1.0)
    e0 = abs(g0 - PI * (4 * PI + 3 * np.sqrt(3)) / 16)
    e1 = abs(g1 - (5 * PI ** 2 / 16 + 1))
    grid = np.linspace(0, 1, 1000)
    vals = kernel_oracles.g_direct(grid)
    increasing = bool(np.all(np.diff(vals) > 0))
    elapsed = time.perf_counter() - t0
    _report(2, e0 < 1e-8 and e1 < 1e-8 and increasing,
            f"|G(0)| err {e0:.1e}, |G(1)| err {e1:.1e}, increasing={increasing}",
            elapsed, budget=5.0)


# -- criterion 3: d=3 consistency chain -------------------------------------

def _disk_integral_cartesian(xi, w):
    """Adaptive slice integral of the d=3 pair kernel over the unit disk.

    Outer axis adaptive (QUADPACK) with a breakpoint at the kink abscissa
    x = w_1; inner axis by split Gauss panels around y = w_2.  Independent
    of the radial route used to evaluate G.
    """
    nodes, wts = np.polynomial.legendre.leggauss(96)

    def inner(x):
        half = np.sqrt(max(1 - x * x, 0.0))
        if half == 0:
            return 0.0
        total = 0.0
        cuts = [-half, min(max(w[1], -half), half), half]
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                continue
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            z = np.stack([np.full_like(y, x), y], axis=1)
            vals = kernels.phi0_3d(xi, w[None, :], z)
            total += 0.5 * (b - a) * float(vals @ wts)
        return total

    val, _ = quad(inner, -1, 1, points=[float(w[0])], limit=200,
                  epsabs=1e-9, epsrel=1e-10)
    return val


def test_criterion_03_consistency_chain_3d():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        xi = rng.uniform(h, 0.25 - h)
        while True:
            w = rng.uniform(-1, 1, 2)
            if w @ w < 1:
                break
        dphi = (kernels.phi_marginal(xi + h, w, 3)
                - kernels.phi_marginal(xi - h, w, 3)) / (2 * h)
        integral = _disk_integral_cartesian(xi, w)
        worst = max(worst, abs(dphi + integral))
    elapsed = time.perf_counter() - t0
    _report(3, worst < 1e-5, f"max |dPhi/dxi + int Phi0 dz| = {worst:.2e}",
            elapsed, budget=30.0)


# -- criterion 4: bounds and tails -------------------------------------------

def test_criterion_04_bounds_and_tails():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)

    n = 10000
    xi3 = rng.uniform(0, 0.25, n)
    w3 = scattering.sample_ball(rng, 2, n)
    z3 = scattering.sample_ball(rng, 2, n)
    vals = kernels.phi0_3d(xi3, w3, z3)
    bracket3 = bool(np.all(vals <= 1 / ZETA3 + 1e-12)
                    and np.all(vals >= (1 - 4 * PI * xi3) / ZETA3 - 1e-12))
    xi2 = rng.uniform(1e-9, 0.5, n)
    w2 = rng.uniform(-1, 1, n)
    z2 = rng.uniform(-1, 1, n)
    v2 = kernels.phi0_2d(xi2, w2, z2)
    bracket2 = bool(np.all(v2 <= 1 / kernels.ZETA2 + 1e-12)
                    and np.all(v2 >= (1 - 4 * xi2) / kernels.ZETA2 - 1e-12))

    ok_tail = True
    for dim, hi in ((2, 0.5), (3, 0.25)):
        g = np.linspace(0, hi, 4000)
        ok_tail &= bool(np.all(kernels.d_phi(g, dim)
                               <= kernels.tail_bound(g, dim) + 1e-12))

    ok_env = True
    worst_margin = np.inf
    for trial in range(125):
        scene = presets.random_scene_2d(np.random.default_rng(trial),
                                        medium="crystal" if trial % 2 else "poisson")
        rows = []
        for _ in range(8):
            x = rng.uniform(-0.3, 0.8, 2)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            xi = rng.uniform(0, 2.0)
            w = scattering.sample_ball(rng, 1)
            z = scattering.sample_ball(rng, 1)
            rows.append((x, v, xi, w, z))
        xs, vs, xis, ws, zs = map(np.array, zip(*rows))
        bound = polykernel.psi_tail_bound(scene, xs, vs, xis)
        val = np.max([polykernel.family_rows(scene, xs, vs, xis, family,
                                             w=ws, z=zs)
                      for family in ("psi", "psi_marg_w", "psi0_marg",
                                     "psi0_full")], axis=0)
        worst_margin = min(worst_margin, np.min(bound - val))
        ok_env &= bool(np.all(val <= bound + 1e-12))
    elapsed = time.perf_counter() - t0
    _report(4, bracket2 and bracket3 and ok_tail and ok_env,
            f"brackets d2={bracket2} d3={bracket3}, D_Phi tail={ok_tail}, "
            f"psi envelope min margin {worst_margin:.3f}", elapsed, budget=30.0)


# -- criterion 5: symmetry suite ---------------------------------------------

def test_criterion_05_symmetries():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)

    n = 1000
    xi3 = rng.uniform(1e-6, 0.25, n)
    w3 = scattering.sample_ball(rng, 2, n)
    z3 = scattering.sample_ball(rng, 2, n)
    swap3 = float(np.max(np.abs(kernels.phi0_3d(xi3, w3, z3)
                                - kernels.phi0_3d(xi3, z3, w3))))
    xi2 = rng.uniform(1e-6, 2.0, n)
    w2 = rng.uniform(-1, 1, n)
    z2 = rng.uniform(-1, 1, n)
    swap2 = float(np.max(np.abs(kernels.phi0_2d(xi2, w2, z2)
                                - kernels.phi0_2d(xi2, z2, w2))))
    swap_dev = max(swap2, swap3)

    rot_dev = 0.0
    th = rng.uniform(0, 2 * PI, n)
    refl = rng.random(n) < 0.5
    for i in range(n):
        R = np.array([[np.cos(th[i]), np.sin(th[i])],
                      [-np.sin(th[i]), np.cos(th[i])]])
        if refl[i]:
            R = R @ np.diag([1.0, -1.0])
        rot_dev = max(rot_dev, abs(
            float(kernels.phi0_3d(xi3[i], w3[i] @ R, z3[i] @ R))
            - float(kernels.phi0_3d(xi3[i], w3[i], z3[i]))))

    tr_dev = 0.0
    count = 0
    trial = 0
    while count < 1000:
        scene = presets.random_scene_2d(np.random.default_rng(2000 + trial))
        trial += 1
        rows = []
        for _ in range(40):
            x = rng.uniform(-0.2, 1.0, 2)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            xi = rng.uniform(0.01, 1.2)
            w = scattering.sample_ball(rng, 1)
            z = scattering.sample_ball(rng, 1)
            rows.append((x, v, xi, w, z))
        xs, vs, xis, ws, zs = map(np.array, zip(*rows))
        lhs = polykernel.family_rows(scene, xs + xis[:, None] * vs, -vs, xis,
                                     "psi0_full", w=zs, z=ws)
        rhs = polykernel.family_rows(scene, xs, vs, xis, "psi0_full",
                                     w=ws, z=zs)
        tr_dev = max(tr_dev, np.max(np.abs(lhs - rhs)))
        count += len(rows)
    elapsed = time.perf_counter() - t0
    _report(5, swap_dev < 1e-10 and rot_dev < 1e-10 and tr_dev < 1e-10,
            f"swap {swap_dev:.1e}, rotation {rot_dev:.1e}, "
            f"time-reversal {tr_dev:.1e}", elapsed, budget=10.0)


# -- criterion 6: cross section ----------------------------------------------

def test_criterion_06_cross_section():
    t0 = time.perf_counter()
    v2 = np.array([1.0, 0.0])
    total2, _ = quad(lambda t: scattering.cross_section(
        v2, np.array([np.cos(t), np.sin(t)])), 1e-12, 2 * PI - 1e-12,
        epsabs=1e-10, limit=200)
    err2 = abs(total2 - 2.0)

    nodes, wts = np.polynomial.legendre.leggauss(128)
    v3 = np.array([0.0, 0.0, 1.0])
    total3 = 0.0
    for c, wt in zip(nodes, wts):
        s = np.sqrt(1 - c * c)
        total3 += wt * scattering.cross_section(
            v3, np.array([s, 0.0, c])) * 2 * PI
    err3 = abs(total3 - PI)

    rng = np.random.default_rng(106)
    n = 100000
    b = rng.uniform(-1, 1, n)
    vp = scattering.deflect_many(np.tile(v2, (n, 1)), b[:, None])
    ang = np.mod(np.arctan2(vp[:, 1], vp[:, 0]), 2 * PI)
    edges = np.linspace(0, 2 * PI, 33)
    counts = np.histogram(ang, edges)[0]
    probs = np.diff(-np.cos(edges / 2)) / 2.0
    chi2_stat, p = stats.chi2_gof(counts, probs)
    elapsed = time.perf_counter() - t0
    _report(6, err2 < 1e-6 and err3 < 1e-6 and p > 0.01,
            f"total err d2 {err2:.1e} d3 {err3:.1e}, pushforward p={p:.3f}",
            elapsed, budget=30.0)


# -- criteria 7 and 8: Boltzmann-Grad convergence ----------------------------

R_SCHEDULE = [1e-2, 3e-3, 1e-3]
N_PER_R = 100000


@pytest.fixture(scope="module")
def convergence_run():
    """Shared tau_1 sweep for criteria 7 and 8 (annealed offsets)."""
    scene = presets.two_squares_2d(mode="random-offset")
    grid, cdf_vals = harness.limit_freepath_cdf(scene, scene.anchor)
    cdf = harness.interp_cdf(grid, cdf_vals)
    samples = {}
    for r in R_SCHEDULE:
        cfg = microsim.MicroConfig(r=r, seed=107, q_mode="zero",
                                   resample_offsets=True)
        samples[r] = microsim.sample_tau1_distribution(scene, cfg, N_PER_R)
    return scene, cdf, samples


def test_criterion_07_freepath_convergence(convergence_run):
    t0 = time.perf_counter()
    scene, cdf, samples = convergence_run
    ks = [stats.ks_distance(samples[r].tau1, cdf) for r in R_SCHEDULE]
    decreasing = all(a > b for a, b in zip(ks, ks[1:]))
    final_ok = ks[-1] < 0.02
    elapsed = time.perf_counter() - t0
    _report(7, decreasing and final_ok,
            "KS " + " > ".join(f"{k:.4f}" for k in ks)
            + f", decreasing={decreasing}, final<0.02={final_ok}",
            elapsed, budget=600.0)


def test_criterion_08_transition_cells(convergence_run):
    t0 = time.perf_counter()
    scene, _, samples = convergence_run
    samp = samples[R_SCHEDULE[-1]]
    xi_edges = np.linspace(0.0, 0.6, 5)
    u_edges = np.linspace(-1.0, 1.0, 5)
    limit = harness.limit_transition_mass(scene, scene.anchor, xi_edges,
                                          u_edges)
    fin = np.isfinite(samp.tau1)
    counts = np.histogram2d(samp.tau1[fin], samp.u_impact[fin, 1],
                            bins=[xi_edges, u_edges])[0]
    obs = np.concatenate([counts.ravel(), [samp.n - counts.sum()]])
    probs = np.concatenate([limit.ravel(), [max(1 - limit.sum(), 0.0)]])
    chi2_stat, p = stats.chi2_gof(obs, probs)
    elapsed = time.perf_counter() - t0
    _report(8, p > 0.01, f"chi2 {chi2_stat:.1f} over {len(obs)} cells, "
            f"p={p:.3f} at r={R_SCHEDULE[-1]:g}", elapsed, budget=600.0)


# -- criterion 9: Poisson baseline -------------------------------------------

def test_criterion_09_poisson_baseline():
    t0 = time.perf_counter()
    scene = presets.tiled_box_2d(side=0.35, medium="poisson")
    rng = np.random.default_rng(109)
    n = 1000000
    ens = flight.sample_initial(scene, n, rng)
    ks_exp = stats.ks_distance(ens.xi,
                               lambda x: 1 - np.exp(-2 * np.asarray(x)))

    m = 200000
    rng2 = np.random.default_rng(110)
    x0 = flight.sample_positions(scene, m, rng2)
    v_prev = scattering.sample_direction(rng2, 2, m)
    b = scattering.sample_ball(rng2, 1, m)
    v_now = scattering.deflect_many(v_prev, b)
    xi2, _ = flight.sample_collision(scene, x0, v_prev, v_now, rng2)
    ang = np.arctan2(v_prev[:, 1], v_prev[:, 0])
    abins = np.linspace(-PI, PI, 9)
    qbins = np.quantile(xi2, np.linspace(0, 1, 9))
    qbins[0], qbins[-1] = -np.inf, np.inf
    table = np.histogram2d(ang, xi2, bins=[abins, qbins])[0]
    chi2_mem, p_mem = stats.chi2_independence(table)

    gap_scene = presets.poisson_gap_squares_2d(side=0.4, gap=0.15)
    rng3 = np.random.default_rng(111)
    ng = 200000
    xs = flight.sample_positions(gap_scene, ng, rng3)
    vs = scattering.sample_direction(rng3, 2, ng)
    xi_g, _ = flight.sample_xi_w(gap_scene, xs, vs, rng3, kind="psi")
    grid = np.linspace(0, 2.5, 801)
    m_sub = 5000
    surv = harness.mean_survival_curve(gap_scene, xs[:m_sub], vs[:m_sub], grid)
    ks_gap = stats.ks_distance(xi_g,
                               harness.interp_cdf(grid, 1 - surv))
    elapsed = time.perf_counter() - t0
    _report(9, ks_exp < 0.005 and p_mem > 0.01 and ks_gap < 0.01,
            f"exp KS {ks_exp:.4f} (<0.005), memoryless p={p_mem:.3f}, "
            f"gap survival KS {ks_gap:.4f} (<0.01)", elapsed, budget=600.0)


# -- criterion 10: stationarity ----------------------------------------------

def test_criterion_10_stationarity():
    t0 = time.perf_counter()
    # presets.tiled_box_2d(side=0.35, medium="crystal") as a config scene
    doc = {
        "scene": {
            "dimension": 2, "anchor": [0.175, 0.175],
            "periodic_box": {"lo": [0.0, 0.0], "hi": [0.35, 0.35]},
            "grains": [
                {"id": 1, "box": [[0.0, 0.0], [0.35, 0.35]],
                 "medium": {"type": "crystal",
                            "matrix": [["1", "0"], ["0", "1"]],
                            "offset": [0.318, 0.577],
                            "mode": "random-offset"}},
            ],
        },
        "experiment": {"kind": "stationarity", "seed": 0,
                       "particles": 100000, "n_seeds": 10,
                       "time": 5 * 0.5,     # five mean free paths
                       "split_times": [2 * 0.5, 3 * 0.5]},
    }
    report = harness.run_stationarity(harness.ExperimentConfig.from_dict(doc))
    rows = report["per_seed"]
    tests = (("xi", "ks_xi"), ("vplus", "ks_vplus"), ("split", "ks_split"))
    rejected = [(row["seed"], name, row[key][1]) for row in rows
                for name, key in tests if row[key][1] < report["alpha"]]
    min_p = ", ".join(f"{name} {min(row[key][1] for row in rows):.3f}"
                      for name, key in tests)
    elapsed = time.perf_counter() - t0
    _report(10, report["verdict"],
            f"10 seeds x (xi, v_plus, semigroup split), min p: {min_p}, "
            f"rejections: {rejected if rejected else 'none'}",
            elapsed, budget=600.0)


# -- criterion 11: reproducibility -------------------------------------------

def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "scene": {
            "dimension": 2, "anchor": [0.15, 0.15],
            "assume_incommensurable": True,
            "grains": [
                {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
                 "medium": {"type": "crystal",
                            "matrix": [["1", "0"], ["0", "1"]],
                            "offset": [0.318, 0.577]}},
                {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
                 "medium": {"type": "poisson"}},
            ],
        },
        "experiment": {"kind": "freepath", "seed": 11, "samples": 2000,
                       "r_schedule": [1e-2, 5e-3]},
    }
    cfg = harness.ExperimentConfig.from_dict(doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rep_a = harness.run_freepath(cfg)
    harness.emit(rep_a, str(out_a), cfg)
    rep_b = harness.run_freepath(cfg)
    harness.emit(rep_b, str(out_b), cfg)
    same = True
    import os
    for name in sorted(os.listdir(out_a)):
        same &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    elapsed = time.perf_counter() - t0
    _report(11, same, "byte-identical CSV/JSON on rerun", elapsed,
            budget=60.0)
