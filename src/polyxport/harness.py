"""Experiment orchestration: configs, runners, statistics, file emission.

Configs are strict JSON documents (unknown keys are errors, silent typos
in scene specs destroy experiments).  Every runner is reproducible
bit-for-bit from (config, seed) in single-threaded mode; worker pools only
distribute fixed chunks whose results merge in a fixed order.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import flight, kernels, microsim, scattering, stats, streams
from .geometry import (ConvexGrain, PeriodicBox, SceneError, check_tiled_box,
                       make_scene)
from .lattice import AffineLattice, CrystalMedium, PoissonMedium


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_SCENE_KEYS = {"dimension", "anchor", "grains", "periodic_box",
               "assume_incommensurable"}
_GRAIN_KEYS = {"id", "box", "vertices", "halfspaces", "diameter_bound", "medium"}
_MEDIUM_KEYS = {"type", "matrix", "offset", "mode"}
_BOX_KEYS = {"lo", "hi"}
_EXPERIMENT_KEYS = {"kind", "seed", "samples", "r_schedule", "lambda", "q_mode",
                    "q", "beta", "on_scatterer", "start_grain", "time",
                    "particles", "cells", "thresholds", "threads", "n_seeds",
                    "split_times", "gap_scene", "resample_offsets", "report"}
_OUTPUT_KEYS = {"dir", "timings"}
_TOP_KEYS = {"scene", "experiment", "output"}

# Verdict thresholds by experiment kind: the defaults, and the only keys
# that experiment.thresholds may set.  The flight subcommand's stationarity
# report runs the stationarity runner on a flight config.
THRESHOLDS = {
    "freepath": {"ks_final": 0.02},
    "transition": {"chi2_alpha": 0.01},
    "poisson-baseline": {"alpha": 0.01, "freepath_ks": 0.005, "gap_ks": 0.01},
    "stationarity": {"ks_alpha": 0.01},
    "flight": {"ks_alpha": 0.01},
}


def _check_keys(d, allowed, path):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError("unknown config keys: "
                          + ", ".join(f"{path}.{key}" for key in unknown))


def parse_medium(d, path="medium"):
    _check_keys(d, _MEDIUM_KEYS, path)
    kind = d.get("type")
    if kind == "poisson":
        return PoissonMedium()
    if kind == "crystal":
        if "matrix" not in d:
            raise ConfigError(f"{path}: crystal medium needs a matrix")
        lat = AffineLattice.from_rows(d["matrix"], d.get("offset"))
        return CrystalMedium(lat, d.get("mode", "anchored"))
    raise ConfigError(f"{path}: unknown medium type {kind!r}")


def parse_grain(d, path):
    _check_keys(d, _GRAIN_KEYS, path)
    gid = d.get("id")
    if gid is None:
        raise ConfigError(f"{path}: grain needs an id")
    forms = [k for k in ("box", "vertices", "halfspaces") if k in d]
    if len(forms) != 1:
        raise ConfigError(f"{path}: give exactly one of box/vertices/halfspaces")
    if "box" in d:
        lo, hi = d["box"]
        grain = ConvexGrain.box(gid, lo, hi)
    elif "vertices" in d:
        grain = ConvexGrain.from_vertices(gid, d["vertices"])
    else:
        hs = d["halfspaces"]
        if "diameter_bound" not in d:
            raise ConfigError(f"{path}: halfspace grains need diameter_bound")
        grain = ConvexGrain.from_halfspaces(gid, hs["normals"], hs["offsets"],
                                            d["diameter_bound"])
    if "medium" not in d:
        raise ConfigError(f"{path}: grain needs a medium")
    return grain, parse_medium(d["medium"], f"{path}.medium")


def parse_scene(d, path="scene"):
    _check_keys(d, _SCENE_KEYS, path)
    for key in ("dimension", "grains"):
        if key not in d:
            raise ConfigError(f"{path}: missing {key}")
    grains, media = [], []
    for i, g in enumerate(d["grains"]):
        grain, medium = parse_grain(g, f"{path}.grains[{i}]")
        grains.append(grain)
        media.append(medium)
    box = None
    if "periodic_box" in d:
        _check_keys(d["periodic_box"], _BOX_KEYS, f"{path}.periodic_box")
        try:
            box = PeriodicBox(d["periodic_box"]["lo"], d["periodic_box"]["hi"])
            check_tiled_box(grains, box)
        except SceneError as err:
            raise ConfigError(f"{path}.periodic_box: {err}") from None
    return make_scene(d["dimension"], grains, media, periodic_box=box,
                      anchor=d.get("anchor"),
                      assume_incommensurable=d.get("assume_incommensurable",
                                                   False))


def check_scene_for_kind(scene, kind, report=None):
    """ConfigError naming scene.periodic_box unless the runner of `kind`
    (or of a flight config's `report`) works on this scene."""
    box = scene.periodic_box
    if kind in ("freepath", "transition") and box is not None:
        raise ConfigError(f"scene.periodic_box: {kind} experiments trace "
                          "the microscopic dynamics of a finite scene")
    if "stationarity" in (kind, report) and box is None:
        raise ConfigError("scene.periodic_box: stationarity experiments need "
                          "a periodic box tiled by one grain")


@dataclass
class ExperimentConfig:
    raw: dict
    scene: object
    kind: str
    seed: int
    samples: int
    r_schedule: list
    options: dict       # the experiment section less its thresholds,
                        # with gap_scene parsed to a Scene
    thresholds: dict    # THRESHOLDS[kind] with the config's overrides
    out_dir: Optional[str] = None
    timings: bool = False

    @classmethod
    def from_dict(cls, doc):
        _check_keys(doc, _TOP_KEYS, "<top>")
        if "scene" not in doc or "experiment" not in doc:
            raise ConfigError("config needs scene and experiment sections")
        scene = parse_scene(doc["scene"])
        exp = doc["experiment"]
        _check_keys(exp, _EXPERIMENT_KEYS, "experiment")
        kind = exp.get("kind")
        if kind not in THRESHOLDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        check_scene_for_kind(scene, kind, exp.get("report"))
        given = exp.get("thresholds", {})
        _check_keys(given, set(THRESHOLDS[kind]), "experiment.thresholds")
        thresholds = dict(THRESHOLDS[kind])
        thresholds.update((key, float(value)) for key, value in given.items())
        seed = int(exp.get("seed", 0))
        samples = int(exp.get("samples", 1000))
        if samples < 1000:
            raise ConfigError("sample count must be at least 1000")
        rs = list(exp.get("r_schedule", []))
        if rs and not all(a > b for a, b in zip(rs, rs[1:])):
            raise ConfigError("r schedule must be strictly decreasing")
        out = doc.get("output", {})
        _check_keys(out, _OUTPUT_KEYS, "output")
        options = {k: v for k, v in exp.items() if k != "thresholds"}
        if "gap_scene" in options:
            options["gap_scene"] = parse_scene(options["gap_scene"],
                                               "experiment.gap_scene")
        return cls(doc, scene, kind, seed, samples, rs, options, thresholds,
                   out.get("dir"), bool(out.get("timings", False)))

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def with_seed(self, seed):
        doc = json.loads(json.dumps(self.raw))
        doc["experiment"]["seed"] = int(seed)
        return ExperimentConfig.from_dict(doc)

    @property
    def threads(self):
        t = self.options.get("threads")
        if t is None:
            t = os.environ.get("POLYXPORT_THREADS", "1")
        return max(int(t), 1)


def _threshold(config, kind, key):
    """The threshold `key` of the runner for `kind`.

    The CLI runs each experiment subcommand on a config of any kind; a
    config of another kind runs with that runner's default.
    """
    return config.thresholds.get(key, THRESHOLDS[kind][key])


# ---------------------------------------------------------------------------
# limit-side curves
# ---------------------------------------------------------------------------

def direction_grid(scene, lambda_spec=None, m=2048):
    """Quadrature nodes/weights for the direction law."""
    spec = lambda_spec or {"type": "uniform"}
    d = scene.dimension
    if spec.get("type") == "uniform":
        if d == 2:
            th = (np.arange(m) + 0.5) * 2.0 * np.pi / m
            dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
            wts = np.full(m, 1.0 / m)
        else:
            mc = max(int(np.sqrt(m / 2)), 16)
            nodes, ws = np.polynomial.legendre.leggauss(mc)
            ph = (np.arange(2 * mc) + 0.5) * np.pi / mc
            ct = nodes
            st = np.sqrt(1 - ct ** 2)
            dirs = np.stack([
                np.outer(st, np.cos(ph)).ravel(),
                np.outer(st, np.sin(ph)).ravel(),
                np.outer(ct, np.ones_like(ph)).ravel()], axis=1)
            wts = np.outer(ws / 2.0, np.full(2 * mc, 0.5 / mc)).ravel()
        return dirs, wts
    if spec.get("type") == "cap" and d == 2:
        a0, a1 = spec.get("angles", (0.0, 2 * np.pi))
        th = a0 + (np.arange(m) + 0.5) * (a1 - a0) / m
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(m, 1.0 / m)
    raise ConfigError("unsupported direction law for the limit quadrature")


def limit_freepath_cdf(scene, x, lambda_spec=None, xi_grid=None,
                       on_scatterer=False, beta=None, m_dirs=2048):
    """CDF of the limiting free path law, averaged over directions.

    Each direction's survival curve on the xi grid (closed-form survival
    products over the segment table from x) is one row of
    flight.survival_blocks, which yields blocks of flight.TABLE_ROWS
    directions; the weighted CDFs add up direction by direction.  In the on-scatterer mode
    the exit parameter beta(v) of each direction enters the
    scatterer-start marginal, and a base point outside every grain raises
    ConfigError.  Returns (grid, cdf values) for linear interpolation.
    """
    if xi_grid is None:
        xi_grid = np.linspace(0.0, 4.0 / kernels.sigma_bar(scene.dimension), 2049)
    dirs, wts = direction_grid(scene, lambda_spec, m_dirs)
    z = None
    if on_scatterer:
        z = np.array([(beta(v) @ scattering.frame_matrix(v))[1:]
                      for v in dirs])
    xs = np.broadcast_to(np.asarray(x, dtype=float), dirs.shape)
    acc = np.zeros_like(xi_grid)
    try:
        for rows, surv in flight.survival_blocks(scene, xs, dirs, xi_grid, z):
            np.subtract(1.0, surv, out=surv)
            surv *= wts[rows, None]
            # one add per direction: a blocked sum would round differently
            for cdf in surv:
                acc += cdf
            del surv, cdf    # free this block before the next is built
    except flight.OffGrainStart as exc:
        raise ConfigError("on-scatterer limit needs an in-grain base "
                          "point") from exc
    return xi_grid, acc


def mean_survival_curve(scene, xs, vs, grid):
    """Mean generic-start survival curve over rays (x, v), added ray by ray."""
    total = np.zeros(len(grid))
    for _, surv in flight.survival_blocks(scene, xs, vs, grid):
        for curve in surv:
            total += curve
    return total / len(xs)


def interp_cdf(grid, values):
    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), grid, values,
                         left=0.0, right=values[-1])
    return cdf


# Runners look the tau_1 sampler up under this name, which lets a test
# substitute it (perfbench/tests does).
sample_tau1 = microsim.sample_tau1_distribution


def _beta_from_options(options):
    spec = options.get("beta", {"mode": "zero"})
    return microsim.BetaSpec(spec.get("mode", "zero"),
                             float(spec.get("alpha", 0.0)))


def micro_config(config, r):
    opt = config.options
    return microsim.MicroConfig(
        r=r, seed=config.seed, beta=_beta_from_options(opt),
        q_mode=opt.get("q_mode", "random"),
        q=np.asarray(opt["q"], dtype=float) if "q" in opt else None,
        on_scatterer=bool(opt.get("on_scatterer", False)),
        start_grain=opt.get("start_grain"),
        resample_offsets=bool(opt.get("resample_offsets", False)))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_freepath(config):
    """Microscopic tau_1 law against the limit CDF across the r schedule."""
    scene = config.scene
    if not config.r_schedule:
        raise ConfigError("freepath needs an r_schedule")
    lam = config.options.get("lambda")
    ks_limit = _threshold(config, "freepath", "ks_final")
    on_scatterer = bool(config.options.get("on_scatterer", False))
    beta = _beta_from_options(config.options)
    grid, cdf_vals = limit_freepath_cdf(
        scene, scene.anchor, lam,
        on_scatterer=on_scatterer, beta=beta if on_scatterer else None)
    cdf = interp_cdf(grid, cdf_vals)
    rows = []
    for r in config.r_schedule:
        cfg = micro_config(config, r)
        samp = sample_tau1(scene, cfg, config.samples, lam, config.threads)
        ks = stats.ks_distance(
            stats.EmpiricalCDF.from_samples(samp.tau1), cdf)
        rows.append({"r": r, "epsilon": samp.epsilon, "n": samp.n,
                     "ks": ks, "escape_fraction": samp.escape_fraction,
                     "limit_escape": 1.0 - float(cdf_vals[-1])})
    ks_seq = [row["ks"] for row in rows]
    report = {
        "experiment": "freepath",
        "config_hash": config.hash(),
        "seed": config.seed,
        "per_r": rows,
        "ks_decreasing": all(a > b for a, b in zip(ks_seq, ks_seq[1:])),
        "ks_final": ks_seq[-1],
        "ks_final_ok": ks_seq[-1] < ks_limit,
        "limit_grid": grid.tolist(),
        "limit_cdf": cdf_vals.tolist(),
    }
    report["verdict"] = bool(report["ks_decreasing"] and report["ks_final_ok"])
    return report


def transition_cells(scene, config):
    opts = config.options.get("cells", {})
    xi_edges = opts.get("xi_edges")
    u_edges = opts.get("u_edges")
    if xi_edges is None:
        hi = 1.2 / kernels.sigma_bar(scene.dimension)
        xi_edges = list(np.linspace(0.0, hi, 5))
    if u_edges is None:
        u_edges = list(np.linspace(-1.0, 1.0, 5))
    return np.asarray(xi_edges, dtype=float), np.asarray(u_edges, dtype=float)


def limit_transition_mass(scene, x, lambda_spec, xi_edges, u_edges,
                          m_dirs=1024):
    """Limit masses per (xi interval x u-slab) cell via the product form.

    d=2 only: the in-grain marginal factorizes as Phi(xi, w) = Phi(xi)/2,
    so each cell mass is the path-length mass times |u cell| / sigma_bar.
    """
    if scene.dimension != 2:
        raise ConfigError("transition cells implemented for d=2")
    grid, cdf_vals = limit_freepath_cdf(scene, x, lambda_spec,
                                        m_dirs=m_dirs)
    cdf = interp_cdf(grid, cdf_vals)
    nx, nu = len(xi_edges) - 1, len(u_edges) - 1
    out = np.zeros((nx, nu))
    for i in range(nx):
        pxi = cdf(xi_edges[i + 1]) - cdf(xi_edges[i])
        for j in range(nu):
            out[i, j] = pxi * (u_edges[j + 1] - u_edges[j]) / 2.0
    return out


def run_transition(config):
    """Joint (tau_1, impact direction) cells against the limit masses."""
    scene = config.scene
    lam = config.options.get("lambda")
    alpha = _threshold(config, "transition", "chi2_alpha")
    if not config.r_schedule:
        raise ConfigError("transition needs an r_schedule")
    r = config.r_schedule[-1]
    samp = sample_tau1(scene, micro_config(config, r), config.samples,
                       lam, config.threads)
    xi_edges, u_edges = transition_cells(scene, config)
    limit = limit_transition_mass(scene, scene.anchor, lam, xi_edges, u_edges)
    fin = np.isfinite(samp.tau1)
    upar = samp.u_impact[:, 1]
    counts = np.histogram2d(samp.tau1[fin], upar[fin],
                            bins=[xi_edges, u_edges])[0]
    n = samp.n
    rest_obs = n - counts.sum()
    rest_p = max(1.0 - limit.sum(), 0.0)
    obs = np.concatenate([counts.ravel(), [rest_obs]])
    probs = np.concatenate([limit.ravel(), [rest_p]])
    stat, p = stats.chi2_gof(obs, probs, n_constraints=1)
    report = {
        "experiment": "transition",
        "config_hash": config.hash(),
        "seed": config.seed,
        "r": r,
        "xi_edges": list(map(float, xi_edges)),
        "u_edges": list(map(float, u_edges)),
        "observed": counts.tolist(),
        "expected": (limit * n).tolist(),
        "chi2": stat,
        "p_value": p,
        "alpha": alpha,
        "verdict": bool(p > alpha),
    }
    return report


def run_poisson_baseline(config):
    """Exponential paths, memorylessness and collision counts (disordered)."""
    scene = config.scene
    for m in scene.media:
        if m.kind != "poisson":
            raise ConfigError("poisson baseline needs all-poisson media")
    sb = kernels.sigma_bar(scene.dimension)
    n = config.samples
    seed = config.seed
    alpha = _threshold(config, "poisson-baseline", "alpha")
    freepath_ks_limit = _threshold(config, "poisson-baseline", "freepath_ks")
    gap_ks_limit = _threshold(config, "poisson-baseline", "gap_ks")
    report = {"experiment": "poisson-baseline", "config_hash": config.hash(),
              "seed": seed, "sigma_bar": sb}

    # (a) free path law on the configured (tiled) scene
    rng = streams.rng("baseline.freepath", seed)
    ens = flight.sample_initial(scene, n, rng, position="uniform_box"
                                if scene.periodic_box is not None
                                else "uniform_grains")
    ks_exp = stats.ks_distance(stats.EmpiricalCDF.from_samples(ens.xi),
                               lambda x: 1.0 - np.exp(-sb * x))
    report["freepath_ks"] = ks_exp

    # (b) memorylessness: xi after a collision vs previous incoming direction
    m_chain = max(n // 10, 1000)
    rng2 = streams.rng("baseline.memoryless", seed)
    x0 = flight.sample_positions(scene, m_chain, rng2,
                                 "uniform_box" if scene.periodic_box is not None
                                 else "uniform_grains")
    v_prev = scattering.sample_direction(rng2, scene.dimension, m_chain)
    b = scattering.sample_ball(rng2, scene.dimension - 1, m_chain)
    v_now = scattering.deflect_many(v_prev, b)
    xi2, _ = flight.sample_collision(scene, x0, v_prev, v_now, rng2)
    fin = np.isfinite(xi2)
    ang = np.arctan2(v_prev[fin, 1], v_prev[fin, 0])
    abins = np.linspace(-np.pi, np.pi, 9)
    qbins = np.quantile(xi2[fin], np.linspace(0, 1, 9))
    qbins[0], qbins[-1] = -np.inf, np.inf
    table = np.histogram2d(ang, xi2[fin], bins=[abins, qbins])[0]
    stat_mem, p_mem = stats.chi2_independence(table)
    report["memoryless_chi2"] = stat_mem
    report["memoryless_p"] = p_mem

    # (c) collision counts over one mean free path horizon
    if scene.periodic_box is not None:
        t = float(config.options.get("time", 2.0 / sb))
        m_cnt = min(n, 200000)
        rng3 = streams.rng("baseline.counts", seed)
        ens3 = flight.sample_initial(scene, m_cnt, rng3, position="uniform_box")
        ens3 = flight.evolve(scene, ens3, t, rng3)
        counts = flight.n_collision_histogram(ens3)
        kmax = len(counts) - 1
        ks_ = np.arange(kmax + 1)
        lam_t = sb * t
        from scipy.stats import poisson as _poisson
        pmf = _poisson.pmf(ks_, lam_t)
        pmf[-1] = 1.0 - pmf[:-1].sum()
        stat_cnt, p_cnt = stats.chi2_gof(counts, pmf, n_constraints=1,
                                         min_expected=5.0)
        report["collisions_time"] = t
        report["collisions_chi2"] = stat_cnt
        report["collisions_p"] = p_cnt

    # (d) gap-discounted survival on a secondary scene
    if "gap_scene" in config.options:
        gap_scene = config.options["gap_scene"]
        rng4 = streams.rng("baseline.gap", seed)
        n_gap = min(n, 200000)
        xs = flight.sample_positions(gap_scene, n_gap, rng4, "uniform_grains")
        vs = scattering.sample_direction(rng4, gap_scene.dimension, n_gap)
        xi_g, _ = flight.sample_xi_w(gap_scene, xs, vs, rng4, kind="psi")
        # oracle CDF: average closed-form survival over the same (x, v) set
        sub = slice(0, min(n_gap, 4000))
        grid = np.linspace(0.0, 5.0 / sb, 513)
        surv = mean_survival_curve(gap_scene, xs[sub], vs[sub], grid)
        cdf = interp_cdf(grid, 1.0 - surv)
        ks_gap = stats.ks_distance(stats.EmpiricalCDF.from_samples(xi_g), cdf)
        report["gap_ks"] = ks_gap

    report["alpha"] = alpha
    report["verdict"] = bool(
        report["freepath_ks"] < freepath_ks_limit and p_mem > alpha
        and report.get("collisions_p", 1.0) > alpha
        and report.get("gap_ks", 0.0) < gap_ks_limit)
    return report


def run_stationarity(config):
    """Stationarity of the extended-state law plus the semigroup split."""
    scene = config.scene
    n = int(config.options.get("particles", config.samples))
    sb = kernels.sigma_bar(scene.dimension)
    t = float(config.options.get("time", 5.0 / sb))
    n_seeds = int(config.options.get("n_seeds", 10))
    alpha = _threshold(config, "stationarity", "ks_alpha")
    split = config.options.get("split_times", [0.4 * t, 0.6 * t])
    per_seed = []
    for k in range(n_seeds):
        seed = config.seed + k
        rep = flight.stationarity_test(scene, n, t, seed, split=split)
        per_seed.append({"seed": seed, **asdict(rep)})
    ok = all(row["ks_xi"][1] > alpha and row["ks_vplus"][1] > alpha
             and row["ks_split"][1] > alpha for row in per_seed)
    return {
        "experiment": "stationarity",
        "config_hash": config.hash(),
        "seed": config.seed,
        "particles": n,
        "time": t,
        "alpha": alpha,
        "per_seed": per_seed,
        "verdict": bool(ok),
    }


def run_flight(config):
    """Ensemble evolution with the n-collision decomposition.

    The 'marginals' report flavor adds histograms of the evolved
    extended-state coordinates for plotting.
    """
    scene = config.scene
    n = int(config.options.get("particles", config.samples))
    sb = kernels.sigma_bar(scene.dimension)
    t = float(config.options.get("time", 2.0 / sb))
    flavor = config.options.get("report", "ncollision")
    rng = streams.rng("flight.evolve", config.seed)
    pos = "uniform_box" if scene.periodic_box is not None else "uniform_grains"
    ens0 = flight.sample_initial(scene, n, rng, position=pos)
    esc0 = ens0.escape_fraction
    ens = flight.evolve(scene, ens0, t, rng)
    counts = flight.n_collision_histogram(ens)
    rng_o = streams.rng("flight.n0_oracle", config.seed)
    frac0_oracle = flight.no_collision_fraction_quadrature(
        scene, t, min(n, 20000), rng_o, position=pos)
    report = {
        "experiment": "flight",
        "config_hash": config.hash(),
        "seed": config.seed,
        "particles": n,
        "time": t,
        "report": flavor,
        "initial_escape_fraction": esc0,
        "n_collision_counts": counts.tolist(),
        "n0_fraction": float(counts[0] / n),
        "n0_fraction_oracle": frac0_oracle,
    }
    if flavor == "marginals":
        fin = np.isfinite(ens.xi)
        xi_edges = np.linspace(0.0, 4.0 / sb, 41)
        ang = np.arctan2(ens.v[:, 1], ens.v[:, 0])
        ang_edges = np.linspace(-np.pi, np.pi, 41)
        report["xi_hist"] = {
            "edges": xi_edges.tolist(),
            "counts": np.histogram(ens.xi[fin], xi_edges)[0].tolist()}
        report["v_angle_hist"] = {
            "edges": ang_edges.tolist(),
            "counts": np.histogram(ang, ang_edges)[0].tolist()}
    return report


RUNNERS = {
    "freepath": run_freepath,
    "transition": run_transition,
    "poisson-baseline": run_poisson_baseline,
    "stationarity": run_stationarity,
    "flight": run_flight,
}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


def emit(report, out_dir, config=None, runtime_seconds=None):
    """Write the JSON summary and per-experiment CSV tables.

    Output is byte-stable for a fixed (config, seed); wall times are only
    recorded when the config opts into timings.
    """
    os.makedirs(out_dir, exist_ok=True)
    summary = dict(report)
    summary["runtime_seconds"] = runtime_seconds if (
        config is not None and config.timings) else None
    for heavy in ("limit_grid", "limit_cdf"):
        summary.pop(heavy, None)
    path = os.path.join(out_dir, f"{report['experiment']}_summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")
    files = [path]
    if report["experiment"] == "freepath":
        p = os.path.join(out_dir, "freepath_ks.csv")
        write_csv(p, ["r", "epsilon", "n", "ks", "escape_fraction",
                      "limit_escape"],
                  [[row["r"], row["epsilon"], row["n"], row["ks"],
                    row["escape_fraction"], row["limit_escape"]]
                   for row in report["per_r"]])
        files.append(p)
        if "limit_grid" in report:
            p = os.path.join(out_dir, "freepath_limit_cdf.csv")
            write_csv(p, ["xi", "cdf"],
                      list(zip(report["limit_grid"], report["limit_cdf"])))
            files.append(p)
    if report["experiment"] == "transition":
        p = os.path.join(out_dir, "transition_cells.csv")
        rows = []
        for i, obs_row in enumerate(report["observed"]):
            for j, obs in enumerate(obs_row):
                rows.append([report["xi_edges"][i], report["xi_edges"][i + 1],
                             report["u_edges"][j], report["u_edges"][j + 1],
                             obs, report["expected"][i][j]])
        write_csv(p, ["xi_lo", "xi_hi", "u_lo", "u_hi", "observed",
                      "expected"], rows)
        files.append(p)
    if report["experiment"] == "stationarity":
        p = os.path.join(out_dir, "stationarity_seeds.csv")
        write_csv(p, ["seed", "ks_xi", "p_xi", "ks_vplus", "p_vplus",
                      "ks_split", "p_split"],
                  [[row["seed"], row["ks_xi"][0], row["ks_xi"][1],
                    row["ks_vplus"][0], row["ks_vplus"][1],
                    row["ks_split"][0], row["ks_split"][1]]
                   for row in report["per_seed"]])
        files.append(p)
    return files


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_tau1_csv(path, samp):
    """Raw microscopic sample table (one row per direction)."""
    d = samp.directions.shape[1]
    header = (["sample_id", "r", "tau1", "hit_grain"]
              + [f"uK_{i + 1}" for i in range(d)] + ["escaped"])
    rows = []
    for i in range(samp.n):
        rows.append([i, samp.r, samp.tau1[i], samp.hit_grain[i],
                     *samp.u_impact[i], int(samp.escaped[i])])
    write_csv(path, header, rows)


def run_experiment(config):
    if config.kind not in RUNNERS:
        raise ConfigError(f"no runner for kind {config.kind!r}")
    return RUNNERS[config.kind](config)
