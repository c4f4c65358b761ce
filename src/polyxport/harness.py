"""Experiment orchestration: configs, runners, statistics, file emission.

Configs are strict JSON documents (unknown keys are errors, silent typos
in scene specs destroy experiments).  Every runner is reproducible
bit-for-bit from (config, seed) in single-threaded mode; worker pools only
distribute fixed chunks whose results merge in a fixed order.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import (flight, kernels, microsim, polykernel, scattering, stats,
               streams)
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
_GRAIN_KEYS = {"id", "box", "vertices", "medium"}
_MEDIUM_KEYS = {"type", "matrix", "offset", "mode"}
_BOX_KEYS = {"lo", "hi"}
_EXPERIMENT_KEYS = {"kind", "seed", "samples", "r_schedule", "q_mode", "beta",
                    "on_scatterer", "start_grain", "time", "particles",
                    "thresholds", "threads", "n_seeds", "split_times",
                    "gap_scene", "resample_offsets", "report"}
_BETA_KEYS = {"mode", "alpha"}
_OUTPUT_KEYS = {"dir", "timings"}
_TOP_KEYS = {"scene", "experiment", "output"}

# The report flavors of a flight config; "stationarity" runs the
# stationarity runner (runner_kind).
REPORTS = ("stationarity", "ncollision", "marginals")

# Verdict thresholds by runner (a RUNNERS key): the defaults, and the only
# keys that experiment.thresholds may set for a config that runs it.
THRESHOLDS = {
    "freepath": {"ks_final": 0.02},
    "transition": {"chi2_alpha": 0.01},
    "poisson-baseline": {"alpha": 0.01, "freepath_ks": 0.005, "gap_ks": 0.01},
    "stationarity": {"ks_alpha": 0.01},
}


def runner_kind(kind, report):
    """The RUNNERS key that runs `kind` with `report`: a flight config whose
    report is "stationarity" runs the stationarity runner."""
    return "stationarity" if (kind, report) == ("flight", "stationarity") \
        else kind


def _number(value, name, kind, rule, ok=lambda n: True):
    """kind(value) if ok holds for it; else a ConfigError naming name."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not ok(number):
        raise ConfigError(f"{name}: {value!r} is not {rule}")
    return number


def count(value, name):
    """int(value) if it is >= 1; else a ConfigError naming name."""
    return _number(value, name, int, "an integer >= 1", lambda n: n >= 1)


def check_radius(r, name):
    """ConfigError naming name unless r is a finite real > 0."""
    if not (isinstance(r, numbers.Real) and 0.0 < r < np.inf):
        raise ConfigError(f"{name}: {r!r} is not a finite radius > 0")


def _check_keys(d, allowed, path, required=()):
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError("unknown config keys: "
                          + ", ".join(f"{path}.{key}" for key in unknown))
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing")


def _point(value, dim, name):
    """value as a list of dim finite numbers, else a ConfigError naming it."""
    if not (isinstance(value, list) and len(value) == dim):
        raise ConfigError(f"{name}: {value!r} is not a point of dimension "
                          f"{dim}")
    return [_number(c, name, float, "a finite number", np.isfinite)
            for c in value]


def parse_medium(d, path, dim):
    _check_keys(d, _MEDIUM_KEYS, path)
    kind = d.get("type")
    if kind == "poisson":
        return PoissonMedium()
    if kind != "crystal":
        raise ConfigError(f"{path}: unknown medium type {kind!r}")
    rows = d.get("matrix")
    if not (isinstance(rows, list) and len(rows) == dim and all(
            isinstance(row, list) and len(row) == dim for row in rows)):
        raise ConfigError(f"{path}.matrix: {rows!r} is not a {dim}x{dim} "
                          "matrix")
    offset = _point(d.get("offset", [0.0] * dim), dim, f"{path}.offset")
    try:
        lat = AffineLattice.from_rows(rows, offset)
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{path}.matrix: {err}") from None
    try:
        return CrystalMedium(lat, d.get("mode", "anchored"))
    except ValueError as err:
        raise ConfigError(f"{path}.mode: {err}") from None


def parse_grain(d, path, dim):
    _check_keys(d, _GRAIN_KEYS, path, ("medium",))
    gid = d.get("id")
    if gid is None:
        raise ConfigError(f"{path}: grain needs an id")
    if ("box" in d) == ("vertices" in d):
        raise ConfigError(f"{path}: give exactly one of box/vertices")
    key = "box" if "box" in d else "vertices"
    try:
        grain = ConvexGrain.box(gid, *d["box"]) if key == "box" \
            else ConvexGrain.from_vertices(gid, d["vertices"])
        if grain.dimension != dim:
            raise ValueError(f"dimension {grain.dimension}, not {dim}")
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}.{key}: {err}") from None
    return grain, parse_medium(d["medium"], f"{path}.medium", dim)


def parse_scene(d, path="scene"):
    _check_keys(d, _SCENE_KEYS, path, ("dimension", "grains"))
    dim = _number(d["dimension"], f"{path}.dimension", int, "2 or 3",
                  lambda n: n in (2, 3) and n == d["dimension"])
    grains, media = [], []
    for i, g in enumerate(d["grains"]):
        grain, medium = parse_grain(g, f"{path}.grains[{i}]", dim)
        grains.append(grain)
        media.append(medium)
    box = None
    if "periodic_box" in d:
        _check_keys(d["periodic_box"], _BOX_KEYS, f"{path}.periodic_box",
                    ("lo", "hi"))
        try:
            box = PeriodicBox(d["periodic_box"]["lo"], d["periodic_box"]["hi"])
            check_tiled_box(grains, box)
        except SceneError as err:
            raise ConfigError(f"{path}.periodic_box: {err}") from None
    return make_scene(dim, grains, media, periodic_box=box,
                      anchor=_point(d["anchor"], dim, f"{path}.anchor")
                      if "anchor" in d else None,
                      assume_incommensurable=d.get("assume_incommensurable",
                                                   False))


def _first_medium(scene, path, bad, rule):
    """ConfigError naming the first medium m of scene (at path) with bad(m)."""
    for i, m in enumerate(scene.media):
        if bad(m):
            raise ConfigError(f"{path}.grains[{i}].medium: {rule}")


def check_scene_for_kind(scene, kind, opt):
    """ConfigError naming the key unless the runner RUNNERS[kind] works on
    this scene with the options opt (ExperimentConfig.options)."""
    box, micro = scene.periodic_box, kind in ("freepath", "transition")
    if micro and box is not None:
        raise ConfigError(f"scene.periodic_box: {kind} experiments trace "
                          "the microscopic dynamics of a finite scene")
    if micro and not opt["r_schedule"]:
        raise ConfigError(f"experiment.r_schedule: {kind} needs radii")
    if micro and opt["resample_offsets"]:
        _first_medium(scene, "scene",
                      lambda m: getattr(m, "mode", None) != "random-offset",
                      "resample_offsets needs random-offset crystal media")
    if kind == "stationarity" and box is None:
        raise ConfigError("scene.periodic_box: stationarity experiments need "
                          "a periodic box tiled by one grain")
    if kind == "transition" and scene.dimension != 2:
        raise ConfigError("scene.dimension: transition cells are "
                          "implemented for d=2")
    if kind == "poisson-baseline":
        _first_medium(scene, "scene", lambda m: m.kind != "poisson",
                      "poisson baseline experiments need Poisson media")
    # the flight sampler draws with one KernelModel per scene
    path, flown = {"flight": ("scene", scene), "poisson-baseline": (
        "experiment.gap_scene", opt["gap_scene"])}.get(kind, ("", None))
    if flown is not None:
        _first_medium(flown, path, lambda m: m.kind != flown.media[0].kind,
                      "flight sampling needs one medium kind per scene")


def parse_start(exp, scene):
    """The start keys of an experiment section (beta as a BetaSpec, q_mode,
    on_scatterer, start_grain) with their defaults, once they are checked
    against the scene: a start on a scatterer needs scene.anchor strictly
    inside a grain."""
    spec = exp.get("beta", {})
    _check_keys(spec, _BETA_KEYS, "experiment.beta")
    try:
        beta = microsim.BetaSpec(spec.get("mode", "zero"),
                                 float(spec.get("alpha", 0.0)))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"experiment.beta: {err}") from None
    q_mode = exp.get("q_mode", "random")
    if q_mode not in microsim.Q_MODES:
        raise ConfigError(f"experiment.q_mode: unknown mode {q_mode!r}")
    on, gid = bool(exp.get("on_scatterer", False)), exp.get("start_grain")
    if on != ("start_grain" in exp):
        raise ConfigError("experiment.start_grain: give it exactly when "
                          "on_scatterer is true")
    if on and gid not in [g.id for g in scene.grains]:
        raise ConfigError(f"experiment.start_grain: no grain {gid!r} in scene")
    if on and not any(g.contains_rows(scene.anchor[None])[0]
                      for g in scene.grains):
        raise ConfigError(f"scene.anchor: {scene.anchor.tolist()} is in no "
                          "grain; an on_scatterer start needs one")
    return {"beta": beta, "q_mode": q_mode, "on_scatterer": on,
            "start_grain": gid}


def _time(value, name):
    return _number(value, name, float, "a finite time >= 0",
                   lambda t: 0.0 <= t < np.inf)


@dataclass
class ExperimentConfig:
    raw: dict
    scene: object
    options: dict       # every experiment key but thresholds, parsed once:
                        # an absent key holds its default (README), time
                        # and split_times None for the runner's own
    thresholds: dict    # its runner's THRESHOLDS row with the overrides
    out_dir: Optional[str] = None
    timings: bool = False

    @classmethod
    def from_dict(cls, doc, threads=None):
        """The config of a JSON document.  threads, given, is the worker
        count in place of experiment.threads, checked by its rule but kept
        out of the hashed document; a bad value names --threads."""
        _check_keys(doc, _TOP_KEYS, "<top>", ("scene", "experiment"))
        scene = parse_scene(doc["scene"])
        exp = doc["experiment"]
        _check_keys(exp, _EXPERIMENT_KEYS, "experiment")
        kind = exp.get("kind")
        if kind not in RUNNERS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        opt = {"kind": kind}
        opt["seed"] = _number(exp.get("seed", 0), "experiment.seed", int,
                              "an integer")
        opt["samples"] = _number(exp.get("samples", 1000),
                                 "experiment.samples", int,
                                 "an integer >= 1000", lambda n: n >= 1000)
        for key, default in (("particles", opt["samples"]), ("n_seeds", 10)):
            opt[key] = count(exp.get(key, default), f"experiment.{key}")
        env = os.environ.get("POLYXPORT_THREADS", 1)
        opt["threads"] = count(exp.get("threads", env), "experiment.threads") \
            if threads is None else count(threads, "--threads")
        opt["time"] = _time(exp["time"], "experiment.time") \
            if "time" in exp else None
        split = exp.get("split_times")
        if "split_times" in exp:
            if not (isinstance(split, list) and len(split) == 2):
                raise ConfigError(f"experiment.split_times: {split!r} is not "
                                  "a pair of times")
            split = [_time(s, "experiment.split_times") for s in split]
        opt["split_times"] = split
        opt["report"] = exp.get("report", "ncollision")
        if opt["report"] not in REPORTS:
            raise ConfigError("experiment.report: unknown report "
                              f"{opt['report']!r}")
        opt["r_schedule"] = rs = exp.get("r_schedule", [])
        if not isinstance(rs, list):
            raise ConfigError(f"experiment.r_schedule: {rs!r} is not a list "
                              "of radii")
        for r in rs:
            check_radius(r, "experiment.r_schedule")
        if rs and not all(a > b for a, b in zip(rs, rs[1:])):
            raise ConfigError("experiment.r_schedule: radii must be strictly "
                              "decreasing")
        out = doc.get("output", {})
        _check_keys(out, _OUTPUT_KEYS, "output")
        opt.update(parse_start(exp, scene))
        opt["resample_offsets"] = bool(exp.get("resample_offsets", False))
        opt["gap_scene"] = parse_scene(exp["gap_scene"],
                                       "experiment.gap_scene") \
            if "gap_scene" in exp else None
        runner = runner_kind(kind, opt["report"])
        check_scene_for_kind(scene, runner, opt)
        given = exp.get("thresholds", {})
        thresholds = dict(THRESHOLDS.get(runner, {}))
        _check_keys(given, set(thresholds), "experiment.thresholds")
        thresholds.update((key, _number(value, f"experiment.thresholds.{key}",
                                        float, "a number"))
                          for key, value in given.items())
        return cls(doc, scene, opt, thresholds, out.get("dir"),
                   bool(out.get("timings", False)))

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _threshold(config, kind, key):
    """The threshold `key` of the runner for `kind`.

    The CLI runs each experiment subcommand on a config of any kind; a
    config of another kind runs with that runner's default.
    """
    return config.thresholds.get(key, THRESHOLDS[kind][key])


# ---------------------------------------------------------------------------
# limit-side curves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _leggauss(n):
    """Gauss-Legendre nodes and weights of order n, built once per n (read
    only: every call shares them)."""
    return np.polynomial.legendre.leggauss(n)


def direction_grid(scene, m=2048):
    """Quadrature nodes and weights of the uniform direction law: m
    midpoint angles in d=2, a Gauss-Legendre by midpoint product grid of
    about m nodes in d=3."""
    if scene.dimension == 2:
        th = (np.arange(m) + 0.5) * 2.0 * np.pi / m
        return np.stack([np.cos(th), np.sin(th)], axis=1), np.full(m, 1.0 / m)
    mc = max(int(np.sqrt(m / 2)), 16)
    nodes, ws = _leggauss(mc)
    ph = (np.arange(2 * mc) + 0.5) * np.pi / mc
    ct = nodes
    st = np.sqrt(1 - ct ** 2)
    dirs = np.stack([
        np.outer(st, np.cos(ph)).ravel(),
        np.outer(st, np.sin(ph)).ravel(),
        np.outer(ct, np.ones_like(ph)).ravel()], axis=1)
    wts = np.outer(ws / 2.0, np.full(2 * mc, 0.5 / mc)).ravel()
    return dirs, wts


def limit_freepath_cdf(scene, x, on_scatterer=False, beta=None, m_dirs=2048):
    """CDF of the limiting free path law, averaged over uniform directions.

    Each direction's survival curve on the xi grid (closed-form survival
    products over the segment table from x) is one row of
    polykernel.family_blocks, and _survival_row_sum adds the weighted
    CDFs in direction order, on the grid columns up to the first one past
    every exit.  In the on-scatterer mode the exit parameter beta(v) of
    each direction enters the scatterer-start marginal, and a base point
    outside every grain raises ConfigError.  Returns (grid, cdf values)
    for linear interpolation.
    """
    xi_grid = np.linspace(0.0, 4.0 / kernels.sigma_bar(scene.dimension), 2049)
    dirs, wts = direction_grid(scene, m_dirs)
    family, z = "survival_psi", None
    if on_scatterer:
        K = scattering.to_frame(np.eye(scene.dimension), dirs[:, None, :])
        # the psi0 goldens pin these bits: each row is the (1, d) @ (d, d)
        # product that beta(v) @ K(v) makes for one direction
        z = (beta(dirs)[:, None, :] @ K)[:, 0, 1:]
        family = "survival_psi0_marg"
    xs = np.broadcast_to(np.asarray(x, dtype=float), dirs.shape)
    try:
        cdf = _survival_row_sum(polykernel.family_blocks(
            scene, xs, dirs, xi_grid, family, z=z), len(xi_grid), wts)
    except polykernel.OffGrainStart as exc:
        raise ConfigError("on-scatterer limit needs an in-grain base "
                          "point") from exc
    return xi_grid, cdf


def mean_survival_curve(scene, xs, vs, grid):
    """Mean generic-start survival curve over rays (x, v), added in ray
    order (_survival_row_sum)."""
    return _survival_row_sum(polykernel.family_blocks(
        scene, xs, vs, grid, "survival_psi"), len(grid)) / len(xs)


def _survival_row_sum(blocks, m, weights=None):
    """The sum over the rows of a survival family's family_blocks, in row
    order, on m grid columns: of the curves S, or of (1 - S) * weights[row]
    given weights.

    Each block adds to the first of its rows, then one axis-0
    np.add.reduce adds them in order: the bits of += row by row.  The
    blocks are W columns wide, every row constant from column W - 1 on, so
    every column past W - 1 has seen the adds of column W - 1 and copies
    its value.
    """
    acc = 0.0
    for rows, part in blocks:
        if weights is not None:
            np.subtract(1.0, part, out=part)
            part *= weights[rows, None]
        part[0] += acc
        acc = np.add.reduce(part, axis=0)
        del part    # free this block before the next is built
    return np.pad(acc, (0, m - len(acc)), mode="edge")


def interp_cdf(grid, values):
    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), grid, values,
                         left=0.0, right=values[-1])
    return cdf


# Runners look the tau_1 sampler up under this name, which lets a test
# substitute it (perfbench/tests does).
sample_tau1 = microsim.sample_tau1_distribution


def micro_config(config, r):
    opt = config.options
    return microsim.MicroConfig(
        r=r, seed=opt["seed"], beta=opt["beta"], q_mode=opt["q_mode"],
        on_scatterer=opt["on_scatterer"], start_grain=opt["start_grain"],
        resample_offsets=opt["resample_offsets"])


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_freepath(config):
    """Microscopic tau_1 law against the limit CDF across the r schedule."""
    scene, opt = config.scene, config.options
    ks_limit = _threshold(config, "freepath", "ks_final")
    on_scatterer = opt["on_scatterer"]
    grid, cdf_vals = limit_freepath_cdf(
        scene, scene.anchor, on_scatterer=on_scatterer,
        beta=opt["beta"] if on_scatterer else None)
    cdf = interp_cdf(grid, cdf_vals)
    rows = []
    for r in opt["r_schedule"]:
        cfg = micro_config(config, r)
        samp = sample_tau1(scene, cfg, opt["samples"], opt["threads"])
        ks = stats.ks_distance(samp.tau1, cdf)
        rows.append({"r": r, "epsilon": samp.epsilon, "n": samp.n,
                     "ks": ks, "escape_fraction": samp.escape_fraction,
                     "limit_escape": 1.0 - float(cdf_vals[-1])})
    ks_seq = [row["ks"] for row in rows]
    report = {
        "experiment": "freepath",
        "config_hash": config.hash(),
        "seed": opt["seed"],
        "per_r": rows,
        "ks_decreasing": all(a > b for a, b in zip(ks_seq, ks_seq[1:])),
        "ks_final": ks_seq[-1],
        "ks_final_ok": ks_seq[-1] < ks_limit,
        "limit_grid": grid.tolist(),
        "limit_cdf": cdf_vals.tolist(),
    }
    report["verdict"] = bool(report["ks_decreasing"] and report["ks_final_ok"])
    return report


def limit_transition_mass(scene, x, xi_edges, u_edges):
    """Limit masses per (xi interval x u-slab) cell via the product form.

    d=2 only: the in-grain marginal factorizes as Phi(xi, w) = Phi(xi)/2,
    so each cell mass is the path-length mass times |u cell| / sigma_bar.
    """
    grid, cdf_vals = limit_freepath_cdf(scene, x, m_dirs=1024)
    pxi = np.diff(interp_cdf(grid, cdf_vals)(xi_edges))
    return pxi[:, None] * np.diff(u_edges) / 2.0


def run_transition(config):
    """Joint (tau_1, impact direction) cells against the limit masses."""
    scene, opt = config.scene, config.options
    alpha = _threshold(config, "transition", "chi2_alpha")
    r = opt["r_schedule"][-1]
    samp = sample_tau1(scene, micro_config(config, r), opt["samples"],
                       opt["threads"])
    # d=2: four path-length intervals up to 1.2 / sigma_bar by four u slabs
    xi_edges, u_edges = np.linspace(0.0, 0.6, 5), np.linspace(-1.0, 1.0, 5)
    limit = limit_transition_mass(scene, scene.anchor, xi_edges, u_edges)
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
        "seed": opt["seed"],
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
    sb = kernels.sigma_bar(scene.dimension)
    n = config.options["samples"]
    seed = config.options["seed"]
    alpha = _threshold(config, "poisson-baseline", "alpha")
    freepath_ks_limit = _threshold(config, "poisson-baseline", "freepath_ks")
    gap_ks_limit = _threshold(config, "poisson-baseline", "gap_ks")
    report = {"experiment": "poisson-baseline", "config_hash": config.hash(),
              "seed": seed, "sigma_bar": sb}

    # (a) free path law on the configured (tiled) scene
    rng = streams.rng("baseline.freepath", seed)
    ens = flight.sample_initial(scene, n, rng)
    ks_exp = stats.ks_distance(ens.xi, lambda x: 1.0 - np.exp(-sb * x))
    report["freepath_ks"] = ks_exp

    # (b) memorylessness: xi after a collision vs previous incoming
    # direction, one table per coordinate of the direction (the azimuth,
    # and in d=3 the polar cosine v_z), Bonferroni-combined
    m_chain = max(n // 10, 1000)
    rng2 = streams.rng("baseline.memoryless", seed)
    x0 = flight.sample_positions(scene, m_chain, rng2)
    v_prev = scattering.sample_direction(rng2, scene.dimension, m_chain)
    b = scattering.sample_ball(rng2, scene.dimension - 1, m_chain)
    v_now = scattering.deflect_many(v_prev, b)
    xi2, _ = flight.sample_collision(scene, x0, v_prev, v_now, rng2)
    fin = np.isfinite(xi2)
    coords = flight._direction_coords(v_prev[fin])
    cbins = [np.linspace(-np.pi, np.pi, 9), np.linspace(-1.0, 1.0, 9)]
    qbins = np.quantile(xi2[fin], np.linspace(0, 1, 9))
    qbins[0], qbins[-1] = -np.inf, np.inf
    stat_mem, p_mem = stats.bonferroni([
        stats.chi2_independence(np.histogram2d(
            coords[:, j], xi2[fin], bins=[cbins[j], qbins])[0])
        for j in range(coords.shape[1])])
    report["memoryless_chi2"] = stat_mem
    report["memoryless_p"] = p_mem

    # (c) collision counts over one mean free path horizon
    if scene.periodic_box is not None:
        t = config.options["time"]
        t = 2.0 / sb if t is None else t
        m_cnt = min(n, 200000)
        rng3 = streams.rng("baseline.counts", seed)
        ens3 = flight.sample_initial(scene, m_cnt, rng3)
        ens3 = flight.evolve(scene, ens3, t, rng3)
        counts = flight.n_collision_histogram(ens3)
        kmax = len(counts) - 1
        lam_t = sb * t
        pmf = np.zeros(kmax + 1)
        pmf[:-1] = stats.poisson_pmf(range(kmax), lam_t)
        pmf[-1] = 1.0 - pmf[:-1].sum()
        stat_cnt, p_cnt = stats.chi2_gof(counts, pmf, n_constraints=1,
                                         min_expected=5.0)
        report["collisions_time"] = t
        report["collisions_chi2"] = stat_cnt
        report["collisions_p"] = p_cnt

    # (d) gap-discounted survival on a secondary scene
    gap_scene = config.options["gap_scene"]
    if gap_scene is not None:
        rng4 = streams.rng("baseline.gap", seed)
        n_gap = min(n, 200000)
        xs = flight.sample_positions(gap_scene, n_gap, rng4)
        vs = scattering.sample_direction(rng4, gap_scene.dimension, n_gap)
        xi_g, _ = flight.sample_xi_w(gap_scene, xs, vs, rng4, kind="psi")
        # oracle CDF: average closed-form survival over the same (x, v) set
        sub = slice(0, min(n_gap, 4000))
        grid = np.linspace(0.0, 5.0 / sb, 513)
        surv = mean_survival_curve(gap_scene, xs[sub], vs[sub], grid)
        cdf = interp_cdf(grid, 1.0 - surv)
        ks_gap = stats.ks_distance(xi_g, cdf)
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
    opt = config.options
    n, t = opt["particles"], opt["time"]
    t = 5.0 / kernels.sigma_bar(scene.dimension) if t is None else t
    alpha = _threshold(config, "stationarity", "ks_alpha")
    split = opt["split_times"] or [0.4 * t, 0.6 * t]
    per_seed = []
    for k in range(opt["n_seeds"]):
        seed = opt["seed"] + k
        rep = flight.stationarity_test(scene, n, t, seed, split=split)
        per_seed.append({"seed": seed, **asdict(rep)})
    ok = all(row["ks_xi"][1] > alpha and row["ks_vplus"][1] > alpha
             and row["ks_split"][1] > alpha for row in per_seed)
    return {
        "experiment": "stationarity",
        "config_hash": config.hash(),
        "seed": opt["seed"],
        "particles": n,
        "time": t,
        "alpha": alpha,
        "per_seed": per_seed,
        "verdict": bool(ok),
    }


def run_flight(config):
    """Ensemble evolution with the n-collision decomposition.

    The 'marginals' report flavor adds histograms of the evolved
    extended-state coordinates for plotting: the flight length, the
    azimuth of v, and in d=3 its polar cosine v_z.
    """
    scene = config.scene
    opt = config.options
    n, t = opt["particles"], opt["time"]
    sb = kernels.sigma_bar(scene.dimension)
    t = 2.0 / sb if t is None else t
    flavor = opt["report"]
    rng = streams.rng("flight.evolve", opt["seed"])
    ens0 = flight.sample_initial(scene, n, rng)
    esc0 = ens0.escape_fraction
    ens = flight.evolve(scene, ens0, t, rng)
    counts = flight.n_collision_histogram(ens)
    rng_o = streams.rng("flight.n0_oracle", opt["seed"])
    frac0_oracle = flight.no_collision_fraction_quadrature(
        scene, t, min(n, 20000), rng_o)
    report = {
        "experiment": "flight",
        "config_hash": config.hash(),
        "seed": opt["seed"],
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
        if scene.dimension == 3:
            polar_edges = np.linspace(-1.0, 1.0, 41)
            report["v_polar_hist"] = {
                "edges": polar_edges.tolist(),
                "counts": np.histogram(ens.v[:, 2], polar_edges)[0].tolist()}
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
    """Write a CSV table as csv.writer does (QUOTE_MINIMAL, \\r\\n lines).

    A float is written as repr(float(x)), an integer as str(int(x)), any
    other cell as str(x).  A table whose cells are all floats is streamed
    one joined line per row, without csv.writer: a float's repr holds no
    character that it would quote.
    """
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        types = set(map(type, itertools.chain.from_iterable(rows)))
        if all(issubclass(t, (float, np.floating)) for t in types):
            # float() first: repr(np.float64(x)) is "np.float64(x)"
            fh.writelines(",".join(map(repr, map(float, row))) + "\r\n"
                          for row in rows)
            return
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
    """The report of the config's runner (runner_kind)."""
    opt = config.options
    return RUNNERS[runner_kind(opt["kind"], opt["report"])](config)
