"""Experiment orchestration: configs, runners, statistics, file emission.

Configs are strict JSON documents (unknown keys are errors, silent typos
in scene specs destroy experiments).  Every runner is reproducible
bit-for-bit from (config, seed) in single-threaded mode; worker pools only
distribute fixed chunks whose results merge in a fixed order.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import importlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# Parsing needs these; a runner's engines load with its config (ENGINES).
from . import kernels, scattering
from .geometry import ConvexGrain, PeriodicBox, SceneError, make_scene
from .lattice import (CRYSTAL_MODES, AffineLattice, CrystalMedium,
                      PoissonMedium)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing: one rule table per config section
# ---------------------------------------------------------------------------

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

# The engine modules that each runner (a RUNNERS key) calls.  from_dict
# imports those of config.runner once the config has passed its checks, so
# a process compiles only the engines of its run, and compiles them in
# set-up; a runner imports them by name.
ENGINES = {
    "freepath": ("microsim", "polykernel", "stats"),
    "transition": ("microsim", "polykernel", "stats"),
    "poisson-baseline": ("flight", "polykernel", "stats"),
    "stationarity": ("flight", "stats"),
    "flight": ("flight", "polykernel", "stats"),
}


def runner_kind(kind, report):
    """The RUNNERS key that runs `kind` with `report`: a flight config whose
    report is "stationarity" runs the stationarity runner."""
    return "stationarity" if (kind, report) == ("flight", "stationarity") \
        else kind


def _rule(ok, says, parse=lambda value: value):
    """A rule parses one config value: rule(value, name, dim) returns it
    parsed, or raises a ConfigError that begins with name, the value's
    dotted key path; dim is the dimension of the scene that holds the key.
    This rule takes a value for which ok(value, dim) holds, parsed by parse;
    says, formatted with dim, is what such a value is."""
    def rule(value, name, dim=None):
        if not ok(value, dim):
            raise ConfigError(f"{name}: {value!r} is not "
                              + says.format(dim=dim))
        return parse(value)
    rule.ok = ok
    return rule


def _is_number(v, lo=-math.inf):
    """Whether v is a finite JSON number >= lo: an int or a float, not a
    bool (an int past the float range is not finite)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max and v >= lo)


def _is_list(v, n=None, entry=lambda e: True):
    """Whether v is a list, of n entries given n, whose entries pass entry."""
    return isinstance(v, list) and n in (None, len(v)) and all(map(entry, v))


def integer(lo=-math.inf):
    """The rule of a JSON integer >= lo: a bool, a float or a string fails."""
    return _rule(lambda v, dim: type(v) is int and v >= lo, "a JSON integer"
                 + (f" >= {lo}" if lo > -math.inf else ""))


def number(lo=-math.inf):
    """The rule of a finite JSON number >= lo, parsed as a float."""
    return _rule(lambda v, dim: _is_number(v, lo), "a finite JSON number"
                 + (f" >= {lo}" if lo > -math.inf else ""), float)


def one_of(*choices):
    """The rule of a value equal to one of choices, and of its type."""
    return _rule(lambda v, dim: (type(v), v) in [(type(c), c)
                                                 for c in choices],
                 "one of " + ", ".join(map(repr, choices)))


def section(table):
    """The rule of an object walked with table (_walk)."""
    return lambda value, name, dim=None: _walk(value, table, name, dim)


flag = _rule(lambda v, dim: isinstance(v, bool), "true or false")
text = _rule(lambda v, dim: isinstance(v, str), "a string")
radius = _rule(lambda v, dim: _is_number(v) and v > 0,
               "a finite JSON number > 0")
radii = _rule(lambda v, dim: _is_list(v, None, lambda r: radius.ok(r, dim))
              and all(a > b for a, b in zip(v, v[1:])),
              "a strictly decreasing list of finite JSON numbers > 0")
point = _rule(lambda v, dim: _is_list(v, dim, _is_number),
              "a point of dimension {dim}", lambda v: list(map(float, v)))
times = _rule(lambda v, dim: _is_list(v, 2, lambda t: _is_number(t, 0)),
              "a pair of finite JSON numbers >= 0",
              lambda v: list(map(float, v)))
matrix = _rule(lambda v, dim: _is_list(v, dim, lambda row: _is_list(
    row, dim, lambda e: not isinstance(e, bool))), "a {dim}x{dim} matrix")


def _walk(d, table, path, dim=None):
    """{key: value} of the object d at path for every key of table: the
    given value, or an absent key's default, parsed by the key's rule.  A
    ConfigError names an unknown key, a missing one or the first that
    breaks its rule.  The keys after a scene's dimension take it as dim."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'config'}: {d!r} is not an object")
    unknown = [f"{path}.{key}".lstrip(".")
               for key in sorted(set(d) - set(table), key=str)]
    if unknown:
        raise ConfigError(", ".join(unknown) + ": unknown config key")
    out = {}
    for key, (default, rule) in table.items():
        name = f"{path}.{key}".lstrip(".")
        if key not in d and default is REQUIRED:
            raise ConfigError(f"{name}: missing")
        out[key] = rule(d.get(key, default), name, out.get("dimension", dim)) \
            if key in d or default is not None else None
    return out


def _grain(d, path, dim):
    """The ConvexGrain and the medium of the grain section d at path."""
    g = _walk(d, GRAIN, path, dim)
    if (g["box"] is None) == (g["vertices"] is None):
        raise ConfigError(f"{path}: give exactly one of box/vertices")
    key = "box" if g["box"] is not None else "vertices"
    try:
        grain = ConvexGrain.box(g["id"], *g["box"]) if key == "box" \
            else ConvexGrain.from_vertices(g["id"], g["vertices"])
    except ValueError as err:
        raise ConfigError(f"{path}.{key}: {err}") from None
    m = g["medium"]
    if m["type"] == "poisson":
        # every MEDIUM key but type describes a crystal's lattice
        given = [key for key in MEDIUM if key != "type" and key in d["medium"]]
        if given:
            raise ConfigError(f"{path}.medium.{given[0]}: a Poisson medium "
                              "has no lattice")
        return grain, PoissonMedium()
    if m["matrix"] is None:
        raise ConfigError(f"{path}.medium.matrix: missing")
    try:
        return grain, CrystalMedium(AffineLattice.from_rows(
            m["matrix"], m["offset"]), m["mode"])
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{path}.medium.matrix: {err}") from None


def parse_scene(d, path="scene", dim=None):
    """The Scene of the scene section d at path (SCENE); also the rule of a
    scene, which needs no dim."""
    s = _walk(d, SCENE, path)
    grains, media = zip(*(_grain(g, f"{path}.grains[{i}]", s["dimension"])
                          for i, g in enumerate(s["grains"])))
    box = s["periodic_box"]
    try:        # make_scene's SceneErrors carry the scene key at fault
        return make_scene(s["dimension"], grains, media, anchor=s["anchor"],
                          periodic_box=box and PeriodicBox(**box),
                          assume_incommensurable=s["assume_incommensurable"])
    except SceneError as err:
        raise ConfigError(f"{path}.{err.key}: {err}") from None


# One table per config section: key -> (default, rule).  An absent key takes
# its default, parsed by its rule; a REQUIRED key is missing, and a None
# default stays None (no default, or one that from_dict sets).
REQUIRED = object()

MEDIUM = {"type": (REQUIRED, one_of("crystal", "poisson")),
          "matrix": (None, matrix),     # a crystal's: numbers or "p/q"
          "offset": (None, point),      # 0 (AffineLattice.from_rows)
          "mode": ("anchored", one_of(*CRYSTAL_MODES))}
GRAIN = {"id": (REQUIRED, integer()),
         "box": (None, _rule(lambda v, dim: _is_list(v, 2, lambda p: (
             point.ok(p, dim))), "a pair of points of dimension {dim}")),
         "vertices": (None, _rule(lambda v, dim: _is_list(v, None, lambda p: (
             point.ok(p, dim))), "a list of points of dimension {dim}")),
         "medium": (REQUIRED, section(MEDIUM))}
PERIODIC_BOX = {"lo": (REQUIRED, point), "hi": (REQUIRED, point)}
SCENE = {"dimension": (REQUIRED, one_of(2, 3)),   # dim of the keys below
         # each grain walked with GRAIN (parse_scene)
         "grains": (REQUIRED, _rule(lambda v, dim: _is_list(v) and v != [],
                                    "a list of one or more grains")),
         "anchor": (None, point),
         "periodic_box": (None, section(PERIODIC_BOX)),
         "assume_incommensurable": (False, flag)}
BETA = {"mode": ("zero", one_of(*scattering.BETA_MODES)),
        "alpha": (0.0, number())}
EXPERIMENT = {
    "kind": (REQUIRED, text),           # a RUNNERS key
    "seed": (0, integer(0)),
    "samples": (1000, integer(1000)),
    "r_schedule": ([], radii),
    "particles": (None, integer(1)),    # samples
    "n_seeds": (10, integer(1)),
    "threads": (None, integer(1)),      # POLYXPORT_THREADS, else 1
    "time": (None, number(0)),          # config.runner's
    "split_times": (None, times),       # config.runner's
    "report": ("ncollision", one_of(*REPORTS)),
    "q_mode": ("random", one_of(*scattering.Q_MODES)),
    "beta": ({}, section(BETA)),
    "on_scatterer": (False, flag),
    "start_grain": (None, integer()),
    "resample_offsets": (False, flag),
    "gap_scene": (None, parse_scene),
    # overrides of a THRESHOLDS row, walked with it in from_dict
    "thresholds": ({}, lambda value, name, dim: value)}
OUTPUT = {"dir": (None, text), "timings": (False, flag)}
CONFIG = {"scene": (REQUIRED, parse_scene),
          "experiment": (REQUIRED, section(EXPERIMENT)),
          "output": ({}, section(OUTPUT))}


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


def parse_start(opt, scene):
    """Make the walked experiment section opt's beta a BetaSpec and check
    its start keys against the scene: start_grain, a scene grain's id, is
    given exactly with on_scatterer, which needs scene.anchor in a grain."""
    try:
        opt["beta"] = scattering.BetaSpec(**opt["beta"])
    except ValueError as err:
        raise ConfigError(f"experiment.beta: {err}") from None
    on, gid = opt["on_scatterer"], opt["start_grain"]
    if on != (gid is not None):
        raise ConfigError("experiment.start_grain: give it exactly when "
                          "on_scatterer is true")
    if on and gid not in [g.id for g in scene.grains]:
        raise ConfigError(f"experiment.start_grain: no grain {gid!r} in scene")
    if on and not any(g.contains_rows(scene.anchor[None])[0]
                      for g in scene.grains):
        raise ConfigError(f"scene.anchor: {scene.anchor.tolist()} is in no "
                          "grain; an on_scatterer start needs one")


@dataclass
class ExperimentConfig:
    raw: dict
    scene: object
    runner: str         # the RUNNERS key that runs it (runner_kind)
    options: dict       # every experiment key but thresholds, parsed once:
                        # an absent key holds its default (README), time
                        # and split_times those of runner
    thresholds: dict    # runner's THRESHOLDS row with the overrides
    out_dir: Optional[str] = None
    timings: bool = False

    @classmethod
    def from_dict(cls, doc, threads=None, kind=None):
        """The config of a JSON document (CONFIG).  threads and kind, given,
        stay out of the hashed document: threads (its rule, a bad value
        names --threads) in place of experiment.threads, and kind, an
        experiment subcommand's, whose runner (runner_kind) is config.runner
        in place of the config's own; the scene rules of both apply."""
        top = _walk(doc, CONFIG, "")
        scene, opt, out = top["scene"], top["experiment"], top["output"]
        for name in (opt["kind"], kind or opt["kind"]):
            if name not in RUNNERS:
                raise ConfigError("experiment.kind: unknown experiment kind "
                                  f"{name!r}")
        if threads is not None:
            opt["threads"] = integer(1)(threads, "--threads")
        elif opt["threads"] is None:
            env = os.environ.get("POLYXPORT_THREADS", "1")
            with contextlib.suppress(ValueError):   # else the rule names it
                env = int(env)
            opt["threads"] = integer(1)(
                env, "experiment.threads (POLYXPORT_THREADS)")
        opt["particles"] = opt["particles"] or opt["samples"]
        parse_start(opt, scene)
        own = runner_kind(opt["kind"], opt["report"])
        runner = own if kind is None else runner_kind(kind, opt["report"])
        check_scene_for_kind(scene, own, opt)
        if runner != own:
            check_scene_for_kind(scene, runner, opt)
        # the runner's own time, in mean free paths 1/sigma_bar
        mfp = {"stationarity": 5.0, "flight": 2.0, "poisson-baseline": 2.0}
        if opt["time"] is None and runner in mfp:
            opt["time"] = mfp[runner] / kernels.sigma_bar(scene.dimension)
        if opt["split_times"] is None and runner == "stationarity":
            opt["split_times"] = [0.4 * opt["time"], 0.6 * opt["time"]]
        # the overrides are walked with the config's own runner's row as
        # their table, and apply to that runner only
        own_row = _walk(opt.pop("thresholds"), {
            key: (value, number()) for key, value in THRESHOLDS.get(
                own, {}).items()}, "experiment.thresholds")
        thresholds = own_row if runner == own \
            else dict(THRESHOLDS.get(runner, {}))
        for name in ENGINES[runner]:
            importlib.import_module(f"{__package__}.{name}")
        return cls(doc, scene, runner, opt, thresholds, out["dir"],
                   out["timings"])

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
    from . import polykernel
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
    from . import polykernel
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


def sample_tau1(scene, cfg, n_samples, threads=1):
    """microsim.sample_tau1_distribution: runners look the tau_1 sampler up
    under this name, which lets a test substitute it (perfbench/tests
    does)."""
    from . import microsim
    return microsim.sample_tau1_distribution(scene, cfg, n_samples, threads)


def micro_config(config, r):
    from . import microsim
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
    from . import stats
    scene, opt = config.scene, config.options
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
        "ks_final_ok": ks_seq[-1] < config.thresholds["ks_final"],
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
    from . import stats
    scene, opt = config.scene, config.options
    alpha = config.thresholds["chi2_alpha"]
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
    from . import flight, stats, streams
    scene, opt, limits = config.scene, config.options, config.thresholds
    sb = kernels.sigma_bar(scene.dimension)
    n, seed, alpha = opt["samples"], opt["seed"], limits["alpha"]
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
        t = opt["time"]
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
    gap_scene = opt["gap_scene"]
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
        report["freepath_ks"] < limits["freepath_ks"] and p_mem > alpha
        and report.get("collisions_p", 1.0) > alpha
        and report.get("gap_ks", 0.0) < limits["gap_ks"])
    return report


def run_stationarity(config):
    """Stationarity of the extended-state law plus the semigroup split."""
    from . import flight
    scene, opt = config.scene, config.options
    n, t = opt["particles"], opt["time"]
    alpha = config.thresholds["ks_alpha"]
    per_seed = []
    for k in range(opt["n_seeds"]):
        seed = opt["seed"] + k
        rep = flight.stationarity_test(scene, n, t, seed,
                                       split=opt["split_times"])
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
    from . import flight, streams
    scene, opt = config.scene, config.options
    n, t = opt["particles"], opt["time"]
    sb = kernels.sigma_bar(scene.dimension)
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
    other cell as str(x).  A table of all-float rows of one width is
    written without csv.writer, as a float's repr holds no character that
    it would quote: one format string per row, a block of rows per write.
    """
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        types = set(map(type, itertools.chain.from_iterable(rows)))
        widths = set(map(len, rows))
        if len(widths) == 1 and all(issubclass(t, (float, np.floating))
                                    for t in types):
            if not types <= {float}:
                # repr(np.float64(x)) is "np.float64(x)"
                rows = [list(map(float, row)) for row in rows]
            line = ",".join(["{!r}"] * widths.pop()) + "\r\n"
            # a write per 512 rows: all the lines at once would raise a
            # run's peak memory
            for a in range(0, len(rows), 512):
                fh.write("".join([line.format(*row)
                                  for row in rows[a:a + 512]]))
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
    """The report of the config's runner, config.runner."""
    return RUNNERS[config.runner](config)
