"""Command-line front end.

    polyxport kernels eval --medium crystal --dimension 2 --xi 0.3 ...
    polyxport psi eval --config scene.json --x 0.1,0.1 --v 1,0 --xi 0.2
    polyxport microsim --config cfg.json --samples 10000 --r 1e-2,1e-3 --out d
    polyxport {freepath|transition|poisson|stationarity|flight} --config cfg

All experiment subcommands accept --out, --seed and --threads; the
POLYXPORT_THREADS environment variable is the fallback worker count.
Every override is checked like the config key it sets, and a bad value
fails before any work starts (exit 1).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import harness


def _floats(text, option):
    """The comma list text as floats; else a ConfigError naming option."""
    try:
        return [float(t) for t in text.split(",") if t]
    except ValueError:
        raise harness.ConfigError(f"{option}: {text!r} is not a list of "
                                  "numbers") from None


def _vec(text, option, n):
    """The comma list text as a point of dimension n (harness.point)."""
    return np.array(harness.point(_floats(text, option), option, n))


def _add_common(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)


def _load_config(args, kind=None):
    """The config file with the subcommand's given --seed, --particles,
    --time and --report written into its experiment section, parsed once
    (ExperimentConfig.from_dict) for the runner of kind, an experiment
    subcommand's kind, when given.  --threads and kind stay out of the
    document, so they leave config_hash as it is."""
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    given = {key: val for key, val in vars(args).items() if val is not None
             and key in ("seed", "particles", "time", "report")}
    if given and isinstance(doc, dict) \
            and isinstance(doc.get("experiment"), dict):
        doc["experiment"].update(given)
    return harness.ExperimentConfig.from_dict(doc, threads=args.threads,
                                              kind=kind)


def _run_and_emit(args):
    cfg = _load_config(args, args.kind)
    t0 = time.perf_counter()
    report = harness.run_experiment(cfg)
    dt = time.perf_counter() - t0
    out = args.out or cfg.out_dir
    if out:
        for path in harness.emit(report, out, cfg, runtime_seconds=dt):
            print(path)
    else:
        json.dump(report, sys.stdout, sort_keys=True, indent=1,
                  default=harness._json_default)
        print()
    return 0 if report.get("verdict", True) else 3


def _params(args, d, takes):
    """The --w and --z vectors (0 when absent): each a finite vector of
    length d - 1, and a point of the closed unit ball if its key is in
    takes; else a ConfigError naming the option."""
    from . import polykernel
    vecs = []
    for key in ("w", "z"):
        text = getattr(args, key)
        vec = _vec(text, f"--{key}", d - 1) if text else np.zeros(d - 1)
        if key in takes:
            try:
                polykernel.check_ball(vec, d)
            except ValueError as err:
                raise harness.ConfigError(f"--{key}: {err}") from None
        vecs.append(vec)
    return vecs


def _path_lengths(text):
    xis = _floats(text, "--xi")
    if not all(xi >= 0.0 for xi in xis):        # NaN fails too
        raise harness.ConfigError("--xi: path lengths must be >= 0 or inf")
    return xis


# kernels eval family -> (KernelModel method, the parameters it takes)
_KERNELS = {"phi0": ("phi0", "wz"), "phi0_marg": ("phi0_marg", "w"),
            "phi_marg": ("phi_marg", "w"), "phi": ("phi", ""),
            "d_phi": ("d_phi", ""), "tail": ("tail_bound", "")}


def cmd_kernels(args):
    from . import kernels
    med = args.medium
    d = args.dimension
    name, takes = _KERNELS[args.family]
    w, z = _params(args, d, takes)
    xis = _path_lengths(args.xi)
    model = kernels.KernelModel(med, d)
    kernel = getattr(model, name)
    params = [p for key, p in (("w", w), ("z", z)) if key in takes]
    try:
        vals = [kernel(xi, *params) for xi in xis]
    except kernels.RangeError as exc:
        raise harness.ConfigError(f"--xi: {exc}") from exc
    cols = ["medium", "d", "xi"] + [f"w{i+1}" for i in range(d - 1)] \
        + [f"z{i+1}" for i in range(d - 1)] + ["value"]
    print(",".join(cols))
    for xi, val in zip(xis, vals):
        row = [med, str(d), repr(float(xi))] + [repr(float(t)) for t in w] \
            + [repr(float(t)) for t in z] + [repr(float(val))]
        print(",".join(row))
    return 0


def cmd_psi(args):
    from . import polykernel
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    scene = harness.parse_scene(doc["scene"] if "scene" in doc else doc)
    d = scene.dimension
    x, v = _vec(args.x, "--x", d), _vec(args.v, "--v", d)
    w, z = _params(args, d, polykernel.family_params(args.family))
    if not np.any(v):
        raise harness.ConfigError("--v: the direction must be nonzero")
    v = v / np.linalg.norm(v)
    xis = _path_lengths(args.xi)
    try:
        vals = polykernel.along_ray(scene, args.family, x, v, xis, w, z)
    except polykernel.InfiniteOnTiledBox as exc:
        raise harness.ConfigError(f"--xi: {exc}") from exc
    cols = ["family", "xi"] + [f"x{i+1}" for i in range(d)] + ["value"]
    print(",".join(cols))
    for xi, val in zip(xis, vals):
        row = [args.family, repr(float(xi))] + [repr(float(t)) for t in x] \
            + [repr(float(val))]
        print(",".join(row))
    return 0


def cmd_microsim(args):
    from . import microsim
    cfg = _load_config(args)
    rs = [harness.radius(r, "--r") for r in _floats(args.r, "--r")] \
        if args.r else cfg.options["r_schedule"]
    harness.check_scene_for_kind(cfg.scene, "freepath",
                                 dict(cfg.options, r_schedule=rs))
    n = cfg.options["samples"] if args.samples is None \
        else harness.integer(1)(args.samples, "--samples")
    out = args.out or cfg.out_dir or "."
    os.makedirs(out, exist_ok=True)
    for r in rs:
        samp = microsim.sample_tau1_distribution(
            cfg.scene, harness.micro_config(cfg, r), n,
            cfg.options["threads"])
        path = os.path.join(out, f"microsim_r{r:g}.csv")
        harness.write_tau1_csv(path, samp)
        print(path)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="polyxport",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernels", help="evaluate single-medium kernels")
    pk.add_argument("action", choices=["eval"])
    pk.add_argument("--medium", choices=["crystal", "poisson"], required=True)
    pk.add_argument("--dimension", type=int, choices=[2, 3], required=True)
    pk.add_argument("--xi", required=True, help="comma list")
    pk.add_argument("--w", default=None)
    pk.add_argument("--z", default=None)
    pk.add_argument("--family", default="phi0",
                    choices=list(_KERNELS))
    pk.set_defaults(func=cmd_kernels)

    pp = sub.add_parser("psi", help="evaluate polycrystal limit densities")
    pp.add_argument("action", choices=["eval"])
    pp.add_argument("--config", required=True, help="scene JSON")
    pp.add_argument("--x", required=True)
    pp.add_argument("--v", required=True)
    pp.add_argument("--xi", required=True)
    pp.add_argument("--w", default=None)
    pp.add_argument("--z", default=None)
    pp.add_argument("--family", default="psi",
                    choices=["psi", "psi_marg_w", "psi0_marg", "psi0_full"])
    pp.set_defaults(func=cmd_psi)

    pm = sub.add_parser("microsim", help="raw tau_1 samples as CSV")
    _add_common(pm)
    pm.add_argument("--samples", type=int, default=None)
    pm.add_argument("--r", default=None, help="comma list of radii")
    pm.set_defaults(func=cmd_microsim)

    for command, kind in [("freepath", "freepath"),
                          ("transition", "transition"),
                          ("poisson", "poisson-baseline"),
                          ("stationarity", "stationarity")]:
        p = sub.add_parser(command, help=f"run the {command} experiment")
        _add_common(p)
        p.set_defaults(func=_run_and_emit, kind=kind)

    pf = sub.add_parser("flight", help="evolve an ensemble of the limit process")
    _add_common(pf)
    pf.add_argument("--particles", type=int, default=None)
    pf.add_argument("--time", type=float, default=None)
    pf.add_argument("--report", default=None, choices=harness.REPORTS)
    pf.set_defaults(func=_run_and_emit, kind="flight")

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
