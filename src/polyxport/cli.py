"""Command-line front end.

    polyxport kernels eval --medium crystal --dimension 2 --xi 0.3 ...
    polyxport psi eval --config scene.json --x 0.1,0.1 --v 1,0 --xi 0.2
    polyxport microsim --config cfg.json --samples 10000 --r 1e-2,1e-3 --out d
    polyxport {freepath|transition|poisson|stationarity|flight} --config cfg

All experiment subcommands accept --out, --seed and --threads; the
POLYXPORT_THREADS environment variable is the fallback worker count.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import harness, kernels, microsim, polykernel


def _floats(text):
    return [float(t) for t in text.split(",") if t]


def _vec(text):
    return np.array(_floats(text))


def _add_common(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)


def _load_config(args):
    cfg = harness.ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.threads is not None:
        cfg.options["threads"] = args.threads
    return cfg


def _run_and_emit(cfg, args, kind):
    """Run the runner of `kind`, which need not be the config's kind, after
    checking that it works on the config's scene."""
    harness.check_scene_for_kind(cfg.scene, kind)
    t0 = time.perf_counter()
    report = harness.RUNNERS[kind](cfg)
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


def cmd_kernels(args):
    med = args.medium
    d = args.dimension
    w = _vec(args.w) if args.w else np.zeros(d - 1)
    z = _vec(args.z) if args.z else np.zeros(d - 1)
    model = kernels.KernelModel("crystal" if med == "crystal" else "poisson", d)
    writer = sys.stdout
    cols = ["medium", "d", "xi"] + [f"w{i+1}" for i in range(d - 1)] \
        + [f"z{i+1}" for i in range(d - 1)] + ["value"]
    print(",".join(cols), file=writer)
    for xi in _floats(args.xi):
        if args.family == "phi0":
            val = model.phi0(xi, w, z)
        elif args.family == "phi0_marg":
            val = model.phi0_marg(xi, w)
        elif args.family == "phi_marg":
            val = model.phi_marg(xi, w)
        elif args.family == "phi":
            val = model.phi(xi)
        elif args.family == "d_phi":
            val = model.d_phi(xi)
        else:
            val = model.tail_bound(xi)
        row = [med, str(d), repr(float(xi))] + [repr(float(t)) for t in w] \
            + [repr(float(t)) for t in z] + [repr(float(val))]
        print(",".join(row), file=writer)
    return 0


def cmd_psi(args):
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    scene = harness.parse_scene(doc["scene"] if "scene" in doc else doc)
    d = scene.dimension
    x, v = _vec(args.x), _vec(args.v)
    w, z = (_vec(t) if t else np.zeros(d - 1) for t in (args.w, args.z))
    for key, vec, size in (("x", x, d), ("v", v, d), ("w", w, d - 1),
                           ("z", z, d - 1)):
        if vec.size != size or not np.all(np.isfinite(vec)):
            raise harness.ConfigError(f"--{key}: needs a finite vector of "
                                      f"length {size}")
    if not np.any(v):
        raise harness.ConfigError("--v: the direction must be nonzero")
    v = v / np.linalg.norm(v)
    xis = _floats(args.xi)
    if not all(xi >= 0.0 for xi in xis):        # NaN fails too
        raise harness.ConfigError("--xi: path lengths must be >= 0 or inf")
    cols = ["family", "xi"] + [f"x{i+1}" for i in range(d)] + ["value"]
    print(",".join(cols))
    vals = polykernel.along_ray(scene, args.family, x, v, xis, w, z)
    for xi, val in zip(xis, vals):
        row = [args.family, repr(float(xi))] + [repr(float(t)) for t in x] \
            + [repr(float(val))]
        print(",".join(row))
    return 0


def cmd_microsim(args):
    cfg = _load_config(args)
    harness.check_scene_for_kind(cfg.scene, "freepath")
    rs = _floats(args.r) if args.r else cfg.r_schedule
    if not rs:
        raise harness.ConfigError("experiment.r_schedule: microsim needs "
                                  "radii, from the config or --r")
    n = args.samples or cfg.samples
    out = args.out or cfg.out_dir or "."
    import os
    os.makedirs(out, exist_ok=True)
    for r in rs:
        samp = microsim.sample_tau1_distribution(
            cfg.scene, harness.micro_config(cfg, r), n, cfg.threads)
        path = os.path.join(out, f"microsim_r{r:g}.csv")
        harness.write_tau1_csv(path, samp)
        print(path)
    return 0


def cmd_flight(args):
    cfg = _load_config(args)
    overrides = {"particles": args.particles, "time": args.time,
                 "report": args.report}
    if any(v is not None for v in overrides.values()):
        doc = json.loads(json.dumps(cfg.raw))
        for key, val in overrides.items():
            if val is not None:
                doc["experiment"][key] = val
        threads = cfg.options.get("threads")
        cfg = harness.ExperimentConfig.from_dict(doc)
        if threads is not None:
            cfg.options["threads"] = threads
    kind = "stationarity" if cfg.options.get("report") == "stationarity" \
        else "flight"
    return _run_and_emit(cfg, args, kind)


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
                    choices=["phi0", "phi0_marg", "phi_marg", "phi", "d_phi",
                             "tail"])
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
        p.set_defaults(func=lambda a, k=kind: _run_and_emit(_load_config(a),
                                                            a, k))

    pf = sub.add_parser("flight", help="evolve an ensemble of the limit process")
    _add_common(pf)
    pf.add_argument("--particles", type=int, default=None)
    pf.add_argument("--time", type=float, default=None)
    pf.add_argument("--report", default=None,
                    choices=["stationarity", "ncollision", "marginals"])
    pf.set_defaults(func=cmd_flight)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
