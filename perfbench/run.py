"""polyxport benchmark: one experiment workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; `--workload all` measures every workload in
turn.  Each measurement runs in a fresh,
single-threaded Python process (`worker.py`), one after another:

* `--trace 0` starts PROCESSES processes with S/PROCESSES seconds each.
  Every process times its set-up once and then repeats the workload's
  experiment (`harness.run_experiment` + `harness.emit`) at the given seed
  until its share of time is used.  It prints `wall_s` (median over all
  repetitions), `setup_s` and `peak_rss_mb` (medians over processes).
  Times are in reference seconds: wall time corrected for the machine's
  current speed, which the process samples as it runs (`SpeedProbe` in
  `worker.py`).
* `--trace 1` starts one process that alternates untraced and traced
  repetitions for S seconds and prints the per-layer metrics of
  `tracing.py`, plus `trace.overhead_s`.

Every repetition's emitted files are checked (`checks.py`) and must be
byte-identical to the first repetition's.  A repetition that raises or
fails a check counts as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with the environment, is written under perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PROCESSES = 3            # fresh processes per untraced run
RUN_TIMEOUT_S = 170.0    # whole run, all processes
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "POLYXPORT_THREADS": "1", "PYTHONHASHSEED": "0"}


def source_revision():
    """git revision when the checkout is a repository, else 'none', plus a
    sha256 over the package sources, which identifies any checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        rev = "none"
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "polyxport")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": rev, "src_sha256": h.hexdigest()}


def run_process(workload, seed, trace, budget, out_dir, deadline):
    """One worker process; returns its record or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(trace), "--out", out_dir]
    env = dict(os.environ, **THREAD_CAPS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:     # run() has killed and reaped it
        print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def tally(records, crashed):
    """Attempted and failed repetitions; a crashed process is one failure."""
    reps = [r for rec in records for r in rec["reps"]]
    attempted, failed = len(reps) + crashed, crashed
    ref = next((r["digests"] for r in reps if "digests" in r), None)
    for r in reps:
        if "error" not in r and r["digests"] != ref:
            r.setdefault("problems", []).append(
                "emitted files differ from the first repetition's")
        if "error" in r or r["problems"]:
            failed += 1
    return attempted, failed


def e2e_metrics(records):
    """Medians over repetitions (wall_s) and processes (the others)."""
    samples = {
        "wall_s": [r["wall_s"] for rec in records for r in rec["reps"]
                   if "error" not in r],
        "setup_s": [rec["setup_s"] for rec in records],
        "peak_rss_mb": [rec["peak_rss_mb"] for rec in records],
    }
    if not samples["wall_s"]:
        return None, samples
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; print its table and return the result object."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tag = f"{workload}-seed{seed}-trace{trace}"
    n_proc = 1 if trace else PROCESSES
    records, crashed = [], 0
    for i in range(n_proc):
        rec = run_process(workload, seed, trace, seconds / n_proc,
                          os.path.join(OUT, "work", f"{tag}-p{i}"), deadline)
        if rec is None:
            crashed += 1
        else:
            records.append(rec)

    values, samples, units = None, {}, E2E_UNITS
    if trace and records and "layers" in records[0]:
        values, units = records[0]["layers"], records[0]["units"]
    elif records and not trace:
        values, samples = e2e_metrics(records)
    attempted, failed = tally(records, crashed)
    correct = values is not None and failed == 0

    for name, value in (values or {}).items():
        extra = ""
        if len(samples.get(name, ())) > 1:
            s = sorted(samples[name])
            extra = f"  (median of {len(s)}; min {s[0]:.4g}, max {s[-1]:.4g})"
        print(f"{workload}  {name:30s} {value:14.6g} {units[name]}{extra}")
    print(f"{workload}  correct={correct} attempted={attempted} "
          f"failed={failed}")
    full = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "revision": source_revision(),
            "env": records[0]["env"] if records else None,
            "processes": records, "crashed_processes": crashed}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units} if values else {}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polyxport",
                                       "__init__.py")):
        print(f"no polyxport sources under {ROOT}/src: run from a "
              "repository checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    else:   # every workload in turn; metric names become workload/metric
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
