"""One fresh benchmark process: set up one workload, then time repetitions.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS \
        --trace 0|1 --out DIR

Set-up is everything from the first line of this file to a parsed config
with the workload's lazy builds finished.  Each repetition then runs
`harness.run_experiment` + `harness.emit`, the calls the CLI makes, and
checks the emitted files.  A new repetition starts only while it is
expected to end within `--budget` seconds of start-up (there is always at
least one).  Untraced times are in reference seconds (`SpeedProbe`).  With
`--trace 1`, untraced and traced repetitions alternate and the traced ones
record per-layer spans.  The last line of standard output is one JSON
record for `run.py`.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_INTERVAL_S = 0.05


def _python_probe():
    """Set-up probe: pure Python, as NumPy is not imported yet."""
    s = 0
    for i in range(4000):
        s += i * i % 7


def _numpy_probe():
    """Repetition probe: small NumPy operations in a Python loop."""
    import numpy
    a, s = numpy.arange(3.0), 0
    for i in range(400):
        a = a * 1.0000001 + 1e-9
        s += i % 7


# probe -> (body, its duration on an uncontended core of the reference
# machine, an Intel Xeon at 2.1 GHz)
PROBES = {"python": (_python_probe, 0.24e-3), "numpy": (_numpy_probe, 0.48e-3)}


class SpeedProbe:
    """Samples the machine's speed while a timed section runs.

    Shared machines change speed by up to 1.8x within seconds as neighbours
    load the same cores.  Inside `with probe:` a timer signal runs a fixed
    probe, which calls no polyxport code, every PROBE_INTERVAL_S and
    records how long it took.  `reference_seconds` turns the section's wall
    time into seconds at the reference speed: the wall time without the
    probes, times the mean of (reference duration / probe duration).
    """

    def __init__(self, kind):
        self._body, self._ref = PROBES[kind]
        self.samples = []

    def _probe(self, signum=None, frame=None):
        t = time.perf_counter()
        self._body()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._probe()

    def reference_seconds(self, wall):
        busy = wall - sum(self.samples)
        return busy * statistics.mean(self._ref / p for p in self.samples)


def _lazy_build(name):
    from polyxport import kernels
    if name == "kernels.G":
        kernels.G(0.0)
    else:
        raise ValueError(f"unknown lazy build {name!r}")


def set_up(name, seed):
    """Parse the workload config from JSON text and finish its lazy builds."""
    from polyxport import harness
    doc, lazy = WORKLOADS[name]
    text = json.dumps(dict(doc, experiment=dict(doc["experiment"], seed=seed)))
    config = harness.ExperimentConfig.from_dict(json.loads(text))
    for build in lazy:
        _lazy_build(build)
    return config


def repetition(config, out_dir, probe=None):
    """Run, emit and check once; return the repetition's record.

    With a SpeedProbe, `wall_s` is in reference seconds and the measured
    wall time is kept as `wall_raw_s`.
    """
    from polyxport import harness
    t = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            report = harness.run_experiment(config)
            files = harness.emit(report, out_dir, config)
    except Exception:   # a failed run is counted, not fatal
        traceback.print_exc()
        return {"wall_s": time.perf_counter() - t,
                "error": traceback.format_exc(limit=1)}
    wall = time.perf_counter() - t
    digests, problems = check_outputs(files)
    shutil.rmtree(out_dir)
    rep = {"wall_s": wall, "digests": digests, "problems": problems}
    if probe is not None:
        rep.update(wall_s=probe.reference_seconds(wall), wall_raw_s=wall,
                   probe_ms=1e3 * statistics.median(probe.samples))
    return rep


def trace_summary(reps, setup):
    """Merge the traced repetitions' layer metrics; flag moved counts."""
    import tracing
    traced = [r for r in reps if r["traced"] and "layers" in r]
    for r in traced[1:]:
        moved = [m for m in tracing.COUNTS
                 if r["layers"][m] != traced[0]["layers"][m]]
        if moved:
            r.setdefault("problems", []).append(
                f"traced counts differ from the first traced repetition: "
                f"{moved}")
    values = tracing.merge_repetitions(setup, [r["layers"] for r in traced])
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in reps
                            if not r["traced"] and "error" not in r))
    return values


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python_threads": threading.active_count(),
        "thread_caps": {k: v for k, v in os.environ.items()
                        if k.endswith("_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    # the probe's signals would land inside traced spans, so traced runs
    # time raw wall clock only
    probe = None if args.trace else SpeedProbe("python")
    with probe or contextlib.nullcontext():
        config = set_up(args.workload, args.seed)
    setup_raw = time.perf_counter() - T0
    record = {"setup_raw_s": setup_raw, "reps": [], "env": environment()}
    if probe is not None:
        record["setup_s"] = probe.reference_seconds(setup_raw)
    if tracer is not None:
        setup_spans = tracer.take()
        tracer.uninstall()
    # trace mode: untraced, traced, untraced, traced, ... with >= 2 traced
    min_reps = 4 if tracer is not None else 1
    k = 0
    probe = None if args.trace else SpeedProbe("numpy")
    last = 0.0    # duration of the previous repetition; none may overrun
    while k < min_reps or time.perf_counter() - T0 + last < args.budget:
        started = time.perf_counter()
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        rep = repetition(config, os.path.join(args.out, f"rep{k}"), probe)
        rep["traced"] = traced
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            rep["layers"] = tracing.layer_metrics(spans)
            if k == 1:
                tracing.save_spans(os.path.join(args.out, "spans.npz"), spans)
        record["reps"].append(rep)
        k += 1
        last = time.perf_counter() - started
    if tracer is not None:
        record["layers"] = trace_summary(record["reps"],
                                         tracing.layer_metrics(setup_spans))
        record["units"] = tracing.UNITS
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
