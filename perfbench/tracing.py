"""Outside-in tracing of polyxport's public entry points.

`Tracer.install` replaces each traced function by a wrapper at every place
its callers look it up (module attributes, names imported into other
modules, class attributes), so no line of the package changes.  Each call
records a span ``[name, start, end, parent, work]`` in memory; ``work`` is
the call's unit count (rows, evaluations, bytes) or ``None``.  `layer_metrics`
turns one repetition's spans into the per-layer metrics.
"""
import collections
import functools
import os
import statistics
from time import perf_counter

import numpy as np

from polyxport import (flight, geometry, harness, kernels, lattice, microsim,
                       polykernel, stats)


def _rows(arg):
    return lambda args, kwargs, result: len(np.atleast_2d(args[arg]))


def _first_size(args, kwargs, result):
    # args[0] is the KernelModel; the first argument holds the xi values
    return int(np.size(args[1] if len(args) > 1 else
                       next(iter(kwargs.values()))))


def _hit(args, kwargs, result):
    return int(result is not None)


def _returned_rows(args, kwargs, result):
    return len(result)


def _emitted_bytes(args, kwargs, result):
    return sum(os.path.getsize(p) for p in result)


_KERNEL_METHODS = ("phi0", "phi_marg", "phi0_marg", "phi", "d_phi", "phi_cdf",
                   "invert_phi_cdf", "tail_bound")

# span name -> (work counter or None, [(owner, attribute), ...]); the owners
# are every namespace the package's callers resolve the name in.
ENTRY_POINTS = {
    "harness.run_experiment": (None, [(harness, "run_experiment")]),
    "harness.emit": (_emitted_bytes, [(harness, "emit")]),
    "harness.limit_freepath_cdf": (None, [(harness, "limit_freepath_cdf")]),
    "microsim.first_collision": (_hit, [(microsim, "first_collision")]),
    "microsim.runtime_build": (None, [(microsim.MicroRuntime, "__init__")]),
    "microsim.candidates": (_returned_rows,
                            [(microsim.MicroRuntime, "candidates")]),
    "microsim.resample_media": (None,
                                [(microsim.MicroRuntime, "resample_media")]),
    "microsim.grid_query": (None, [(microsim.PointGrid, "query_segment")]),
    "lattice.points_in_tube": (None, [(microsim, "points_in_tube"),
                                      (lattice, "points_in_tube")]),
    "geometry.ray_grain_intersect": (None,
                                     [(microsim, "ray_grain_intersect"),
                                      (geometry, "ray_grain_intersect")]),
    "geometry.itinerary": (None, [(polykernel, "itinerary"),
                                  (geometry, "itinerary")]),
    "polykernel.survival_psi": (None, [(polykernel, "survival_psi")]),
    "kernels.g_build": (None, [(kernels._GTable, "_build")]),
    **{f"kernels.{m}": (_first_size, [(kernels.KernelModel, m)])
       for m in _KERNEL_METHODS},
    "flight.evolve": (None, [(flight, "evolve")]),
    "flight.sample_collision": (_rows(2), [(flight, "sample_collision")]),
    "flight.sample_xi_w": (_rows(1), [(flight, "sample_xi_w")]),
    "flight.make_walker": (_rows(1), [(flight, "make_walker")]),
    "stats.ks_distance": (None, [(stats, "ks_distance")]),
    "stats.ks_two_sample": (None, [(stats, "ks_two_sample")]),
}


class Tracer:
    """Records nested spans of the wrapped entry points while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for name, (work, sites) in ENTRY_POINTS.items():
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, work):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            self.spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced


def _dur(span):
    return span[2] - span[1]


def self_times(spans):
    """Span duration minus the time its direct child spans cover."""
    child = {id(s): 0.0 for s in spans}
    for s in spans:
        if s[3] is not None:
            child[id(s[3])] += _dur(s)
    return {id(s): _dur(s) - child[id(s)] for s in spans}


class _Layer:
    """Calls, seconds and work of one span name."""

    def __init__(self, spans):
        self.calls = len(spans)
        self.seconds = sum(_dur(s) for s in spans)
        self.work = sum(s[4] or 0 for s in spans)

    def per_call(self, scale=1e6):
        return self.seconds / self.calls * scale if self.calls else 0.0


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


# metric name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "microsim.rays": "count", "microsim.us_per_ray": "us",
    "microsim.hit_fraction": "ratio", "microsim.candidates_per_ray": "ratio",
    "microsim.runtime_builds": "count", "microsim.runtime_build_s": "s",
    "microsim.resample_s": "s", "microsim.grid_queries": "count",
    "microsim.us_per_grid_query": "us",
    "lattice.tube_queries": "count", "lattice.us_per_tube_query": "us",
    "geometry.ray_clips": "count", "geometry.itinerary_calls": "count",
    "geometry.us_per_itinerary": "us",
    "polykernel.survival_calls": "count", "polykernel.us_per_survival": "us",
    "kernels.g_build_s": "s", "kernels.calls": "count",
    "kernels.evals": "count", "kernels.ns_per_eval": "ns",
    "flight.collisions": "count", "flight.rounds": "count",
    "flight.us_per_collision": "us", "flight.draws": "count",
    "flight.us_per_draw": "us", "flight.walker_rows_per_draw": "ratio",
    "stats.ks_s": "s",
    "harness.limit_cdf_s": "s", "harness.emit_s": "s",
    "harness.emit_bytes": "bytes", "harness.self_s": "s",
    "trace.overhead_s": "s",
}

# metrics that count work; two traced runs at one seed must agree on them
COUNTS = [m for m, u in UNITS.items() if u in ("count", "ratio", "bytes")]


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition (all but trace.*)."""
    by_name = collections.defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)

    def layer(name):
        return _Layer(by_name[name])

    ray = layer("microsim.first_collision")
    build = layer("microsim.runtime_build")
    grid = layer("microsim.grid_query")
    tube = layer("lattice.points_in_tube")
    itin = layer("geometry.itinerary")
    surv = layer("polykernel.survival_psi")
    # only outermost kernel calls: phi_cdf and invert_phi_cdf call others
    kern = [s for s in spans if s[0].startswith("kernels.")
            and s[0] != "kernels.g_build"
            and not (s[3] is not None and s[3][0].startswith("kernels."))]
    kern_s = sum(_dur(s) for s in kern)
    kern_evals = sum(s[4] for s in kern)
    coll = layer("flight.sample_collision")
    draw = layer("flight.sample_xi_w")
    emit = layer("harness.emit")
    selfs = self_times(spans)
    return {
        "microsim.rays": ray.calls,
        "microsim.us_per_ray": ray.per_call(),
        "microsim.hit_fraction": _ratio(ray.work, ray.calls),
        "microsim.candidates_per_ray": _ratio(
            layer("microsim.candidates").work, ray.calls),
        "microsim.runtime_builds": build.calls,
        "microsim.runtime_build_s": build.seconds,
        "microsim.resample_s": layer("microsim.resample_media").seconds,
        "microsim.grid_queries": grid.calls,
        "microsim.us_per_grid_query": grid.per_call(),
        "lattice.tube_queries": tube.calls,
        "lattice.us_per_tube_query": tube.per_call(),
        "geometry.ray_clips": layer("geometry.ray_grain_intersect").calls,
        "geometry.itinerary_calls": itin.calls,
        "geometry.us_per_itinerary": itin.per_call(),
        "polykernel.survival_calls": surv.calls,
        "polykernel.us_per_survival": surv.per_call(),
        "kernels.g_build_s": layer("kernels.g_build").seconds,
        "kernels.calls": len(kern),
        "kernels.evals": kern_evals,
        "kernels.ns_per_eval": _ratio(kern_s, kern_evals, 1e9),
        "flight.collisions": coll.work,
        "flight.rounds": coll.calls,
        "flight.us_per_collision": _ratio(
            layer("flight.evolve").seconds, coll.work, 1e6),
        "flight.draws": draw.work,
        "flight.us_per_draw": _ratio(draw.seconds, draw.work, 1e6),
        "flight.walker_rows_per_draw": _ratio(
            layer("flight.make_walker").work, draw.work),
        "stats.ks_s": (layer("stats.ks_distance").seconds
                       + layer("stats.ks_two_sample").seconds),
        "harness.limit_cdf_s": layer("harness.limit_freepath_cdf").seconds,
        "harness.emit_s": emit.seconds,
        "harness.emit_bytes": emit.work,
        "harness.self_s": sum(selfs[id(s)] for s in spans
                              if s[0] == "harness.run_experiment"),
    }


def merge_repetitions(setup, reps):
    """One metrics dict from the set-up and each traced repetition.

    Counts come from the first repetition (the caller checks that all
    agree); times are medians over repetitions.  The G-table build is a
    lazy set-up cost, so set-up's `kernels.g_build_s` is added in.
    """
    out = {}
    for name in reps[0]:
        if name in COUNTS:
            out[name] = reps[0][name]
        else:
            out[name] = statistics.median(r[name] for r in reps)
    out["kernels.g_build_s"] += setup["kernels.g_build_s"]
    return out


def save_spans(path, spans):
    """Write spans as arrays: name index, start, end, parent index, work."""
    names = sorted({s[0] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    index = {id(s): i for i, s in enumerate(spans)}
    np.savez_compressed(
        path, names=np.array(names),
        name=np.array([code[s[0]] for s in spans], dtype=np.int16),
        start=np.array([s[1] for s in spans]),
        end=np.array([s[2] for s in spans]),
        parent=np.array([-1 if s[3] is None else index[id(s[3])]
                         for s in spans], dtype=np.int64),
        work=np.array([-1 if s[4] is None else s[4] for s in spans],
                      dtype=np.int64))
