"""What a fresh interpreter gets from importing polyxport.

The package loads a public name's module on first access, and parsing a
config loads the engines of its runner and no others, so a run imports
no further polyxport module.  Box scenes parse, evaluate, fly and run
every runner without importing SciPy: the d=3 G table is read from
shipped coefficients, and the chi-square tails are computed in stats.
SciPy stays imported where it is needed, for grains that are not boxes.
Each case runs in a fresh interpreter, since the test session itself has
SciPy and every engine loaded.  On glibc the import also fixes the malloc
thresholds, so freed arrays are reused without page faults.
"""
import json
import os
import platform
import subprocess
import sys

import pytest

import polyxport

SRC = os.path.dirname(os.path.dirname(polyxport.__file__))

_CRYSTAL_2D = {"type": "crystal", "matrix": [["1", "0"], ["0", "1"]],
               "offset": [0.318, 0.577]}

TWO_BOXES_2D = {
    "dimension": 2, "anchor": [0.15, 0.15], "assume_incommensurable": True,
    "grains": [
        {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]], "medium": _CRYSTAL_2D},
        {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
         "medium": {"type": "poisson"}}]}

CRYSTAL_POISSON_3D = {
    "dimension": 3, "anchor": [0.06, 0.06, 0.06],
    "assume_incommensurable": True,
    "grains": [
        {"id": 1, "box": [[0.0, 0.0, 0.0], [0.12, 0.12, 0.12]],
         "medium": {"type": "crystal",
                    "matrix": [["1", "0", "0"], ["0", "1", "0"],
                               ["0", "0", "1"]],
                    "offset": [0.318, 0.577, 0.236]}},
        {"id": 2, "box": [[0.16, 0.0, 0.0], [0.28, 0.12, 0.12]],
         "medium": {"type": "poisson"}}]}

TILED_BOX_2D = {
    "dimension": 2, "anchor": [0.175, 0.175],
    "periodic_box": {"lo": [0.0, 0.0], "hi": [0.35, 0.35]},
    "grains": [{"id": 1, "box": [[0.0, 0.0], [0.35, 0.35]],
                "medium": dict(_CRYSTAL_2D, mode="random-offset")}]}

TILED_BOX_3D = {
    "dimension": 3, "anchor": [0.07, 0.07, 0.07],
    "periodic_box": {"lo": [0.0, 0.0, 0.0], "hi": [0.14, 0.14, 0.14]},
    "grains": [{"id": 1, "box": [[0.0, 0.0, 0.0], [0.14, 0.14, 0.14]],
                "medium": dict(CRYSTAL_POISSON_3D["grains"][0]["medium"],
                               mode="random-offset")}]}

_LOADED = """
def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)
"""


def _fresh(script, *args):
    """The JSON of the last line that script prints in a fresh interpreter
    that has imported polyxport, json and sys, and defined loaded(top), the
    modules loaded of the package top."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nimport polyxport\n" + _LOADED + script, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_modules_after(script, *args):
    return _fresh(script + "print(json.dumps(loaded('scipy')))\n", *args)


# README's example scene: its second grain is a box given by its corners
README_SCENE = dict(TWO_BOXES_2D, grains=[
    TWO_BOXES_2D["grains"][0],
    {"id": 2, "vertices": [[0.35, 0.0], [0.65, 0.0], [0.65, 0.3],
                           [0.35, 0.3]],
     "medium": {"type": "poisson"}}])


def test_box_configs_parse_without_scipy():
    docs = [
        {"scene": TWO_BOXES_2D,
         "experiment": {"kind": "freepath", "r_schedule": [1e-2]}},
        {"scene": README_SCENE,
         "experiment": {"kind": "freepath", "r_schedule": [1e-2]}},
        {"scene": CRYSTAL_POISSON_3D,
         "experiment": {"kind": "freepath", "r_schedule": [1e-3, 1e-4]}},
        {"scene": TILED_BOX_2D,
         "experiment": {"kind": "stationarity", "particles": 1000}},
    ]
    script = ("from polyxport import harness\n"
              "for doc in json.loads(sys.argv[1]):\n"
              "    harness.ExperimentConfig.from_dict(doc)\n")
    assert _scipy_modules_after(script, json.dumps(docs)) == []


def test_psi_eval_on_box_scene_without_scipy(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"scene": TWO_BOXES_2D}))
    script = ("from polyxport.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n")
    assert _scipy_modules_after(
        script, "psi", "eval", "--config", str(path), "--x", "0.15,0.15",
        "--v", "1,0.3", "--xi", "0.1,0.4") == []


def test_flight_on_box_scene_without_scipy():
    # a finite scene draws positions over the grains, weighted by volume, and
    # the n=0 oracle draws its starts the same way; flight needs one medium
    # kind per scene
    scene = dict(TWO_BOXES_2D, grains=[
        dict(g, medium=_CRYSTAL_2D) for g in TWO_BOXES_2D["grains"]])
    doc = {"scene": scene,
           "experiment": {"kind": "flight", "particles": 200, "time": 0.5}}
    script = ("from polyxport import harness\n"
              "cfg = harness.ExperimentConfig.from_dict("
              "json.loads(sys.argv[1]))\n"
              "harness.run_experiment(cfg)\n")
    assert _scipy_modules_after(script, json.dumps(doc)) == []


def test_flight_on_tiled_3d_crystal_without_scipy():
    # the d=3 crystal samples through G and the inverted free-path cubic
    doc = {"scene": TILED_BOX_3D,
           "experiment": {"kind": "flight", "particles": 1000, "time": 1.0}}
    script = ("from polyxport import harness\n"
              "cfg = harness.ExperimentConfig.from_dict("
              "json.loads(sys.argv[1]))\n"
              "harness.run_experiment(cfg)\n")
    assert _scipy_modules_after(script, json.dumps(doc)) == []


def test_grain_that_is_not_a_box_still_imports_scipy():
    # the control of the guards above: a rotated square is validated by
    # HiGHS, and the same report sees SciPy
    scene = {"dimension": 2, "grains": [
        {"id": 1, "vertices": [[0.5, 0.0], [0.6, 0.1], [0.5, 0.2],
                               [0.4, 0.1]],
         "medium": {"type": "poisson"}}]}
    script = ("from polyxport import harness\n"
              "harness.parse_scene(json.loads(sys.argv[1]))\n")
    assert "scipy.optimize" in _scipy_modules_after(script,
                                                    json.dumps(scene))


# The polyxport modules that parsing a config loads, and on top of them the
# engines of each runner, with the modules that those import.
PARSED = ["polyxport", "polyxport.geometry", "polyxport.harness",
          "polyxport.kernels", "polyxport.lattice", "polyxport.scattering"]
ENGINES = {"freepath": ["microsim", "polykernel", "stats", "streams"],
           "transition": ["microsim", "polykernel", "stats", "streams"],
           "poisson-baseline": ["flight", "polykernel", "stats", "streams"],
           "stationarity": ["flight", "stats", "streams"],
           "flight": ["flight", "polykernel", "stats", "streams"]}

_TILED_POISSON_2D = dict(TILED_BOX_2D, grains=[
    dict(TILED_BOX_2D["grains"][0], medium={"type": "poisson"})])
_ANNEALED_2D = dict(TWO_BOXES_2D, grains=[
    dict(g, medium=dict(_CRYSTAL_2D, mode="random-offset"))
    for g in TWO_BOXES_2D["grains"]])

# small runs shaped like the benchmark workloads, and one of every runner
RUNS = {
    "freepath-2d-annealed": {"scene": _ANNEALED_2D, "experiment": {
        "kind": "freepath", "r_schedule": [1e-2], "q_mode": "zero",
        "resample_offsets": True}},
    "freepath-3d-mixed": {"scene": CRYSTAL_POISSON_3D, "experiment": {
        "kind": "freepath", "r_schedule": [1e-3]}},
    "transition-2d": {"scene": TWO_BOXES_2D, "experiment": {
        "kind": "transition", "r_schedule": [1e-2]}},
    "poisson-baseline-2d": {"scene": _TILED_POISSON_2D, "experiment": {
        "kind": "poisson-baseline"}},
    "stationarity-2d": {"scene": TILED_BOX_2D, "experiment": {
        "kind": "stationarity", "particles": 1000, "n_seeds": 1}},
    "flight-3d": {"scene": TILED_BOX_3D, "experiment": {
        "kind": "flight", "particles": 200, "time": 0.5}},
}


def test_the_runs_cover_every_runner():
    from polyxport import harness
    kinds = {doc["experiment"]["kind"] for doc in RUNS.values()}
    assert kinds == set(harness.RUNNERS) == set(ENGINES)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_parsing_loads_the_runner_engines_and_the_run_no_more(name):
    # the run also imports no SciPy: a transition or poisson-baseline run
    # on box scenes computes its chi-square tails without it
    doc = RUNS[name]
    script = ("from polyxport import harness\n"
              "cfg = harness.ExperimentConfig.from_dict("
              "json.loads(sys.argv[1]))\n"
              "parsed = loaded('polyxport')\n"
              "harness.run_experiment(cfg)\n"
              "print(json.dumps([parsed, loaded('polyxport'), "
              "loaded('scipy')]))\n")
    parsed, ran, scipy = _fresh(script, json.dumps(doc))
    assert parsed == sorted(PARSED + [
        f"polyxport.{m}" for m in ENGINES[doc["experiment"]["kind"]]])
    assert ran == parsed
    assert scipy == []


def test_a_rejected_config_loads_no_engine():
    doc = json.loads(json.dumps(RUNS["stationarity-2d"]))
    doc["experiment"]["thresholds"] = {"ks_alpha": "0.01"}
    script = ("from polyxport import harness\n"
              "try:\n"
              "    harness.ExperimentConfig.from_dict(json.loads(sys.argv[1]))\n"
              "except harness.ConfigError as err:\n"
              "    print(json.dumps([str(err), loaded('polyxport')]))\n")
    err, parsed = _fresh(script, json.dumps(doc))
    assert err.startswith("experiment.thresholds.ks_alpha: ")
    assert parsed == PARSED


def test_cli_flight_loads_no_microsim(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RUNS["flight-3d"]))
    script = ("from polyxport.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(json.dumps(loaded('polyxport')))\n")
    loaded = _fresh(script, "flight", "--config", str(path), "--out",
                    str(tmp_path / "out"))
    assert "polyxport.flight" in loaded
    assert "polyxport.microsim" not in loaded


# The names the package exported when it imported every engine up front.
EXPORTS = """
    ConvexGrain ItinerarySegment PeriodicBox Scene SceneError gap itinerary
    make_scene ray_grain_intersect KernelModel RangeError F G d_phi phi0_2d
    phi0_3d phi_freepath phi_marginal sigma_bar tail_bound upsilon
    AffineLattice CrystalMedium PoissonMedium ScaledGrainLattice bcc_matrix
    points_in_tube BetaSpec CollisionEvent MicroConfig MicroRuntime
    first_collision first_collisions sample_tau1_distribution along_ray
    check_transport_identity family_rows poisson_psi psi_tail_bound
    cross_section exit_param impact_param reflect Ensemble evolve
    n_collision_histogram sample_collision sample_initial sample_xi_w
    stationarity_test""".split()


def test_every_exported_name_resolves_on_first_access():
    # a submodule's name still imports the submodule (perfbench's tracing
    # imports its engines so), before and after the names load
    script = ("from polyxport import flight\n"
              "import polyxport.flight\n"
              "assert flight is polyxport.flight\n"
              "before = loaded('polyxport')\n"
              "names = json.loads(sys.argv[1])\n"
              "found = {n: getattr(polyxport, n).__module__ for n in names}\n"
              "assert all(getattr(polyxport, n) is getattr(sys.modules[m], n)"
              " for n, m in found.items())\n"
              "from polyxport import stats\n"
              "print(json.dumps([before, sorted(found)]))\n")
    before, found = _fresh(script, json.dumps(EXPORTS))
    assert before == ["polyxport", "polyxport.flight", "polyxport.geometry",
                      "polyxport.kernels", "polyxport.lattice",
                      "polyxport.scattering", "polyxport.stats",
                      "polyxport.streams"]
    assert found == sorted(EXPORTS)


def test_an_unknown_name_is_no_attribute():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        polyxport.__getattr__("no_such_name")
    assert not hasattr(polyxport, "harness_runner")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set on glibc only")
def test_freed_arrays_are_reused_without_page_faults():
    # importing polyxport fixes glibc's mmap threshold above this array, so
    # the second round reuses the heap pages the first one freed; glibc's
    # own dynamic threshold would move the array into the heap only then,
    # and grow the heap with fresh pages
    script = """
import resource
import numpy as np
import polyxport
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.empty(2 << 20)
    a.fill(1.0)
    del a
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - before)
print(faults[1])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100
