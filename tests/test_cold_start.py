"""What a fresh interpreter gets from importing polyxport.

Box scenes parse, evaluate and fly without importing SciPy.  Each case
runs in a fresh interpreter, since the test session itself has SciPy
loaded.  The d=3 G table is read from shipped coefficients, so a flight on
a tiled 3D crystal box loads no SciPy either.  SciPy stays imported where
it is needed: grains that are not boxes and the chi-square tails of the
transition and poisson runners.  On glibc the import also fixes the malloc
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

_REPORT_SCIPY = """
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nimport polyxport\n" + script + _REPORT_SCIPY,
         *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
