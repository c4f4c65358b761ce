"""Box scenes parse and evaluate without importing SciPy.

Each case runs in a fresh interpreter, since the test session itself has
SciPy loaded.  SciPy stays imported where it is needed: grains that are
not boxes, the d=3 G table, and the transition and poisson runners.
"""
import json
import os
import subprocess
import sys

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


def test_box_configs_parse_without_scipy():
    docs = [
        {"scene": TWO_BOXES_2D,
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
