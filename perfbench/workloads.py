"""Workload definitions: one strict experiment config per workload.

Each config is a plain JSON document for `harness.ExperimentConfig`; the
benchmark injects its `--seed` as `experiment.seed`.  The scenes spell out
the `presets` geometries named in each entry so that the workload is parsed
from config text, as the CLI does.
"""
import math

_C1, _S1 = math.cos(1.0), math.sin(1.0)

# presets.two_squares_2d(mode="random-offset"): grain 1 carries Z^2, grain 2
# a copy rotated by 1 rad; both draw fresh offsets for every sample.
_TWO_SQUARES_ANNEALED = {
    "dimension": 2,
    "anchor": [0.15, 0.15],
    "assume_incommensurable": True,
    "grains": [
        {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
         "medium": {"type": "crystal", "matrix": [["1", "0"], ["0", "1"]],
                    "offset": [0.318, 0.577], "mode": "random-offset"}},
        {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
         "medium": {"type": "crystal", "matrix": [[_C1, _S1], [-_S1, _C1]],
                    "offset": [0.414, 0.162], "mode": "random-offset"}},
    ],
}

# presets.two_boxes_3d geometry: grain 1 an anchored identity crystal,
# grain 2 a Poisson medium.
_TWO_BOXES_MIXED = {
    "dimension": 3,
    "anchor": [0.06, 0.06, 0.06],
    "assume_incommensurable": True,
    "grains": [
        {"id": 1, "box": [[0.0, 0.0, 0.0], [0.12, 0.12, 0.12]],
         "medium": {"type": "crystal",
                    "matrix": [["1", "0", "0"], ["0", "1", "0"],
                               ["0", "0", "1"]],
                    "offset": [0.318, 0.577, 0.236]}},
        {"id": 2, "box": [[0.16, 0.0, 0.0], [0.28, 0.12, 0.12]],
         "medium": {"type": "poisson"}},
    ],
}

# presets.tiled_box_2d(medium="crystal"): the periodic plane tiled by one
# random-offset square crystal.
_TILED_BOX_2D = {
    "dimension": 2,
    "anchor": [0.175, 0.175],
    "periodic_box": {"lo": [0.0, 0.0], "hi": [0.35, 0.35]},
    "grains": [
        {"id": 1, "box": [[0.0, 0.0], [0.35, 0.35]],
         "medium": {"type": "crystal", "matrix": [["1", "0"], ["0", "1"]],
                    "offset": [0.318, 0.577], "mode": "random-offset"}},
    ],
}

# Periodic 3D box of side 0.14 tiled by one random-offset crystal grain.
_TILED_BOX_3D = {
    "dimension": 3,
    "anchor": [0.07, 0.07, 0.07],
    "periodic_box": {"lo": [0.0, 0.0, 0.0], "hi": [0.14, 0.14, 0.14]},
    "grains": [
        {"id": 1, "box": [[0.0, 0.0, 0.0], [0.14, 0.14, 0.14]],
         "medium": {"type": "crystal",
                    "matrix": [["1", "0", "0"], ["0", "1", "0"],
                               ["0", "0", "1"]],
                    "offset": [0.318, 0.577, 0.236],
                    "mode": "random-offset"}},
    ],
}


def _experiment(scene, **experiment):
    return {"scene": scene, "experiment": dict(experiment, threads=1)}


# name -> (config, lazy builds the workload triggers, finished in set-up)
WORKLOADS = {
    "freepath-2d-annealed": (_experiment(
        _TWO_SQUARES_ANNEALED, kind="freepath", samples=3000,
        r_schedule=[1e-2, 1e-3], q_mode="zero", resample_offsets=True), ()),
    "freepath-3d-mixed": (_experiment(
        _TWO_BOXES_MIXED, kind="freepath", samples=1000,
        r_schedule=[1e-3, 1e-4]), ()),
    "stationarity-2d": (_experiment(
        _TILED_BOX_2D, kind="stationarity", particles=20000, n_seeds=3), ()),
    "flight-3d": (_experiment(
        _TILED_BOX_3D, kind="flight", particles=1000, time=1.0),
        ("kernels.G",)),
}
