"""Frozen-output regression: a fixed tiny experiment must reproduce the
golden files byte for byte (generated once by this implementation)."""
import os

import numpy as np
import pytest

from polyxport import flight, harness, presets
from polyxport.geometry import ConvexGrain, make_scene
from polyxport.lattice import CrystalMedium, PoissonMedium
from polyxport.microsim import BetaSpec

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def assert_same_lines(fresh, golden, name):
    """fresh == golden (str or bytes), reported at the first differing
    line: pytest's diff of two long texts takes minutes."""
    fresh = fresh.splitlines(keepends=True)
    golden = golden.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(fresh, golden)):
        assert a == b, f"{name} drifted from the frozen output at line {i + 1}"
    assert len(fresh) == len(golden), \
        f"{name} has {len(fresh)} lines, the frozen output {len(golden)}"


DOC = {
    "scene": {
        "dimension": 2, "anchor": [0.15, 0.15],
        "grains": [
            {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
             "medium": {"type": "poisson"}},
            {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
             "medium": {"type": "poisson"}},
        ],
    },
    "experiment": {"kind": "freepath", "seed": 20260808, "samples": 1500,
                   "r_schedule": [1e-2], "q_mode": "zero"},
}


def test_golden_freepath(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(DOC)
    report = harness.run_freepath(cfg)
    files = harness.emit(report, str(tmp_path), cfg)
    for path in files:
        name = os.path.basename(path)
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            golden = fh.read()
        with open(path, "rb") as fh:
            fresh = fh.read()
        assert_same_lines(fresh, golden, name)


def _two_boxes_mixed():
    """presets.two_boxes_3d geometry: a crystal grain, then a Poisson one."""
    g1 = ConvexGrain.box(1, (0, 0, 0), (0.12, 0.12, 0.12))
    g2 = ConvexGrain.box(2, (0.16, 0, 0), (0.28, 0.12, 0.12))
    m1 = CrystalMedium(presets.identity_lattice(3, (0.318, 0.577, 0.236)))
    return make_scene(3, (g1, g2), (m1, PoissonMedium()),
                      anchor=(0.06,) * 3, assume_incommensurable=True)


# golden file -> (scene, limit_freepath_cdf keywords)
LIMIT_CASES = {
    "limit_cdf_mixed_3d_psi.txt": (_two_boxes_mixed, {}),
    "limit_cdf_two_squares_psi0.txt": (
        presets.two_squares_2d,
        {"on_scatterer": True, "beta": BetaSpec("radial", 0.6)}),
    "limit_cdf_single_box_3d_psi0.txt": (
        presets.single_box_3d,
        {"on_scatterer": True, "beta": BetaSpec("radial", 0.6)}),
}


def limit_cdf_lines(name):
    """repr(float) lines 'xi,cdf' of the limit CDF at the scene anchor."""
    make, kwargs = LIMIT_CASES[name]
    scene = make()
    grid, vals = harness.limit_freepath_cdf(scene, scene.anchor, m_dirs=256,
                                            **kwargs)
    return [f"{float(x)!r},{float(c)!r}\n" for x, c in zip(grid, vals)]


@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_golden_limit_cdf(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        golden = fh.read()
    assert_same_lines("".join(limit_cdf_lines(name)), golden, name)


def flight_stream_lines(scenes):
    """For each (label, scene): 64 particles of sample_initial evolved to
    t = 0.5 at a fixed seed, one line 'xi,v_plus...,nu' per particle with
    repr floats, after a '# label' header."""
    lines = []
    for label, scene in scenes:
        rng = np.random.default_rng(20261018)
        ens = flight.evolve(scene, flight.sample_initial(scene, 64, rng),
                            0.5, rng)
        lines.append(f"# {label}\n")
        for xi, vp, nu in zip(ens.xi, ens.v_plus, ens.nu):
            vals = [float(xi)] + [float(c) for c in vp]
            lines.append(",".join(repr(x) for x in vals) + f",{int(nu)}\n")
    return lines


def test_golden_flight_streams(tiled_crystal, tiled_crystal_3d):
    with open(os.path.join(GOLDEN_DIR, "flight_streams.txt"),
              encoding="utf-8") as fh:
        golden = fh.read()
    fresh = "".join(flight_stream_lines([("tiled 2D crystal", tiled_crystal),
                                         ("tiled 3D crystal",
                                          tiled_crystal_3d)]))
    assert_same_lines(fresh, golden, "flight_streams.txt")
