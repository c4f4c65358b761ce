"""End-to-end coverage of the harness runners on small configurations."""
import json

import numpy as np
import pytest

from polyxport import flight, harness
from polyxport.harness import ExperimentConfig


def crystal_scene_doc():
    return {
        "dimension": 2,
        "anchor": [0.15, 0.15],
        "assume_incommensurable": True,
        "grains": [
            {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
             "medium": {"type": "crystal",
                        "matrix": [["1", "0"], ["0", "1"]],
                        "offset": [0.318, 0.577], "mode": "random-offset"}},
            {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
             "medium": {"type": "crystal",
                        "matrix": [[0.5403023058681398, 0.8414709848078965],
                                   [-0.8414709848078965, 0.5403023058681398]],
                        "offset": [0.414, 0.162], "mode": "random-offset"}},
        ],
    }


def tiled_scene_doc(medium="crystal"):
    med = {"type": "poisson"} if medium == "poisson" else \
        {"type": "crystal", "matrix": [["1", "0"], ["0", "1"]],
         "offset": [0.318, 0.577], "mode": "random-offset"}
    return {
        "dimension": 2,
        "anchor": [0.175, 0.175],
        "grains": [{"id": 1, "box": [[0.0, 0.0], [0.35, 0.35]],
                    "medium": med}],
        "periodic_box": {"lo": [0.0, 0.0], "hi": [0.35, 0.35]},
    }


def tiled_poisson_3d_doc():
    return {
        "dimension": 3,
        "anchor": [0.07, 0.07, 0.07],
        "grains": [{"id": 1, "box": [[0.0] * 3, [0.14] * 3],
                    "medium": {"type": "poisson"}}],
        "periodic_box": {"lo": [0.0] * 3, "hi": [0.14] * 3},
    }


def test_run_freepath_small():
    cfg = ExperimentConfig.from_dict({
        "scene": crystal_scene_doc(),
        "experiment": {"kind": "freepath", "seed": 4, "samples": 4000,
                       "r_schedule": [3e-3, 1e-3], "q_mode": "zero",
                       "resample_offsets": True,
                       "thresholds": {"ks_final": 0.05}},
    })
    report = harness.run_freepath(cfg)
    assert [row["r"] for row in report["per_r"]] == [3e-3, 1e-3]
    assert report["ks_final"] < 0.05
    assert report["verdict"] in (True, False)


def test_run_freepath_on_scatterer_mode():
    doc = {
        "scene": {
            "dimension": 2, "anchor": [0.17, 0.17],
            "grains": [{"id": 1, "box": [[0.0, 0.0], [0.34, 0.34]],
                        "medium": {"type": "crystal",
                                   "matrix": [["1", "0"], ["0", "1"]],
                                   "offset": [0.318, 0.577]}}],
        },
        "experiment": {"kind": "freepath", "seed": 6, "samples": 4000,
                       "r_schedule": [1e-3],
                       "on_scatterer": True, "start_grain": 1,
                       "beta": {"mode": "radial", "alpha": 0.6},
                       "thresholds": {"ks_final": 0.08}},
    }
    report = harness.run_freepath(ExperimentConfig.from_dict(doc))
    # the scatterer-start limit differs from the generic one near 0
    assert report["per_r"][0]["ks"] < 0.08


def test_run_transition_small():
    cfg = ExperimentConfig.from_dict({
        "scene": crystal_scene_doc(),
        "experiment": {"kind": "transition", "seed": 4, "samples": 20000,
                       "r_schedule": [1e-3], "q_mode": "zero",
                       "resample_offsets": True},
    })
    report = harness.run_transition(cfg)
    assert report["p_value"] > 0.001
    assert np.asarray(report["observed"]).shape == (4, 4)


def test_run_poisson_baseline_small():
    doc = {
        "scene": tiled_scene_doc("poisson"),
        "experiment": {
            "kind": "poisson-baseline", "seed": 9, "samples": 30000,
            "gap_scene": {
                "dimension": 2, "anchor": [0.2, 0.2],
                "grains": [
                    {"id": 1, "box": [[0.0, 0.0], [0.4, 0.4]],
                     "medium": {"type": "poisson"}},
                    {"id": 2, "box": [[0.55, 0.0], [0.95, 0.4]],
                     "medium": {"type": "poisson"}},
                ],
            },
        },
    }
    report = harness.run_poisson_baseline(ExperimentConfig.from_dict(doc))
    assert report["freepath_ks"] < 0.02
    assert report["memoryless_p"] > 0.001
    assert report["collisions_p"] > 0.001
    assert report["gap_ks"] < 0.03


def test_poisson_baseline_3d_memorylessness_sees_the_polar_angle(
        monkeypatch):
    # a collision sampler whose flight lengths depend on the previous
    # direction through v_z only: the azimuth table cannot see it
    def by_polar(scene, x_col, v_prev, v_now, rng, **kwargs):
        scale = 1.0 + np.asarray(v_prev)[:, 2]
        return rng.exponential(scale / np.pi), np.array(v_now, dtype=float)

    cfg = ExperimentConfig.from_dict({
        "scene": tiled_poisson_3d_doc(),
        "experiment": {"kind": "poisson-baseline", "seed": 3,
                       "samples": 20000, "time": 0.2}})
    honest = harness.run_poisson_baseline(cfg)
    assert honest["memoryless_p"] > 0.001
    monkeypatch.setattr(flight, "sample_collision", by_polar)
    report = harness.run_poisson_baseline(cfg)
    assert report["memoryless_p"] < 1e-6


def test_poisson_baseline_thresholds_from_config():
    def verdict(thresholds):
        doc = {"scene": tiled_scene_doc("poisson"),
               "experiment": {"kind": "poisson-baseline", "seed": 9,
                              "samples": 4000, "thresholds": thresholds}}
        return harness.run_poisson_baseline(
            ExperimentConfig.from_dict(doc))["verdict"]

    loose = {"alpha": 1e-9, "freepath_ks": 1.0}
    assert verdict(loose)
    assert not verdict(dict(loose, freepath_ks=1e-9))


def test_run_stationarity_small():
    cfg = ExperimentConfig.from_dict({
        "scene": tiled_scene_doc("crystal"),
        "experiment": {"kind": "stationarity", "seed": 0, "samples": 1000,
                       "particles": 20000, "time": 1.5, "n_seeds": 2},
    })
    report = harness.run_stationarity(cfg)
    assert len(report["per_seed"]) == 2
    for row in report["per_seed"]:
        assert row["ks_xi"][1] > 0.001


def test_run_stationarity_evolves_each_seed_once(monkeypatch):
    # per seed: the whole evolution and the two split legs, nothing else
    calls = []
    evolve = flight.evolve

    def counted(scene, ens, dt, rng, **kwargs):
        calls.append(dt)
        return evolve(scene, ens, dt, rng, **kwargs)

    monkeypatch.setattr(flight, "evolve", counted)
    cfg = ExperimentConfig.from_dict({
        "scene": tiled_scene_doc("crystal"),
        "experiment": {"kind": "stationarity", "seed": 0, "particles": 2000,
                       "time": 1.0, "n_seeds": 2,
                       "split_times": [0.25, 0.75]},
    })
    report = harness.run_stationarity(cfg)
    assert calls == [1.0, 0.25, 0.75] * 2
    assert [row["seed"] for row in report["per_seed"]] == [0, 1]
    assert all(set(row) == {"seed", "ks_xi", "ks_vplus", "ks_v", "ks_cell",
                            "ks_split"} for row in report["per_seed"])


def test_run_flight_reports():
    cfg = ExperimentConfig.from_dict({
        "scene": tiled_scene_doc("crystal"),
        "experiment": {"kind": "flight", "seed": 2, "samples": 1000,
                       "particles": 20000, "time": 1.0,
                       "report": "marginals"},
    })
    report = harness.run_flight(cfg)
    assert report["n0_fraction"] == pytest.approx(
        report["n0_fraction_oracle"], abs=0.02)
    assert sum(report["xi_hist"]["counts"]) > 0
    assert len(report["v_angle_hist"]["edges"]) == 41
    assert "v_polar_hist" not in report


def test_run_flight_marginals_3d_histogram_the_polar_cosine():
    cfg = ExperimentConfig.from_dict({
        "scene": tiled_poisson_3d_doc(),
        "experiment": {"kind": "flight", "seed": 2, "particles": 4000,
                       "time": 0.5, "report": "marginals"}})
    report = harness.run_flight(cfg)
    hist = report["v_polar_hist"]
    assert hist["edges"] == np.linspace(-1.0, 1.0, 41).tolist()
    assert sum(hist["counts"]) == 4000


def test_runner_dispatch():
    with pytest.raises(harness.ConfigError):
        ExperimentConfig.from_dict({
            "scene": tiled_scene_doc(),
            "experiment": {"kind": "nope", "seed": 0, "samples": 1000},
        })
