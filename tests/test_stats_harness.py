import json
import os

import numpy as np
import pytest

from polyxport import harness, stats
from polyxport.harness import ConfigError, ExperimentConfig


class TestKS:
    def test_one_sample_known_value(self):
        # three points against the uniform CDF on [0,1]
        samples = np.array([0.1, 0.5, 0.9])
        d = stats.ks_distance(samples, lambda x: np.clip(x, 0, 1))
        # sup deviation sits just after the first jump: 1/3 - 0.1
        assert d == pytest.approx(1 / 3 - 0.1)
        assert d == pytest.approx(max(abs(1 / 3 - 0.1), abs(0.5 - 1 / 3),
                                      abs(2 / 3 - 0.5), abs(0.9 - 2 / 3),
                                      abs(1 - 0.9)))

    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.exponential(1.0, size=200)
            cdf = lambda t: 1 - np.exp(-np.asarray(t))
            fast = stats.ks_distance(x, cdf)
            slow = stats.ks_distance_slow(x, cdf)
            # the grid scan resolves jumps to the 1e-9 probe offset
            assert fast == pytest.approx(slow, abs=1e-7)

    def test_defective_law(self):
        samples = np.array([0.2, 0.4, np.inf, np.inf])
        cdf = lambda t: 0.5 * np.clip(t, 0, 1)
        d = stats.ks_distance(stats.EmpiricalCDF.from_samples(samples), cdf)
        assert d == pytest.approx(max(abs(0.25 - 0.1), abs(0.5 - 0.2),
                                      abs(0.25 - 0.2), abs(0.5 - 1.0 * 0.5)))

    def test_two_sample_matches_slow(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=300)
            b = rng.normal(0.1, 1.0, size=200)
            d_fast, _ = stats.ks_two_sample(a, b)
            assert d_fast == pytest.approx(stats.ks_two_sample_slow(a, b),
                                           abs=1e-12)

    def test_kolmogorov_sf_values(self):
        assert stats.kolmogorov_sf(0.0) == 1.0
        # classical table value: Q(1.36) ~ 0.049
        assert stats.kolmogorov_sf(1.36) == pytest.approx(0.0491, abs=5e-4)

    def test_pvalues_roughly_uniform_under_null(self):
        rng = np.random.default_rng(2)
        ps = []
        for _ in range(200):
            a = rng.normal(size=400)
            b = rng.normal(size=400)
            ps.append(stats.ks_two_sample(a, b)[1])
        ps = np.array(ps)
        assert 0.2 < np.mean(ps < 0.5) < 0.8
        assert np.mean(ps < 0.01) < 0.06


class TestChi2:
    def test_gof_uniform(self):
        rng = np.random.default_rng(3)
        counts = np.bincount(rng.integers(0, 10, 10000), minlength=10)
        stat, p = stats.chi2_gof(counts, np.full(10, 0.1))
        assert p > 0.001

    def test_zero_prob_cell_with_mass_raises(self):
        with pytest.raises(ValueError):
            stats.chi2_statistic(np.array([1.0, 1.0]), np.array([2.0, 0.0]))

    def test_merge_tail_preserves_totals(self):
        counts = np.array([50.0, 30, 10, 5, 3, 1, 1, 0, 0, 0])
        probs = np.array([0.5, 0.3, 0.1, 0.05, 0.03, 0.01, 0.005,
                          0.003, 0.001, 0.001])
        c, p = stats.merge_tail(counts, probs, n=100, min_expected=5.0)
        assert c.sum() == counts.sum()
        assert p.sum() == pytest.approx(probs.sum())
        assert np.all(p[:-1] * 100 >= 5.0 - 1e-9)

    def test_independence_independent_table(self):
        rng = np.random.default_rng(4)
        table = np.histogram2d(rng.normal(size=5000),
                               rng.normal(size=5000), bins=5)[0]
        stat, p = stats.chi2_independence(table)
        assert p > 0.001


CONFIG = {
    "scene": {
        "dimension": 2,
        "anchor": [0.15, 0.15],
        "assume_incommensurable": True,
        "grains": [
            {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
             "medium": {"type": "crystal",
                        "matrix": [["1", "0"], ["0", "1"]],
                        "offset": [0.318, 0.577]}},
            {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
             "medium": {"type": "poisson"}},
        ],
    },
    "experiment": {"kind": "freepath", "seed": 3, "samples": 1000,
                   "r_schedule": [1e-2, 5e-3]},
    "output": {"dir": "out"},
}


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(CONFIG)
        assert cfg.kind == "freepath"
        assert cfg.scene.dimension == 2
        assert cfg.scene.medium_by_id(1).kind == "crystal"
        assert cfg.scene.medium_by_id(2).kind == "poisson"
        assert len(cfg.hash()) == 16

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["typo_key"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
        doc = json.loads(json.dumps(CONFIG))
        doc["scene"]["grains"][0]["shape"] = "round"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("key,value", [("xi_eval", [0.1]),
                                           ("family", "psi"),
                                           ("kind", "kernel-tables")])
    def test_keys_and_kinds_without_consumer_rejected(self, key, value):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"][key] = value
        with pytest.raises(ConfigError, match=key if key != "kind" else value):
            ExperimentConfig.from_dict(doc)

    def test_increasing_schedule_rejected(self):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["r_schedule"] = [1e-3, 1e-2]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_small_sample_count_rejected(self):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["samples"] = 10
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_seed_override(self):
        cfg = ExperimentConfig.from_dict(CONFIG)
        cfg2 = cfg.with_seed(99)
        assert cfg2.seed == 99
        assert cfg.seed == 3
        assert cfg.hash() != cfg2.hash()


class TestLimitCurves:
    def test_limit_cdf_monotone_and_bounded(self, two_squares):
        grid, vals = harness.limit_freepath_cdf(two_squares,
                                                two_squares.anchor, None,
                                                m_dirs=256)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0
        assert vals[-1] <= 1.0

    def test_limit_cdf_poisson_single_grain_quadrature(self):
        # against per-direction closed form on a disordered square
        from polyxport import presets
        scene = presets.single_square_2d(side=0.34, medium="poisson")
        grid, vals = harness.limit_freepath_cdf(scene, scene.anchor, None,
                                                m_dirs=512)
        from polyxport.geometry import itinerary
        ths = (np.arange(512) + 0.5) * 2 * np.pi / 512
        ref = np.zeros_like(grid)
        for th in ths:
            v = np.array([np.cos(th), np.sin(th)])
            chord = itinerary(scene, scene.anchor, v, 10.0)[0].exit
            ref += 1 - np.exp(-2 * np.minimum(grid, chord))
        ref /= 512
        assert np.max(np.abs(vals - ref)) < 1e-9


class TestEmit:
    def test_freepath_emit_round_trip(self, tmp_path):
        report = {
            "experiment": "freepath", "config_hash": "abc", "seed": 1,
            "per_r": [{"r": 0.01, "epsilon": 0.1, "n": 1000, "ks": 0.05,
                       "escape_fraction": 0.6, "limit_escape": 0.61}],
            "ks_decreasing": True, "ks_final": 0.05, "ks_final_ok": False,
            "verdict": False,
            "limit_grid": [0.0, 1.0], "limit_cdf": [0.0, 0.4],
        }
        files = harness.emit(report, str(tmp_path))
        names = {os.path.basename(f) for f in files}
        assert "freepath_summary.json" in names
        assert "freepath_ks.csv" in names
        with open(tmp_path / "freepath_summary.json") as fh:
            loaded = json.load(fh)
        assert loaded["config_hash"] == "abc"
        assert loaded["runtime_seconds"] is None
        with open(tmp_path / "freepath_ks.csv") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "r,epsilon,n,ks,escape_fraction,limit_escape"
        assert len(lines) == 2

    def test_emit_deterministic_bytes(self, tmp_path):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["samples"] = 1000
        doc["scene"]["grains"][0]["medium"] = {"type": "poisson"}
        cfg = ExperimentConfig.from_dict(doc)
        rep1 = harness.run_freepath(cfg)[0]
        rep2 = harness.run_freepath(cfg)[0]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        harness.emit(rep1, str(d1), cfg)
        harness.emit(rep2, str(d2), cfg)
        for name in os.listdir(d1):
            with open(d1 / name, "rb") as fh:
                b1 = fh.read()
            with open(d2 / name, "rb") as fh:
                b2 = fh.read()
            assert b1 == b2, name
