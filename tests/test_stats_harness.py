import json
import os
import re

import numpy as np
import pytest

from polyxport import flight, geometry, harness, polykernel, scattering, stats
from polyxport.harness import ConfigError, ExperimentConfig

import csv_oracles
import itinerary_oracles as oracle
from ks_oracles import ks_distance_slow, ks_two_sample_slow
# the scene of the freepath-3d-mixed benchmark workload
from test_golden import _two_boxes_mixed


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
            slow = ks_distance_slow(x, cdf)
            # the grid scan resolves jumps to the 1e-9 probe offset
            assert fast == pytest.approx(slow, abs=1e-7)

    def test_defective_law(self):
        samples = np.array([0.2, 0.4, np.inf, np.inf])
        cdf = lambda t: 0.5 * np.clip(t, 0, 1)
        d = stats.ks_distance(samples, cdf)
        assert d == pytest.approx(max(abs(0.25 - 0.1), abs(0.5 - 0.2),
                                      abs(0.25 - 0.2), abs(0.5 - 1.0 * 0.5)))

    def test_two_sample_matches_slow(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=300)
            b = rng.normal(0.1, 1.0, size=200)
            d_fast, _ = stats.ks_two_sample(a, b)
            assert d_fast == ks_two_sample_slow(a, b)

    @pytest.mark.parametrize("a, b, d", [
        ([0.5], [0.5], 0.0),                          # n = 1, tied
        ([0.5], [0.2], 1.0),                          # n = 1, apart
        ([0.2], [0.1, 0.2, 0.3, 0.4], 0.5),           # n = 1, unequal sizes
        ([1.0] * 4, [1.0] * 7, 0.0),                  # fully tied
        ([2.0] * 3, [1.0] * 5, 1.0),                  # tied, apart
        ([0.1, 0.2, 0.3], [0.7, 0.8, 0.9, 1.0], 1.0),  # disjoint supports
        ([3.0, 1.0, 2.0], [0.5, 1.5, 2.5, 3.5, 4.5], 0.4),  # unequal sizes
    ])
    def test_two_sample_small_cases(self, a, b, d):
        assert ks_two_sample_slow(a, b) == d
        assert stats.ks_two_sample(a, b)[0] == d
        assert stats.ks_two_sample(b, a)[0] == d

    def test_two_sample_unequal_sizes_match_slow(self):
        rng = np.random.default_rng(6)
        for n, m in ((1, 1000), (7, 3), (500, 13), (2000, 1999)):
            a = rng.exponential(size=n)
            b = np.round(rng.exponential(size=m), 2)    # ties within b
            assert stats.ks_two_sample(a, b)[0] == ks_two_sample_slow(a, b)
            assert stats.ks_two_sample(b, a)[0] == ks_two_sample_slow(b, a)

    def test_two_sample_matches_slow_on_ties(self):
        assert ks_two_sample_slow([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
        assert stats.ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])[0] == 0.0
        rng = np.random.default_rng(5)
        for _ in range(20):
            # shared rows, as ks_split's two evolutions share the rows
            # that do not collide, plus values tied within each sample
            a = rng.normal(size=300)
            b = np.concatenate([a[:120], rng.normal(0.1, 1.0, size=80)])
            a[:40] = np.round(a[:40], 1)
            b[:40] = np.round(b[:40], 1)
            rng.shuffle(b)
            d_fast, _ = stats.ks_two_sample(a, b)
            assert d_fast == ks_two_sample_slow(a, b)

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

    def test_poisson_pmf_matches_scipy(self):
        from scipy.stats import poisson
        ks = np.arange(61)
        for lam in [*np.geomspace(0.05, 50.0, 12), 2.0, np.pi * (2.0 / np.pi)]:
            np.testing.assert_allclose(stats.poisson_pmf(ks, lam),
                                       poisson.pmf(ks, lam), rtol=1e-13,
                                       atol=0.0)

    def test_gamma_q_matches_scipy(self):
        # scipy's gammaincc is the oracle of chi2_pvalue's Q(dof/2, stat/2),
        # over the dofs the runners reach (at most 49) and past them, and
        # over the statistics into the far tail; the errors measured are
        # 1.14e-13 (at Q ~ 1e-300) and 2.9e-14 where Q >= 1e-10
        from scipy.special import gammaincc
        a, x = np.meshgrid(np.arange(1, 61) / 2.0, np.concatenate([
            np.geomspace(1e-8, 2000.0, 400), np.arange(0.5, 200.0, 0.25)])
            / 2.0, indexing="ij")
        want = gammaincc(a, x)
        got = np.vectorize(stats.gamma_q)(a, x)
        normal = want >= np.finfo(float).tiny
        rel = np.abs(got - want)[normal] / want[normal]
        assert rel.max() < 2e-13
        assert rel[want[normal] >= 1e-10].max() < 5e-14
        assert np.all(np.abs(got - want)[~normal] < 1e-310)
        # the switch from the series to the continued fraction at x = a + 1
        for a_ in (0.5, 3.0, 24.5):
            for x_ in (a_ + 1.0 - 1e-9, a_ + 1.0):
                assert stats.gamma_q(a_, x_) == pytest.approx(
                    gammaincc(a_, x_), rel=1e-14, abs=0.0)

    def test_chi2_pvalue_edges(self):
        assert stats.chi2_pvalue(3.0, 0) == 1.0
        assert stats.chi2_pvalue(0.0, 4) == 1.0
        assert stats.chi2_pvalue(np.inf, 4) == 0.0
        assert np.isnan(stats.chi2_pvalue(np.nan, 4))
        # dof 2: Q(1, x) = exp(-x)
        assert stats.chi2_pvalue(3.0, 2) == pytest.approx(np.exp(-1.5),
                                                          rel=1e-15)

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


BOX_3D = {"dimension": 3, "anchor": [0.06, 0.06, 0.06],
          "grains": [{"id": 1, "box": [[0.0] * 3, [0.12] * 3],
                      "medium": {"type": "poisson"}}]}


def _edit(node, where, value):
    """Set node[where[0]][where[1]]... to value."""
    for part in where[:-1]:
        node = node[part]
    node[where[-1]] = value


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(CONFIG)
        assert cfg.options["kind"] == "freepath"
        assert cfg.scene.dimension == 2
        assert [m.kind for m in cfg.scene.media] == ["crystal", "poisson"]
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
                                           ("sampling_method", "auto"),
                                           ("kind", "kernel-tables"),
                                           ("lambda", {"type": "cap"}),
                                           ("q", [0.5, 0.5]),
                                           ("cells", {"xi_edges": [0, 1]})])
    def test_keys_and_kinds_without_consumer_rejected(self, key, value):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"][key] = value
        with pytest.raises(ConfigError, match=rf"experiment\.{key}\b"
                           if key != "kind" else value):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("key,value", [
        ("halfspaces", {"normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                        "offsets": [0.3, 0.0, 0.3, 0.0]}),
        ("diameter_bound", 0.5)])
    def test_grain_keys_without_consumer_rejected(self, key, value):
        doc = json.loads(json.dumps(CONFIG))
        doc["scene"]["grains"][0][key] = value
        with pytest.raises(ConfigError, match=rf"scene\.grains\[0\]\.{key}\b"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("start,match", [
        ({"beta": {"mod": "radial"}}, r"experiment\.beta\.mod\b"),
        ({"beta": {"mode": "radial", "alpha": 3}}, r"experiment\.beta\b"),
        ({"beta": {"mode": "tangent"}}, r"experiment\.beta\b"),
        ({"q_mode": "zeros"}, r"experiment\.q_mode\b"),
        ({"q_mode": "fixed"}, r"experiment\.q_mode\b"),
        ({"on_scatterer": True, "start_grain": 9},
         r"experiment\.start_grain\b"),
        ({"on_scatterer": True}, r"experiment\.start_grain\b"),
        ({"start_grain": 1}, r"experiment\.start_grain\b"),
        ({"on_scatterer": True, "start_grain": True},
         r"experiment\.start_grain\b"),
        ({"on_scatterer": True, "start_grain": 1.0},
         r"experiment\.start_grain\b")],
        ids=["beta-key", "beta-alpha", "beta-mode", "q_mode", "q_mode-fixed",
             "start_grain-unknown", "start_grain-missing",
             "start_grain-without-on_scatterer", "start_grain-bool",
             "start_grain-float"])
    def test_bad_start_option_rejected(self, start, match, no_run):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"].update(start)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("anchor,ok", [([0.32, 0.1], False),
                                           ([0.15, 0.15], True),
                                           ([0.3, 0.15], False)],
                             ids=["between-grains", "interior", "on-face"])
    def test_on_scatterer_anchor_checked_at_parse_time(self, anchor, ok,
                                                       no_run):
        doc = json.loads(json.dumps(CONFIG))
        doc["scene"]["anchor"] = anchor
        doc["experiment"].update(on_scatterer=True, start_grain=1)
        if ok:
            ExperimentConfig.from_dict(doc)
            return
        with pytest.raises(ConfigError, match=r"^scene\.anchor\b"):
            ExperimentConfig.from_dict(doc)
        # the generic start has no anchor rule
        del doc["experiment"]["on_scatterer"], doc["experiment"]["start_grain"]
        ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("kind,scene,edit,match", [
        ("transition", BOX_3D, {}, r"scene\.dimension\b"),
        ("poisson-baseline", None, {}, r"scene\.grains\[0\]\.medium\b"),
        ("freepath", None, {"r_schedule": []}, r"experiment\.r_schedule\b"),
        ("transition", None, {"r_schedule": []},
         r"experiment\.r_schedule\b"),
        ("freepath", None, {"resample_offsets": True},
         r"scene\.grains\[0\]\.medium\b"),
        ("flight", None, {}, r"scene\.grains\[1\]\.medium\b"),
        ("poisson-baseline", BOX_3D, {"gap_scene": CONFIG["scene"]},
         r"experiment\.gap_scene\.grains\[1\]\.medium\b")],
        ids=["transition-3d", "poisson-baseline-crystal", "freepath-no-radii",
             "transition-no-radii", "resample_offsets-anchored",
             "flight-mixed-media", "poisson-baseline-mixed-gap_scene"])
    def test_scene_rule_of_kind(self, kind, scene, edit, match, no_run):
        # a d=3 scene for transition; a crystal grain for poisson-baseline;
        # no radii for a runner that traces the microscopic dynamics; per
        # sample offsets of an anchored crystal; and a crystal and a Poisson
        # grain in a scene that the flight sampler draws on
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"].update(edit, kind=kind)
        if scene is not None:
            doc["scene"] = scene
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("kind", ["freepath", "transition"])
    def test_periodic_scene_rejected(self, kind):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["kind"] = kind
        doc["scene"]["periodic_box"] = {"lo": [0.0, 0.0], "hi": [0.7, 0.35]}
        with pytest.raises(ConfigError, match=r"scene\.periodic_box"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("kind,box", [
        ("stationarity", None),
        ("stationarity", {"lo": [0.0, 0.0], "hi": [0.7, 0.35]}),
        ("flight", {"lo": [0.0, 0.0], "hi": [0.7, 0.35]}),
        ("poisson-baseline", {"lo": [0.0, 0.0], "hi": [0.7, 0.35]})])
    def test_flight_scene_must_be_a_tiled_box(self, kind, box):
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["kind"] = kind
        if box is not None:
            doc["scene"]["periodic_box"] = box
        with pytest.raises(ConfigError, match=r"scene\.periodic_box"):
            ExperimentConfig.from_dict(doc)

    def test_thresholds_default_and_override(self):
        cfg = ExperimentConfig.from_dict(CONFIG)
        assert cfg.thresholds == harness.THRESHOLDS["freepath"]
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["thresholds"] = {"ks_final": 0.5}
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.thresholds == {"ks_final": 0.5}
        assert "thresholds" not in cfg.options

    @pytest.mark.parametrize("kind,key", [
        ("freepath", "ks_finall"), ("freepath", "chi2_alpha"),
        ("flight", "ks_alpha")], ids=["ks_finall", "chi2_alpha",
                                      "flight-ks_alpha"])
    def test_unknown_threshold_rejected(self, kind, key):
        # a typo, a threshold of another runner, and one of a runner that
        # has none (a flight config runs the stationarity runner only with
        # report "stationarity")
        doc = json.loads(json.dumps(CONFIG))
        if kind == "flight":
            doc["scene"] = BOX_3D
        doc["experiment"].update(kind=kind, thresholds={key: 0.5})
        with pytest.raises(ConfigError,
                           match=rf"experiment\.thresholds\.{key}\b"):
            ExperimentConfig.from_dict(doc)

    def test_thresholds_are_the_runners_row(self):
        doc = {"scene": BOX_3D, "experiment": {"kind": "flight"}}
        assert ExperimentConfig.from_dict(doc).thresholds == {}
        doc = {"scene": {**BOX_3D, "periodic_box": {"lo": [0.0] * 3,
                                                    "hi": [0.12] * 3}},
               "experiment": {"kind": "flight", "report": "stationarity",
                              "thresholds": {"ks_alpha": 0.5}}}
        assert ExperimentConfig.from_dict(doc).thresholds == {
            "ks_alpha": 0.5}

    @pytest.mark.parametrize("kind", ["freepath", "transition",
                                      "poisson-baseline", "flight"])
    def test_cross_kind_thresholds_are_the_full_row_of_the_runner(self,
                                                                   kind):
        # a freepath config with an override, parsed for another runner,
        # holds that runner's whole row; its own runner keeps the override
        doc = json.loads(json.dumps(CONFIG))
        doc["scene"]["grains"][0]["medium"] = {"type": "poisson"}
        doc["experiment"]["thresholds"] = {"ks_final": 0.5}
        cfg = ExperimentConfig.from_dict(doc, kind=kind)
        assert cfg.runner == kind
        assert cfg.thresholds == ({"ks_final": 0.5} if kind == "freepath"
                                  else harness.THRESHOLDS.get(kind, {}))

    def test_unknown_subcommand_kind_rejected(self, no_run):
        with pytest.raises(ConfigError, match="'nope'"):
            ExperimentConfig.from_dict(CONFIG, kind="nope")

    def test_stationarity_report_keeps_its_overrides_under_kind(self):
        doc = {"scene": {**BOX_3D, "periodic_box": {"lo": [0.0] * 3,
                                                    "hi": [0.12] * 3}},
               "experiment": {"kind": "flight", "report": "stationarity",
                              "thresholds": {"ks_alpha": 0.5}}}
        for kind in ("flight", "stationarity"):
            cfg = ExperimentConfig.from_dict(doc, kind=kind)
            assert cfg.runner == "stationarity"
            assert cfg.thresholds == {"ks_alpha": 0.5}

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

    @pytest.mark.parametrize("key,value", [
        ("n_seeds", 0), ("particles", 0), ("particles", "many"),
        ("r_schedule", [1e-2, 0.0]), ("r_schedule", [-1e-3]),
        ("r_schedule", [float("inf")]), ("r_schedule", [float("nan")]),
        ("r_schedule", ["1e-3"]), ("time", -1.0), ("time", float("inf")),
        ("time", float("nan")), ("report", "bogus"), ("samples", "abc"),
        ("seed", None), ("threads", "abc"), ("threads", 0), ("threads", -1),
        ("split_times", [0.3]), ("split_times", "0.2,0.4"),
        ("split_times", [-1.0, 0.5]), ("split_times", [float("nan"), 0.5]),
        ("split_times", [0.2, float("inf")]), ("r_schedule", 0.01),
        ("thresholds", {"ks_final": "x"}), ("r_schedule", [True]),
        ("seed", 2.7), ("seed", "5"), ("seed", True), ("seed", -1),
        ("samples", "2000"), ("samples", 1000.9), ("threads", True),
        ("time", "1.0"), ("time", 10 ** 400), ("particles", 2.5),
        ("thresholds", {"ks_final": "0.5"}),
        ("thresholds", {"ks_final": float("nan")}),
        ("beta", {"mode": "radial", "alpha": "0.5"}),
        ("beta", {"mode": "radial", "alpha": True}),
        ("beta", {"alpha": float("nan")})])
    def test_bad_number_named_at_parse_time(self, key, value, no_run):
        # n_seeds 0 gave a passing stationarity verdict over no sub-run;
        # r_schedule [true] ran at r = 1, where every ray escaped and passed;
        # a negative seed failed in the run; the cases after it parsed,
        # read as numbers (a bool as 0 or 1, a float seed or count truncated)
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"][key] = value
        with pytest.raises(ConfigError, match=rf"^experiment\.{key}\b"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("grain,key", [
        ({"vertices": [[0.35, 0.0], [0.5, 0.15], [0.65, 0.3]]}, "vertices"),
        ({"vertices": [[0.35, 0.0], [0.65, 0.0], [0.65, 0.0], [0.35, 0.0]]},
         "vertices"),
        ({"box": [[0.35, 0.0], [0.35, 0.3]]}, "box"),
        ({"box": [[0.65, 0.0], [0.35, 0.3]]}, "box"),
        ({"box": [[0.35, 0.0, 0.0], [0.65, 0.3, 0.3]]}, "box"),
        ({"vertices": [[0.35, 0.0, 0.0], [0.65, 0.0, 0.0], [0.35, 0.3, 0.0],
                       [0.35, 0.0, 0.3]]}, "vertices")],
        ids=["collinear", "duplicated", "flat-box", "inverted-box", "3d-box",
             "3d-vertices"])
    def test_degenerate_grain_named_at_parse_time(self, grain, key):
        doc = json.loads(json.dumps(CONFIG))
        g = doc["scene"]["grains"][1]
        del g["box"]
        g.update(grain)
        with pytest.raises(ConfigError, match=rf"^scene\.grains\[1\]\.{key}: "):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("where,value,key", [
        (("anchor",), [0.15, 0.15, 0.15], "anchor"),
        (("anchor",), [0.15], "anchor"),
        (("anchor",), [0.15, "x"], "anchor"),
        (("dimension",), "2", "dimension"),
        (("dimension",), 4, "dimension"),
        (("periodic_box",), {"lo": [0.0, 0.0]}, "periodic_box.hi"),
        (("grains", 0, "medium", "matrix"), [["1", "0"]],
         "grains[0].medium.matrix"),
        (("grains", 0, "medium", "matrix"),
         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         "grains[0].medium.matrix"),
        (("grains", 0, "medium", "matrix"), [[2.0, 0.0], [0.0, 2.0]],
         "grains[0].medium.matrix"),
        (("grains", 0, "medium", "offset"), [0.3],
         "grains[0].medium.offset"),
        (("grains", 0, "medium", "offset"), [0.3, 0.5, 0.7],
         "grains[0].medium.offset"),
        (("grains", 0, "medium", "mode"), "bogus", "grains[0].medium.mode"),
        (("grains", 1, "id"), "two", "grains[1].id"),
        (("grains", 1, "id"), 1.5, "grains[1].id"),
        (("grains", 1, "id"), [2], "grains[1].id"),
        (("grains", 1, "id"), True, "grains[1].id"),
        (("grains", 1, "id"), None, "grains[1].id"),
        (("grains",), "abc", "grains"),
        (("grains",), [], "grains"),
        (("grains", 1), 2, "grains[1]"),
        (("periodic_box",), {"lo": [0.0, 0.0], "hi": "x"},
         "periodic_box.hi"),
        (("anchor",), [True, 0.15], "anchor"),
        (("grains", 0, "medium", "offset"), ["0.1", 0.2],
         "grains[0].medium.offset"),
        (("dimension",), 2.0, "dimension"),
        (("grains", 0, "medium", "matrix"), [[True, 0], [0, True]],
         "grains[0].medium.matrix"),
        (("grains", 0, "medium", "matrix"), [["1", False], ["0", "1"]],
         "grains[0].medium.matrix"),
        (("grains", 1, "medium", "matrix"), [["1", "0"], ["0", "1"]],
         "grains[1].medium.matrix"),
        (("grains", 1, "medium", "offset"), [0.1, 0.2],
         "grains[1].medium.offset"),
        (("grains", 1, "medium", "mode"), "random-offset",
         "grains[1].medium.mode"),
        (("grains", 1, "medium", "mode"), "anchored",
         "grains[1].medium.mode")],
        ids=["anchor-3d", "anchor-1d", "anchor-not-a-number",
             "dimension-string", "dimension-4", "periodic_box-no-hi",
             "matrix-not-square", "matrix-3d", "matrix-det-4", "offset-1d",
             "offset-3d", "mode-unknown", "id-string", "id-float", "id-list",
             "id-bool", "id-null", "grains-string", "grains-empty",
             "grain-not-an-object",
             "periodic_box-hi-not-a-point", "anchor-bool", "offset-string",
             "dimension-float", "matrix-bools", "matrix-one-bool",
             "poisson-matrix", "poisson-offset", "poisson-mode",
             "poisson-default-mode"])
    def test_scene_shape_named_at_parse_time(self, where, value, key,
                                             no_run):
        # each of these parsed (and broadcast, truncated, or failed in a
        # runner; a bool matrix as its 0/1 lattice, a Poisson medium's
        # crystal keys ignored), named another key, or ended in a bare
        # SceneError, LinAlgError, KeyError, TypeError or ValueError
        doc = json.loads(json.dumps(CONFIG))
        _edit(doc["scene"], where, value)
        with pytest.raises(ConfigError, match=rf"^scene\.{re.escape(key)}: "):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("edits,key", [
        ([(("grains", 1, "box"), [[0.2, 0.0], [0.5, 0.3]])], "grains[1]"),
        ([(("grains", 1, "id"), 1)], "grains[1].id"),
        ([(("grains", 0, "box"), [[0.0, 0.0], [0.3, 0.45]])], "grains[0]"),
        ([(("assume_incommensurable",), False),
          (("grains", 1, "medium"), {"type": "crystal", "matrix": [
              ["1", "0"], ["0", "1"]]})], "assume_incommensurable"),
        ([(("assume_incommensurable",), False),
          (("grains", 1, "medium"), {"type": "crystal", "matrix": [
              [0.6, -0.8], [0.8, 0.6]]})], "assume_incommensurable")],
        ids=["overlap", "duplicate-id", "past-crystal-range",
             "rational-lattices", "float-lattices-unflagged"])
    @pytest.mark.parametrize("where", ["scene", "experiment.gap_scene"])
    def test_scene_rule_named_at_parse_time(self, edits, key, where,
                                            no_run):
        # geometry.validate_scene's SceneErrors escaped from_dict bare
        doc = json.loads(json.dumps(CONFIG))
        scene = json.loads(json.dumps(CONFIG["scene"]))
        for path, value in edits:
            _edit(scene, path, value)
        if where == "scene":
            doc["scene"] = scene
        else:
            doc["scene"] = BOX_3D
            doc["experiment"] = {"kind": "poisson-baseline",
                                 "gap_scene": scene}
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(where + '.' + key)}: "):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("where", [
        ("scene", "assume_incommensurable"),
        ("experiment", "gap_scene", "assume_incommensurable"),
        ("experiment", "resample_offsets"),
        ("experiment", "on_scatterer"),
        ("output", "timings")],
        ids=["assume_incommensurable", "gap_scene", "resample_offsets",
             "on_scatterer", "timings"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_flag_must_be_a_json_bool(self, where, value, no_run):
        # a flag was read by truthiness ("false" meant true) or, under
        # scene, stored as given
        doc = json.loads(json.dumps(CONFIG))
        if "gap_scene" in where:
            doc["scene"] = BOX_3D
            doc["experiment"] = {"kind": "poisson-baseline",
                                 "gap_scene": json.loads(json.dumps(BOX_3D))}
        _edit(doc, where, value)
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape('.'.join(where))}: "):
            ExperimentConfig.from_dict(doc)
        _edit(doc, where, False)
        ExperimentConfig.from_dict(doc)

    def test_bad_thread_count_from_the_environment(self, monkeypatch,
                                                   no_run):
        # POLYXPORT_THREADS stands in for an absent experiment.threads
        monkeypatch.setenv("POLYXPORT_THREADS", "abc")
        with pytest.raises(ConfigError, match=r"^experiment\.threads\b"):
            ExperimentConfig.from_dict(CONFIG)
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"]["threads"] = 2
        assert ExperimentConfig.from_dict(doc).options["threads"] == 2
        monkeypatch.setenv("POLYXPORT_THREADS", "3")
        assert ExperimentConfig.from_dict(CONFIG).options["threads"] == 3

    def test_absent_keys_hold_their_defaults(self, monkeypatch):
        monkeypatch.delenv("POLYXPORT_THREADS", raising=False)
        opt = ExperimentConfig.from_dict(CONFIG).options
        assert {key: opt[key] for key in (
            "particles", "n_seeds", "threads", "time", "split_times",
            "report", "q_mode", "on_scatterer", "start_grain",
            "resample_offsets", "gap_scene")} == {
            "particles": 1000, "n_seeds": 10, "threads": 1, "time": None,
            "split_times": None, "report": "ncollision", "q_mode": "random",
            "on_scatterer": False, "start_grain": None,
            "resample_offsets": False, "gap_scene": None}
        doc = json.loads(json.dumps(CONFIG))
        doc["experiment"].update(time=1, split_times=[0, 1])
        opt = ExperimentConfig.from_dict(doc).options
        assert opt["time"] == 1.0 and type(opt["time"]) is float
        assert opt["split_times"] == [0.0, 1.0]


class TestLimitCurves:
    def test_limit_cdf_monotone_and_bounded(self, two_squares):
        grid, vals = harness.limit_freepath_cdf(two_squares,
                                                two_squares.anchor, m_dirs=256)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0
        assert vals[-1] <= 1.0

    def test_on_scatterer_limit_needs_in_grain_base_point(self, two_squares):
        from polyxport.microsim import BetaSpec
        with pytest.raises(ConfigError, match="in-grain base point"):
            harness.limit_freepath_cdf(two_squares, [0.32, 0.1],
                                       on_scatterer=True,
                                       beta=BetaSpec("radial", 0.6), m_dirs=16)

    def test_limit_cdf_poisson_single_grain_quadrature(self):
        # against per-direction closed form on a disordered square
        from polyxport import presets
        scene = presets.single_square_2d(side=0.34, medium="poisson")
        grid, vals = harness.limit_freepath_cdf(scene, scene.anchor,
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


def _two_squares_annealed():
    """The scene of the freepath-2d-annealed benchmark workload."""
    from polyxport import presets
    return presets.two_squares_2d(mode="random-offset")


class TestSurvivalRowSum:
    """The ordered block sums of limit_freepath_cdf and mean_survival_curve
    give the bits of the dense row loop of tests/itinerary_oracles.py."""

    @pytest.mark.parametrize("make", [_two_squares_annealed,
                                      _two_boxes_mixed],
                             ids=["2d-annealed", "3d-mixed"])
    def test_limit_cdf_of_the_workload_scenes(self, make):
        scene = make()
        grid, got = harness.limit_freepath_cdf(scene, scene.anchor)
        want_grid, want = oracle.limit_freepath_cdf(scene, scene.anchor)
        assert np.array_equal(grid, want_grid)
        assert np.array_equal(got, want)

    def test_on_scatterer_limit_cdf(self, two_squares):
        from polyxport.microsim import BetaSpec
        beta = BetaSpec("radial", 0.6)
        _, got = harness.limit_freepath_cdf(two_squares, two_squares.anchor,
                                            on_scatterer=True, beta=beta)
        _, want = oracle.limit_freepath_cdf(two_squares, two_squares.anchor,
                                            on_scatterer=True, beta=beta)
        assert np.array_equal(got, want)

    def test_blocks_with_different_tail_columns(self, two_squares):
        # 1000 directions: seven full blocks and one of 104 rows
        m = 1000
        _, got = harness.limit_freepath_cdf(two_squares, two_squares.anchor,
                                            m_dirs=m)
        _, want = oracle.limit_freepath_cdf(two_squares, two_squares.anchor,
                                            m_dirs=m)
        assert np.array_equal(got, want)
        dirs, _ = harness.direction_grid(two_squares, m)
        xs = np.broadcast_to(two_squares.anchor, dirs.shape)
        grid = np.linspace(0.0, 2.0, 2049)
        blocks = list(polykernel.family_blocks(two_squares, xs, dirs, grid,
                                               "survival_psi"))
        # every block is W columns wide, W from the call's last exit, while
        # the blocks' own last exits fall in different columns
        _, exit_, _ = geometry.segment_table(two_squares, xs, dirs, grid[-1])
        exit_ = np.where(np.isfinite(exit_), exit_, 0.0)
        tails = [np.searchsorted(grid, exit_[rows].max())
                 for rows, _ in blocks]
        assert len(tails) == 8 and len(set(tails)) > 1
        assert {vals.shape[1] for _, vals in blocks} == {max(tails) + 1}

    def test_mean_survival_on_a_tiled_box(self, tiled_crystal):
        # every block is len(grid) columns wide
        rng = np.random.default_rng(6)
        xs = flight.sample_positions(tiled_crystal, 300, rng)
        vs = scattering.sample_direction(rng, 2, 300)
        grid = np.linspace(0.0, 3.0, 601)
        got = harness.mean_survival_curve(tiled_crystal, xs, vs, grid)
        assert np.array_equal(
            got, oracle.mean_survival_curve(tiled_crystal, xs, vs, grid))

    def test_mean_survival_on_a_finite_scene(self):
        from polyxport import presets
        scene = presets.poisson_gap_squares_2d()
        rng = np.random.default_rng(7)
        xs = flight.sample_positions(scene, 300, rng)
        vs = scattering.sample_direction(rng, 2, 300)
        grid = np.linspace(0.0, 2.5, 513)
        got = harness.mean_survival_curve(scene, xs, vs, grid)
        assert np.array_equal(
            got, oracle.mean_survival_curve(scene, xs, vs, grid))

    @pytest.mark.parametrize("width", [None, 37])
    def test_axis_0_reduce_adds_rows_in_order(self, width):
        # _survival_row_sum relies on this order for the golden bits
        rng = np.random.default_rng(8)
        block = rng.lognormal(0.0, 3.0, (128, 101)) * rng.choice([-1, 1],
                                                                 (128, 101))
        part = block if width is None else block[:, :width]
        assert part.flags.c_contiguous == (width is None)
        acc = np.zeros(part.shape[1])
        for row in part:
            acc += row
        assert np.array_equal(np.add.reduce(part, axis=0), acc)


FLOATS = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 0.1,
          np.float64(1 / 3), np.float32(0.1), np.float64(-2.5e-300)]


class TestEmit:
    @pytest.mark.parametrize("header, rows", [
        # all floats: the streamed lines
        (["a", "b"], [FLOATS[i:i + 2] for i in range(0, len(FLOATS), 2)]),
        (["x"], [[c] for c in FLOATS]),
        (["a", "b"], []),
        (["a", "b"], [[1.0], [], [2.0, np.float32(3.5), 4.0]]),
        # more rows than one write takes
        (["xi", "cdf"], [[k / 7.0, np.float64(k) / 3.0] for k in range(1300)]),
        # the csv.writer rows
        (["n", "i", "flag", "x"],
         [[3, np.int64(-7), True, 0.5], [0, np.int64(2 ** 62), False, -0.0]]),
        (["x"], [[1], [2.0]]),
        (["name", "x"], [['a, "quoted" cell', 1.5], ["", 2.5], ["plain", 1]]),
        (["x"], [[np.str_("s")], [None]]),
    ])
    def test_write_csv_bytes_match_csv_writer(self, tmp_path, header, rows):
        harness.write_csv(tmp_path / "fast.csv", header, rows)
        csv_oracles.write_csv(tmp_path / "slow.csv", header, rows)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "slow.csv").read_bytes()
        assert fast.count(b"\r\n") == len(rows) + 1

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
        rep1 = harness.run_freepath(cfg)
        rep2 = harness.run_freepath(cfg)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        harness.emit(rep1, str(d1), cfg)
        harness.emit(rep2, str(d2), cfg)
        for name in os.listdir(d1):
            with open(d1 / name, "rb") as fh:
                b1 = fh.read()
            with open(d2 / name, "rb") as fh:
                b2 = fh.read()
            assert b1 == b2, name
