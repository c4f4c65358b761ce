import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from polyxport import flight, harness, microsim
from polyxport.cli import main


@pytest.fixture()
def scene_config(tmp_path):
    doc = {
        "scene": {
            "dimension": 2,
            "anchor": [0.15, 0.15],
            "grains": [
                {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
                 "medium": {"type": "poisson"}},
                {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
                 "medium": {"type": "poisson"}},
            ],
        },
        "experiment": {"kind": "freepath", "seed": 5, "samples": 1000,
                       "r_schedule": [1e-2], "q_mode": "zero",
                       "thresholds": {"ks_final": 1.0}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_kernels_eval_csv(capsys):
    rc = main(["kernels", "eval", "--medium", "crystal", "--dimension", "2",
               "--xi", "0.1,0.3", "--w", "0.5", "--z", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "medium,d,xi,w1,z1,value"
    row = out[1].split(",")
    assert row[0] == "crystal"
    assert float(row[-1]) == pytest.approx(6 / np.pi ** 2)


def test_kernels_eval_families(capsys):
    rc = main(["kernels", "eval", "--medium", "poisson", "--dimension", "3",
               "--xi", "0.5", "--family", "phi"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    val = float(out[1].split(",")[-1])
    assert val == pytest.approx(np.pi * np.exp(-np.pi * 0.5))


def test_psi_eval(scene_config, capsys):
    rc = main(["psi", "eval", "--config", str(scene_config),
               "--x", "0.15,0.15", "--v", "1,0", "--xi", "0.1",
               "--family", "psi"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    val = float(out[1].split(",")[-1])
    assert val == pytest.approx(2 * np.exp(-2 * 0.1))


@pytest.mark.parametrize("family", ["psi", "psi_marg_w", "psi0_marg",
                                    "psi0_full"])
def test_psi_eval_xi_list_matches_one_call_per_value(scene_config, capsys,
                                                     family):
    # unsorted, with a repeat, a point in the gap between the grains and
    # one past both
    xis = ["0.4", "0.1", "0.17", "0.1", "0.25", "0.0", "0.7"]
    common = ["psi", "eval", "--config", str(scene_config), "--x",
              "0.15,0.15", "--v", "1,0", "--w", "0.3", "--z", "-0.6",
              "--family", family]
    assert main(common + ["--xi", ",".join(xis)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    single = []
    for xi in xis:
        assert main(common + ["--xi", xi]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == lines[0]
        single += out[1:]
    assert lines[1:] == single
    assert [line.split(",")[1] for line in lines[1:]] \
        == [repr(float(xi)) for xi in xis]


def test_freepath_subcommand_writes_files(scene_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["freepath", "--config", str(scene_config),
               "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "freepath_summary.json").exists()
    assert (out_dir / "freepath_ks.csv").exists()
    summary = json.loads((out_dir / "freepath_summary.json").read_text())
    assert summary["seed"] == 5


def test_microsim_subcommand(scene_config, tmp_path, capsys):
    out_dir = tmp_path / "ms"
    rc = main(["microsim", "--config", str(scene_config),
               "--samples", "1000", "--r", "0.01", "--out", str(out_dir)])
    assert rc == 0
    files = os.listdir(out_dir)
    assert any(f.startswith("microsim_r") for f in files)
    path = out_dir / files[0]
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "sample_id,r,tau1,hit_grain,uK_1,uK_2,escaped"
    assert len(lines) == 1001


def test_seed_override_changes_output(scene_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["freepath", "--config", str(scene_config), "--out", str(a)])
    main(["freepath", "--config", str(scene_config), "--out", str(b),
          "--seed", "99"])
    ja = json.loads((a / "freepath_summary.json").read_text())
    jb = json.loads((b / "freepath_summary.json").read_text())
    assert ja["seed"] == 5 and jb["seed"] == 99
    assert ja["config_hash"] != jb["config_hash"]


def test_reproducible_byte_identical(scene_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["freepath", "--config", str(scene_config), "--out", str(a)])
    main(["freepath", "--config", str(scene_config), "--out", str(b)])
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_psi_closes_config_file(scene_config, monkeypatch, capsys):
    opened = []
    real_open = open

    def tracking_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr("builtins.open", tracking_open)
    assert main(["psi", "eval", "--config", str(scene_config),
                 "--x", "0.15,0.15", "--v", "1,0", "--xi", "0.1"]) == 0
    assert opened and all(fh.closed for fh in opened)


def test_microsim_cli_matches_library(tmp_path):
    doc = {
        "scene": {
            "dimension": 2, "anchor": [0.15, 0.15],
            "assume_incommensurable": True,
            "grains": [
                {"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
                 "medium": {"type": "crystal",
                            "matrix": [["1", "0"], ["0", "1"]],
                            "offset": [0.318, 0.577],
                            "mode": "random-offset"}},
                {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
                 "medium": {"type": "crystal",
                            "matrix": [[0.5403023058681398, 0.8414709848078965],
                                       [-0.8414709848078965,
                                        0.5403023058681398]],
                            "offset": [0.414, 0.162],
                            "mode": "random-offset"}},
            ],
        },
        "experiment": {"kind": "freepath", "seed": 11, "samples": 1500,
                       "r_schedule": [3e-3], "resample_offsets": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["microsim", "--config", str(path),
                 "--out", str(tmp_path / "ms")]) == 0
    lines = (tmp_path / "ms" / "microsim_r0.003.csv").read_text().split("\n")
    cli_tau1 = np.array([float(line.split(",")[2]) for line in lines[1:-1]])
    cfg = harness.ExperimentConfig.from_dict(doc)
    lib = microsim.sample_tau1_distribution(
        cfg.scene, harness.micro_config(cfg, 3e-3), cfg.options["samples"])
    assert np.array_equal(cli_tau1, lib.tau1)
    assert np.isfinite(lib.tau1).sum() > 100


def test_periodic_freepath_fails_before_any_quadrature(scene_config,
                                                       monkeypatch):
    doc = json.loads(scene_config.read_text())
    doc["scene"]["periodic_box"] = {"lo": [0.0, 0.0], "hi": [0.7, 0.35]}
    scene_config.write_text(json.dumps(doc))

    def no_quadrature(*args, **kwargs):
        raise AssertionError("limit quadrature ran before the config check")
    monkeypatch.setattr(harness, "limit_freepath_cdf", no_quadrature)
    with pytest.raises(harness.ConfigError, match=r"scene\.periodic_box"):
        main(["freepath", "--config", str(scene_config)])
    proc = _cli_in_subprocess("freepath", "--config", str(scene_config))
    assert proc.returncode == 1
    assert "ConfigError: scene.periodic_box" in proc.stderr


@pytest.mark.parametrize("anchor,rc", [([0.32, 0.1], 1), ([0.15, 0.15], 0)],
                         ids=["between-grains", "interior"])
def test_on_scatterer_anchor_checked_at_parse_time(scene_config, tmp_path,
                                                    anchor, rc):
    doc = json.loads(scene_config.read_text())
    doc["scene"]["anchor"] = anchor
    doc["experiment"].update(on_scatterer=True, start_grain=1)
    scene_config.write_text(json.dumps(doc))
    proc = _cli_in_subprocess("freepath", "--config", str(scene_config),
                              "--out", str(tmp_path / "out"))
    assert proc.returncode == rc
    assert ("ConfigError: scene.anchor" in proc.stderr) == (rc == 1)


def test_stationarity_on_finite_scene_fails_at_parse_time(scene_config):
    doc = json.loads(scene_config.read_text())
    doc["experiment"] = {"kind": "stationarity", "particles": 1000}
    scene_config.write_text(json.dumps(doc))
    proc = _cli_in_subprocess("stationarity", "--config", str(scene_config))
    assert proc.returncode == 1
    assert "ConfigError: scene.periodic_box" in proc.stderr


def test_flight_stationarity_report_on_finite_scene_fails_at_parse_time(
        scene_config):
    doc = json.loads(scene_config.read_text())
    doc["experiment"] = {"kind": "flight", "particles": 1000}
    scene_config.write_text(json.dumps(doc))
    proc = _cli_in_subprocess("flight", "--config", str(scene_config),
                              "--report", "stationarity")
    assert proc.returncode == 1
    assert "ConfigError: scene.periodic_box" in proc.stderr


_TILED_BOX = {"dimension": 2, "anchor": [0.175, 0.175],
              "periodic_box": {"lo": [0.0, 0.0], "hi": [0.35, 0.35]},
              "grains": [{"id": 1, "box": [[0.0, 0.0], [0.35, 0.35]],
                          "medium": {"type": "poisson"}}]}


_BOX_3D = {"dimension": 3, "anchor": [0.06, 0.06, 0.06],
           "grains": [{"id": 1, "box": [[0.0] * 3, [0.12] * 3],
                       "medium": {"type": "poisson"}}]}

_CRYSTAL_SQUARE = {"dimension": 2, "anchor": [0.15, 0.15],
                   "grains": [{"id": 1, "box": [[0.0, 0.0], [0.3, 0.3]],
                               "medium": {"type": "crystal",
                                          "matrix": [["1", "0"], ["0", "1"]],
                                          "offset": [0.318, 0.577]}}]}


_MIXED_SQUARES = {"dimension": 2, "anchor": [0.15, 0.15],
                  "grains": [_CRYSTAL_SQUARE["grains"][0],
                             {"id": 2, "box": [[0.35, 0.0], [0.65, 0.3]],
                              "medium": {"type": "poisson"}}]}

_RADII = {"r_schedule": [1e-2]}


# ids: subcommand, config kind, scene (True: the tiled box, False: the
# fixture's finite scene); exp: the config's other experiment keys
@pytest.mark.parametrize("command, kind, scene, key, exp", [
    ("stationarity", "flight", None, "scene.periodic_box", _RADII),
    ("stationarity", "poisson-baseline", None, "scene.periodic_box", _RADII),
    ("freepath", "flight", _TILED_BOX, "scene.periodic_box", _RADII),
    ("transition", "stationarity", _TILED_BOX, "scene.periodic_box", _RADII),
    ("microsim", "flight", _TILED_BOX, "scene.periodic_box", _RADII),
    ("transition", "freepath", _BOX_3D, "scene.dimension", _RADII),
    ("poisson", "freepath", _CRYSTAL_SQUARE, "scene.grains[0].medium",
     _RADII),
    ("freepath", "flight", None, "experiment.r_schedule", {}),
    ("transition", "poisson-baseline", None, "experiment.r_schedule", {}),
    ("microsim", "flight", _CRYSTAL_SQUARE, "scene.grains[0].medium",
     {**_RADII, "resample_offsets": True}),
    ("flight", "freepath", _MIXED_SQUARES, "scene.grains[1].medium", _RADII),
    ("poisson", "flight", None, "experiment.gap_scene.grains[1].medium",
     {"gap_scene": _MIXED_SQUARES}),
], ids=["stationarity-flight-False", "stationarity-poisson-baseline-False",
        "freepath-flight-True", "transition-stationarity-True",
        "microsim-flight-True", "transition-freepath-3d",
        "poisson-freepath-crystal", "freepath-flight-no-radii",
        "transition-poisson-baseline-no-radii",
        "microsim-flight-resample_offsets", "flight-freepath-mixed",
        "poisson-flight-mixed-gap_scene"])
def test_subcommand_scene_rule_applies_at_parse_time(
        scene_config, no_run, command, kind, scene, key, exp):
    # The config's own kind allows its scene; the subcommand's runner does
    # not, and the rule of the runner that runs applies before it starts.
    doc = json.loads(scene_config.read_text())
    if scene is not None:
        doc["scene"] = scene
    doc["experiment"] = {"kind": kind, "samples": 1000, "particles": 1000,
                         **exp}
    scene_config.write_text(json.dumps(doc))
    with pytest.raises(harness.ConfigError, match=re.escape(key)):
        main([command, "--config", str(scene_config)])
    proc = _cli_in_subprocess(command, "--config", str(scene_config))
    assert proc.returncode == 1
    assert f"ConfigError: {key}" in proc.stderr


@pytest.mark.parametrize("command,key,value", [
    ("stationarity", "n_seeds", 0), ("flight", "time", -1.0),
    ("flight", "report", "bogus"), ("poisson", "samples", "abc")])
def test_bad_number_fails_at_parse_time(scene_config, no_run, command, key,
                                        value):
    doc = json.loads(scene_config.read_text())
    doc["scene"] = _TILED_BOX
    doc["experiment"] = {"kind": "flight", "samples": 1000,
                         "particles": 1000, key: value}
    scene_config.write_text(json.dumps(doc))
    with pytest.raises(harness.ConfigError, match=rf"^experiment\.{key}\b"):
        main([command, "--config", str(scene_config)])
    proc = _cli_in_subprocess(command, "--config", str(scene_config))
    assert proc.returncode == 1
    assert f"ConfigError: experiment.{key}: " in proc.stderr
    assert proc.stdout == ""


def test_microsim_without_radii_fails(scene_config, tmp_path, no_run):
    doc = json.loads(scene_config.read_text())
    del doc["experiment"]["r_schedule"]
    scene_config.write_text(json.dumps(doc))
    out_dir = tmp_path / "ms"
    args = ["microsim", "--config", str(scene_config), "--out", str(out_dir)]
    with pytest.raises(harness.ConfigError,
                       match=r"experiment\.r_schedule\b"):
        main(args)
    proc = _cli_in_subprocess(*args)
    assert proc.returncode == 1
    assert "ConfigError: experiment.r_schedule" in proc.stderr
    assert not out_dir.exists()


def test_gap_scene_fails_before_any_sampling(tmp_path, monkeypatch):
    box = [[0.0, 0.0], [0.35, 0.35]]
    doc = {
        "scene": {"dimension": 2, "anchor": [0.175, 0.175],
                  "grains": [{"id": 1, "box": box,
                              "medium": {"type": "poisson"}}],
                  "periodic_box": {"lo": box[0], "hi": box[1]}},
        "experiment": {
            "kind": "poisson-baseline", "samples": 1000,
            "gap_scene": {"dimension": 2, "grains": [
                {"id": 1, "box": [[0.0, 0.0], [0.4, 0.4]], "shape": "round",
                 "medium": {"type": "poisson"}}]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling ran before the gap scene was parsed")
    monkeypatch.setattr(flight, "sample_initial", no_sampling)
    monkeypatch.setattr(flight, "sample_positions", no_sampling)
    with pytest.raises(harness.ConfigError,
                       match=r"experiment\.gap_scene\.grains\[0\]\.shape"):
        main(["poisson", "--config", str(path)])


def test_psi_eval_on_partial_periodic_scene_fails(scene_config):
    doc = json.loads(scene_config.read_text())
    doc["scene"]["periodic_box"] = {"lo": [0.0, 0.0], "hi": [0.7, 0.35]}
    scene_config.write_text(json.dumps(doc))
    proc = _cli_in_subprocess("psi", "eval", "--config", str(scene_config),
                              "--x", "0.15,0.15", "--v", "1,0", "--xi", "0.1")
    assert proc.returncode == 1
    assert "ConfigError: scene.periodic_box" in proc.stderr


def test_psi_eval_inf_on_tiled_box_names_xi(scene_config, tmp_path, capsys):
    # inf is a path length on a finite scene, where psi vanishes; the cells
    # of a tiled box never end, so there it is an input error
    finite = ["psi", "eval", "--config", str(scene_config), "--x",
              "0.15,0.15", "--v", "1,0", "--xi", "0.5,inf"]
    assert main(finite) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",0.0")
    box = [[0.0, 0.0], [0.35, 0.35]]
    path = tmp_path / "tiled.json"
    path.write_text(json.dumps({"scene": {
        "dimension": 2, "anchor": [0.175, 0.175],
        "periodic_box": {"lo": box[0], "hi": box[1]},
        "grains": [{"id": 1, "box": box, "medium": {"type": "poisson"}}]}}))
    argv = ["psi", "eval", "--config", str(path), "--x", "0.1,0.1",
            "--v", "1,0.3", "--xi", "0.5,inf"]
    with pytest.raises(harness.ConfigError, match="^--xi: "):
        main(argv)
    assert capsys.readouterr().out == ""
    proc = _cli_in_subprocess(*argv)
    assert proc.returncode == 1
    assert "ConfigError: --xi: " in proc.stderr
    assert proc.stdout == ""
    assert main(argv[:-1] + ["0.5"]) == 0


@pytest.mark.parametrize("option,value", [
    ("--v", "0,0"), ("--xi", "nan"), ("--xi", "0.1,-0.2"), ("--v", "1,0,0"),
    ("--x", "0.15"), ("--x", "0.15,abc"), ("--w", "0.1,0.2"), ("--w", "2")],
    ids=["zero-v", "nan-xi", "negative-xi", "v-length", "x-length",
         "x-not-a-number", "w-length", "w-outside-ball"])
def test_psi_eval_bad_input_names_the_option(scene_config, capsys, option,
                                             value):
    args = {"--x": "0.15,0.15", "--v": "1,0", "--xi": "0.1", "--w": "0.3"}
    args[option] = value
    argv = ["psi", "eval", "--config", str(scene_config),
            "--family", "psi_marg_w"] + [t for kv in args.items() for t in kv]
    with pytest.raises(harness.ConfigError, match=f"^{option}: "):
        main(argv)
    assert capsys.readouterr().out == ""
    proc = _cli_in_subprocess(*argv)
    assert proc.returncode == 1
    assert f"ConfigError: {option}: " in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("option,value", [
    ("--xi", "0.7"), ("--xi", "-1"), ("--xi", "0.1,nan"), ("--xi", "abc"),
    ("--w", "3"), ("--z", "0,1"), ("--z", "-1.5")],
    ids=["xi-past-crystal-range", "negative-xi", "nan-xi", "xi-not-a-number",
         "w-outside-ball", "z-length", "z-outside-ball"])
def test_kernels_eval_bad_input_names_the_option(capsys, option, value):
    args = {"--xi": "0.1", "--w": "0.3", "--z": "-0.2"}
    args[option] = value
    argv = ["kernels", "eval", "--medium", "crystal", "--dimension", "2",
            "--family", "phi0"] + [t for kv in args.items() for t in kv]
    with pytest.raises(harness.ConfigError, match=f"^{option}: "):
        main(argv)
    assert capsys.readouterr().out == ""
    proc = _cli_in_subprocess(*argv)
    assert proc.returncode == 1
    assert f"ConfigError: {option}: " in proc.stderr
    assert proc.stdout == ""


def test_kernels_eval_ignores_parameters_a_family_does_not_take(capsys):
    # phi takes neither w nor z: only their lengths are checked
    argv = ["kernels", "eval", "--medium", "poisson", "--dimension", "2",
            "--xi", "0.5", "--family", "phi", "--w", "3", "--z", "-2"]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert float(out[1].split(",")[-1]) == 2.0 * np.exp(-1.0)


def test_subcommand_on_config_of_another_kind_uses_its_defaults(
        scene_config, capsys):
    # The freepath config sets only ks_final; transition runs with its own
    # default chi2_alpha and exits by its verdict.
    rc = main(["transition", "--config", str(scene_config)])
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "transition"
    assert report["alpha"] == harness.THRESHOLDS["transition"]["chi2_alpha"]
    assert rc == (0 if report["verdict"] else 3)


@pytest.mark.parametrize("command,option,value", [
    ("microsim", "--r", "nan"), ("microsim", "--r", "0"),
    ("microsim", "--r", "abc"), ("microsim", "--samples", "-3"),
    ("microsim", "--samples", "0"), ("freepath", "--threads", "0")],
    ids=["r-nan", "r-zero", "r-not-a-number", "samples-negative",
         "samples-zero", "threads-zero"])
def test_bad_override_names_the_option(scene_config, tmp_path, command,
                                       option, value):
    # --r nan wrote rows of escapes, --samples 0 ran the config's count,
    # --threads 0 ran on one worker, and --r 0, --r abc and --samples -3
    # ended in a bare ValueError
    out_dir = tmp_path / "out"
    proc = _cli_in_subprocess(command, "--config", str(scene_config),
                              "--out", str(out_dir), option, value)
    assert proc.returncode == 1
    assert f"ConfigError: {option}: " in proc.stderr
    assert proc.stdout == ""
    assert not out_dir.exists()


def test_microsim_radii_need_no_order(scene_config, tmp_path):
    # unlike experiment.r_schedule, --r may list radii in any order
    assert main(["microsim", "--config", str(scene_config), "--samples",
                 "200", "--r", "0.005,0.01", "--out",
                 str(tmp_path / "ms")]) == 0
    assert sorted(os.listdir(tmp_path / "ms")) == ["microsim_r0.005.csv",
                                                   "microsim_r0.01.csv"]


def _same_files(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_flight_overrides_match_the_edited_config(tmp_path):
    # the CLI writes its overrides into the experiment section and parses
    # once: the library run of the edited config emits the same bytes
    doc = {"scene": _TILED_BOX,
           "experiment": {"kind": "flight", "seed": 4, "samples": 1000}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["flight", "--config", str(path), "--out",
                 str(tmp_path / "cli"), "--particles", "1500", "--time",
                 "0.25", "--report", "marginals"]) == 0
    doc["experiment"].update(particles=1500, time=0.25, report="marginals")
    cfg = harness.ExperimentConfig.from_dict(doc)
    harness.emit(harness.run_experiment(cfg), str(tmp_path / "lib"), cfg)
    _same_files(tmp_path / "cli", tmp_path / "lib")


def test_flight_stationarity_report_runs_the_same_runner_both_ways(
        tmp_path):
    # the library and `polyxport flight` both run the stationarity runner
    # on a flight config whose report is "stationarity"
    doc = {"scene": _TILED_BOX,
           "experiment": {"kind": "flight", "seed": 2, "particles": 1000,
                          "n_seeds": 2, "time": 0.3,
                          "report": "stationarity"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = main(["flight", "--config", str(path), "--out",
               str(tmp_path / "cli")])
    cfg = harness.ExperimentConfig.from_dict(doc)
    report = harness.run_experiment(cfg)
    harness.emit(report, str(tmp_path / "lib"), cfg)
    assert report["experiment"] == "stationarity"
    assert rc == (0 if report["verdict"] else 3)
    _same_files(tmp_path / "cli", tmp_path / "lib")


def test_threads_override_leaves_the_config_hash(scene_config, tmp_path,
                                                 monkeypatch):
    # --threads reaches the sampler but not the hashed document
    monkeypatch.delenv("POLYXPORT_THREADS", raising=False)
    seen = []
    sample = harness.sample_tau1

    def recording(scene, cfg, n, threads):
        seen.append(threads)
        return sample(scene, cfg, n, threads)
    monkeypatch.setattr(harness, "sample_tau1", recording)
    assert main(["freepath", "--config", str(scene_config), "--out",
                 str(tmp_path / "cli"), "--threads", "2"]) == 0
    cfg = harness.ExperimentConfig.from_dict(
        json.loads(scene_config.read_text()))
    harness.emit(harness.run_experiment(cfg), str(tmp_path / "lib"), cfg)
    assert seen == [2, 1]
    _same_files(tmp_path / "cli", tmp_path / "lib")
    summary = json.loads((tmp_path / "cli" / "freepath_summary.json")
                         .read_text())
    assert summary["config_hash"] == cfg.hash()


def _cli_in_subprocess(*args):
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return subprocess.run([sys.executable, "-m", "polyxport.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
