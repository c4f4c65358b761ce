"""Tests of the benchmark itself: its checks catch corrupted outputs, its
names match BENCHMARK.json, and its traced counts repeat exactly.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from polyxport import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small_config(workload, **experiment):
    doc = copy.deepcopy(WORKLOADS[workload][0])
    doc["experiment"].update(experiment, seed=3)
    return harness.ExperimentConfig.from_dict(doc)


def run_and_emit(config, out_dir):
    return harness.emit(harness.run_experiment(config), str(out_dir), config)


@pytest.fixture(scope="module")
def freepath_config():
    return small_config("freepath-2d-annealed", samples=1000,
                        r_schedule=[1e-2])


def test_freepath_check_catches_shifted_tau1(freepath_config, tmp_path,
                                             monkeypatch):
    _, problems = checks.check_outputs(run_and_emit(freepath_config,
                                                    tmp_path / "good"))
    assert problems == []
    sample = harness.sample_tau1

    def shifted(*args, **kwargs):
        samp = sample(*args, **kwargs)
        return dataclasses.replace(samp, tau1=samp.tau1 + 0.1)

    monkeypatch.setattr(harness, "sample_tau1", shifted)
    _, problems = checks.check_outputs(run_and_emit(freepath_config,
                                                    tmp_path / "bad"))
    assert any(p.startswith("KS") for p in problems)


def test_freepath_check_catches_wrong_escape_fraction():
    row = {"r": 1e-3, "n": 10000, "ks": 0.005, "escape_fraction": 0.62,
           "limit_escape": 0.6475}
    assert checks.check_freepath({"per_r": [row]})
    assert not checks.check_freepath(
        {"per_r": [dict(row, escape_fraction=0.65)]})


def test_flight_check_catches_dropped_particle(tmp_path):
    config = small_config("stationarity-2d", kind="flight", particles=2000,
                          time=1.0)
    files = run_and_emit(config, tmp_path)
    summary_path = next(p for p in files if p.endswith("_summary.json"))
    assert checks.check_outputs(files)[1] == []
    with open(summary_path) as fh:
        summary = json.load(fh)
    k = max(range(len(summary["n_collision_counts"])),
            key=summary["n_collision_counts"].__getitem__)
    summary["n_collision_counts"][k] -= 1
    problems = checks.check_flight(summary)
    assert any("sum to 1999" in p for p in problems)


def test_flight_check_catches_oracle_disagreement():
    summary = {"particles": 2000, "n_collision_counts": [80, 1920],
               "n0_fraction": 0.04, "n0_fraction_oracle": 0.1}
    assert any("oracle" in p for p in checks.check_flight(summary))
    summary["n0_fraction_oracle"] = 0.042
    assert checks.check_flight(summary) == []


def test_stationarity_check_uses_bonferroni_level():
    row = {"seed": 0, **{t: [0.01, 0.5] for t in
                         ("ks_xi", "ks_vplus", "ks_v", "ks_cell", "ks_split")}}
    rows = [dict(row, seed=s) for s in range(3)]
    assert checks.check_stationarity({"per_seed": rows}) == []
    # 0.005 fails the runner's alpha=0.01 but is a plausible minimum of 15
    rows[1] = dict(rows[1], ks_v=[0.02, 0.005])
    assert checks.check_stationarity({"per_seed": rows}) == []
    rows[2] = dict(rows[2], ks_split=[0.05, 1e-6])
    assert checks.check_stationarity({"per_seed": rows})


def test_flipped_byte_fails_the_repetition(freepath_config, tmp_path):
    files = run_and_emit(freepath_config, tmp_path)
    good, _ = checks.check_outputs(files)
    csv_path = next(p for p in files if p.endswith("freepath_ks.csv"))
    with open(csv_path, "r+b") as fh:
        fh.seek(40)
        byte = fh.read(1)
        fh.seek(40)
        fh.write(bytes([byte[0] ^ 0x01]))
    bad, _ = checks.check_outputs(files)
    assert bad != good
    reps = [{"wall_s": 1.0, "digests": good, "problems": []},
            {"wall_s": 1.0, "digests": bad, "problems": []}]
    assert run.tally([{"reps": reps}], crashed=0) == (2, 1)


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.UNITS


def test_traced_counts_repeat_and_tracer_restores(freepath_config, tmp_path):
    original = harness.run_experiment
    tracer = tracing.Tracer().install()
    try:
        counts = []
        for k in range(2):
            run_and_emit(freepath_config, tmp_path / str(k))
            m = tracing.layer_metrics(tracer.take())
            counts.append({name: m[name] for name in tracing.COUNTS
                           if name in m})
    finally:
        tracer.uninstall()
    assert harness.run_experiment is original
    assert counts[0] == counts[1]
    assert counts[0]["microsim.rays"] == 1000
    assert counts[0]["lattice.tube_queries"] > 0
    assert counts[0]["harness.emit_bytes"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flight-3d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
