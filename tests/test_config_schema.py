"""The config schema: harness's rule tables, one per config section, against
valid configs and against configs with one key mutated.

Each valid starting config parses to the same options, thresholds, runner,
output, hash and scene as the tables' predecessor gave (pinned as digests).
One mutation of one key of a starting config, drawn from the tables, either
parses or raises a ConfigError whose message begins with the dotted path of
a config key; no other exception, and no runner, starts.  The CLI exits 1 on
one case per mutation class.
"""
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_golden
import test_stats_harness
import test_workload_digests
from polyxport import harness
from polyxport.cli import main
from polyxport.harness import ConfigError, ExperimentConfig

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

_TILED_BOX = {"dimension": 2, "anchor": [0.175, 0.175],
              "periodic_box": {"lo": [0.0, 0.0], "hi": [0.35, 0.35]},
              "grains": [{"id": 1, "box": [[0.0, 0.0], [0.35, 0.35]],
                          "medium": {"type": "poisson"}}]}


def _readme_example():
    """The config of README's ```json block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def _copy(doc):
    return json.loads(json.dumps(doc))


def _starts():
    """name -> a valid config: the benchmark workloads, README's example,
    the test fixtures, and three that set the keys those leave out."""
    starts = {name: doc for name, (doc, _) in
              test_workload_digests._workloads().items()}
    starts["readme"] = _readme_example()
    starts["harness-config"] = test_stats_harness.CONFIG
    starts["golden"] = test_golden.DOC
    on_scatterer = _copy(test_stats_harness.CONFIG)
    on_scatterer["experiment"].update(
        on_scatterer=True, start_grain=1, q_mode="zero", threads=2,
        beta={"mode": "radial", "alpha": 0.5},
        thresholds={"ks_final": 0.1})
    on_scatterer["output"]["timings"] = True
    starts["on-scatterer"] = on_scatterer
    starts["flight-report"] = {"scene": _TILED_BOX, "experiment": {
        "kind": "flight", "report": "stationarity", "seed": 11,
        "particles": 1000, "time": 1, "split_times": [0.25, 0.5],
        "n_seeds": 2, "thresholds": {"ks_alpha": 0.05}}}
    starts["gap-scene"] = {"scene": _TILED_BOX, "experiment": {
        "kind": "poisson-baseline", "samples": 2000, "time": 0.5,
        "thresholds": {"alpha": 0.02, "gap_ks": 0.05},
        "gap_scene": {"dimension": 2, "anchor": [0.1, 0.1], "grains": [
            {"id": 4, "vertices": [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]],
             "medium": {"type": "poisson"}}]}}}
    return {name: _copy(doc) for name, doc in starts.items()}


STARTS = _starts()


def _scene_form(scene):
    if scene is None:
        return None
    box = scene.periodic_box
    return {
        "dimension": scene.dimension, "anchor": scene.anchor.tolist(),
        "box": None if box is None else [box.lo.tolist(), box.hi.tolist()],
        "incommensurable": scene.assume_incommensurable,
        "grains": [[g.id, g.normals.tolist(), g.offsets.tolist(),
                    g.diameter_bound, None if g.vertices is None
                    else g.vertices.tolist()] for g in scene.grains],
        "media": [[m.kind, getattr(m, "mode", None)]
                  + ([m.lattice.M.tolist(), m.lattice.omega.tolist(),
                      str(m.lattice.rational_form)] if m.kind == "crystal"
                     else []) for m in scene.media]}


def parsed_form(cfg):
    """A config as parsed, as JSON text: its runner, options, thresholds,
    output, hash and scene (every float by its repr, so bit for bit)."""
    opt = dict(cfg.options, beta=asdict(cfg.options["beta"]),
               gap_scene=_scene_form(cfg.options["gap_scene"]))
    return json.dumps({"runner": cfg.runner, "options": opt,
                       "thresholds": cfg.thresholds,
                       "output": [cfg.out_dir, cfg.timings],
                       "hash": cfg.hash(), "scene": _scene_form(cfg.scene)},
                      sort_keys=True)


# sha256[:16] of parsed_form, as the per-key parse code before the rule
# tables gave it (POLYXPORT_THREADS unset)
PARSED = {
    "flight-3d": "79671ba2c581a7e8",
    "flight-report": "381a5b779337a287",
    "freepath-2d-annealed": "bdc529436c0296c7",
    "freepath-3d-mixed": "d08cee7206d6e28a",
    "gap-scene": "38fa1d1525490c3f",
    "golden": "c3c7b18a4391d90f",
    "harness-config": "285f2d0f0acf57e5",
    "on-scatterer": "d0302ec2065f5316",
    "readme": "6f2bcbb3f3dbb895",
    "stationarity-2d": "29b2acbb3cb7c23c",
}


@pytest.mark.parametrize("name", sorted(STARTS))
def test_start_config_parses_as_before(name, monkeypatch):
    monkeypatch.delenv("POLYXPORT_THREADS", raising=False)
    form = parsed_form(ExperimentConfig.from_dict(_copy(STARTS[name])))
    assert hashlib.sha256(form.encode()).hexdigest()[:16] == PARSED[name]


# the table of each config section that holds a key of that name
SECTIONS = {"scene": harness.SCENE, "gap_scene": harness.SCENE,
            "grains": harness.GRAIN, "medium": harness.MEDIUM,
            "periodic_box": harness.PERIODIC_BOX,
            "experiment": harness.EXPERIMENT, "beta": harness.BETA,
            "output": harness.OUTPUT}


def _sections(node, table, where=()):
    """(where, table) of the object at where in node and of every section
    below it."""
    yield where, table
    for key, value in node.items():
        if key in SECTIONS and isinstance(value, dict):
            yield from _sections(value, SECTIONS[key], where + (key,))
        elif key == "grains":
            for i, grain in enumerate(value):
                yield from _sections(grain, SECTIONS[key], where + (key, i))


def _at(doc, where):
    for part in where:
        doc = doc[part]
    return doc


NAN, BOGUS = float("nan"), "bogus_key"
# The value classes, each with the values it tries in place of a key's value
# and, when that is a non-empty list, in place of its first entry.
VALUES = {"wrong-type": ["x", [0.5], {"a": 1}, None, 1.5], "nan": [NAN],
          "negative": [-1, -0.5], "zero": [0, 0.0, [], {}],
          "bool": [True, False]}
CLASSES = ["drop", "unknown", "grain-id"] + sorted(VALUES)
PATH = re.compile(r"^[a-z_]+(\[\d+\]|\.[a-z_]+)*: ")


def mutate(doc, where, key, kind, pick):
    """doc with one mutation of class kind at the key where/key; pick
    chooses among the class's values."""
    node = _at(doc, where)
    if kind == "drop":
        node.pop(key, None)
    elif kind == "unknown":
        node[BOGUS] = 1
    elif kind == "grain-id":
        # a start on a grain that does not exist, or a grain without an id
        ids = [g["id"] for g in doc["scene"]["grains"]]
        doc["experiment"].update(on_scatterer=True,
                                 start_grain=[max(ids) + 1, ids[0]][pick % 2])
        if pick % 2:
            del doc["scene"]["grains"][0]["id"]
    else:
        value, tries = node.get(key), VALUES[kind]
        if isinstance(value, list) and value:
            tries = tries + [[bad] + value[1:] for bad in tries]
        node[key] = tries[pick % len(tries)]
    return doc


def check_parses_or_names_a_key(doc):
    try:
        ExperimentConfig.from_dict(doc)
    except ConfigError as err:
        assert PATH.match(str(err)), str(err)


@settings(derandomize=True, max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mutation_parses_or_names_a_key(data, no_run):
    name = data.draw(st.sampled_from(sorted(STARTS)))
    doc = _copy(STARTS[name])
    where, table = data.draw(st.sampled_from(
        list(_sections(doc, harness.CONFIG))))
    key = data.draw(st.sampled_from(sorted(table)))
    kind = data.draw(st.sampled_from(CLASSES))
    pick = data.draw(st.integers(0, 9))
    check_parses_or_names_a_key(mutate(doc, where, key, kind, pick))


def test_every_key_of_every_table_is_reached():
    """The sections of the starting configs cover every table, so every
    key of the tables can be mutated."""
    reached = {id(table) for doc in STARTS.values()
               for _, table in _sections(doc, harness.CONFIG)}
    assert reached == {id(t) for t in [harness.CONFIG, *SECTIONS.values()]}


def _cli(*args):
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return subprocess.run([sys.executable, "-m", "polyxport.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


# one CLI case per mutation class: (where, key, class, pick) on the golden
# config, and the key that the error names
CLI_CASES = {
    "drop": ((("scene",), "dimension", "drop", 0), "scene.dimension"),
    "unknown": ((("experiment",), None, "unknown", 0), "experiment.bogus_key"),
    "grain-id": (((), None, "grain-id", 0), "experiment.start_grain"),
    "wrong-type": ((("experiment",), "samples", "wrong-type", 0),
                   "experiment.samples"),
    "nan": ((("scene",), "anchor", "nan", 1), "scene.anchor"),
    "negative": ((("experiment",), "seed", "negative", 0),
                 "experiment.seed"),
    "zero": ((("experiment",), "n_seeds", "zero", 0), "experiment.n_seeds"),
    "bool": ((("experiment",), "seed", "bool", 0), "experiment.seed"),
}


def test_cli_cases_cover_every_class():
    assert sorted(CLI_CASES) == sorted(CLASSES)


@pytest.mark.parametrize("kind", sorted(CLI_CASES))
def test_cli_exits_1_on_each_mutation_class(kind, tmp_path):
    (where, key, kind, pick), named = CLI_CASES[kind]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(mutate(_copy(test_golden.DOC), where, key,
                                      kind, pick)))
    proc = _cli("freepath", "--config", str(path), "--out",
                str(tmp_path / "out"))
    assert proc.returncode == 1
    assert f"ConfigError: {named}: " in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "out").exists()


def test_negative_seed_option_exits_1(tmp_path, no_run):
    # a negative seed parsed, then numpy failed in streams.rng
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(test_golden.DOC))
    args = ["freepath", "--config", str(path), "--seed", "-1"]
    with pytest.raises(ConfigError, match=r"^experiment\.seed: "):
        main(args)
    proc = _cli(*args)
    assert proc.returncode == 1
    assert "ConfigError: experiment.seed: " in proc.stderr


def test_output_dir_named_before_the_run(tmp_path, no_run):
    # a number as output.dir ran the whole experiment, then failed in
    # os.makedirs; an --out in its place hid it
    doc = _copy(test_golden.DOC)
    doc["output"] = {"dir": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--out", str(tmp_path / "out")]):
        with pytest.raises(ConfigError, match=r"^output\.dir: "):
            main(["freepath", "--config", str(path), *extra])
