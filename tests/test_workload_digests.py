"""Byte identity of the benchmark workloads: each workload config of
perfbench/workloads.py, run by `harness.run_experiment` + `harness.emit` as
a benchmark repetition runs it, must emit files with the sha256 digests in
golden/workload_digests.json at every seed listed there.

    python tests/test_workload_digests.py     # rewrites the golden file
"""
import hashlib
import importlib.util
import json
import os
import sys

import pytest

from polyxport import harness

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(os.path.dirname(HERE), "perfbench", "workloads.py")
GOLDEN = os.path.join(HERE, "golden", "workload_digests.json")
SEEDS = (0, 4242)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written next to the benchmark
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.WORKLOADS


def workload_digests(doc, seed, out_dir):
    """{file name: sha256} of one repetition of a workload config at seed."""
    config = harness.ExperimentConfig.from_dict(json.loads(json.dumps(
        dict(doc, experiment=dict(doc["experiment"], seed=seed)))))
    files = harness.emit(harness.run_experiment(config), out_dir, config)
    digests = {}
    for path in files:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(
                fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_workload_outputs_match_the_golden_digests(name, tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    doc, _ = _workloads()[name]
    assert sorted(golden) == [str(s) for s in sorted(SEEDS)]
    for seed in SEEDS:
        fresh = workload_digests(doc, seed, str(tmp_path / str(seed)))
        want = golden[str(seed)]
        assert sorted(fresh) == sorted(want), \
            f"{name} at seed {seed} emits {sorted(fresh)}"
        for file, digest in want.items():
            assert fresh[file] == digest, \
                f"{name} at seed {seed}: {file} drifted from its digest"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: {str(seed): workload_digests(
                     doc, seed, os.path.join(tmp, name, str(seed)))
                     for seed in SEEDS}
                 for name, (doc, _) in sorted(_workloads().items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
