"""Doc-drift guard: README's experiment-key and thresholds tables say what
harness parses.

The experiment-key table (header `| key | default | rule |`) names, in its
first column, exactly the keys of `harness._EXPERIMENT_KEYS`.  The
thresholds table (header `| kind | key: default | verdict |`) lists, per
runner, exactly the row of `harness.THRESHOLDS` with its defaults.
"""
import os
import re

from polyxport import harness

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _table(header):
    """The body rows of the README table under header, as lists of cells."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index(header) + 2         # skip the | --- | rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows, header
    return rows


def test_experiment_key_table_names_the_parsed_keys():
    keys = [key for row in _table("| key | default | rule |")
            for key in re.findall(r"`(\w+)`", row[0])]
    assert len(keys) == len(set(keys))
    assert set(keys) == harness._EXPERIMENT_KEYS


def test_thresholds_table_matches_the_harness_table():
    table = {}
    for kind, defaults, _ in _table("| kind | key: default | verdict |"):
        table[kind.strip("`")] = {
            key: float(value)
            for key, value in re.findall(r"`(\w+)`: ([0-9.e-]+)", defaults)}
    assert table == harness.THRESHOLDS
