"""Doc-drift guard: README's experiment-key and thresholds tables say what
harness parses.

The experiment-key table (header `| key | default | rule |`) names, in its
first column, exactly the keys of the rule table `harness.EXPERIMENT`, one
per row, and its default column begins with each key's literal default
there (as JSON in backticks; `required` for a required key).  The
thresholds table (header `| kind | key: default | verdict |`) lists, per
runner, exactly the row of `harness.THRESHOLDS` with its defaults.
"""
import json
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


def _key_rows():
    """{key: default cell} of README's experiment-key table."""
    rows = _table("| key | default | rule |")
    keys = [re.fullmatch(r"`(\w+)`", row[0]).group(1) for row in rows]
    assert len(keys) == len(set(keys))
    return dict(zip(keys, (row[1] for row in rows)))


def test_experiment_key_table_names_the_parsed_keys():
    assert set(_key_rows()) == set(harness.EXPERIMENT)


def test_experiment_key_table_gives_the_literal_defaults():
    # a None default is set from other keys, or there is none: free text
    cells = _key_rows()
    for key, (default, _) in harness.EXPERIMENT.items():
        if default is harness.REQUIRED:
            assert cells[key] == "required", key
        elif default is not None:
            assert cells[key].startswith(f"`{json.dumps(default)}`"), key


def test_thresholds_table_matches_the_harness_table():
    table = {}
    for kind, defaults, _ in _table("| kind | key: default | verdict |"):
        table[kind.strip("`")] = {
            key: float(value)
            for key, value in re.findall(r"`(\w+)`: ([0-9.e-]+)", defaults)}
    assert table == harness.THRESHOLDS
