"""perfbench/tracing.py wraps package names in place: every site it lists
must exist, or `perfbench/run.py --trace 1` fails with a KeyError."""
import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written next to the benchmark
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_site_is_defined_where_it_is_wrapped(tracing):
    sites = [(name, owner, attr)
             for name, (_, owners) in tracing.ENTRY_POINTS.items()
             for owner, attr in owners]
    assert sites
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, owner, attr in sites if attr not in owner.__dict__]
    assert not missing
