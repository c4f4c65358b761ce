"""Dead-method guard: every method and property of a class in
src/polyxport has a reader.

A reader is `.name` or a quoted "name" (a getattr dispatch, a tracing
site) in a Python file under src/, tests/, demos/ or perfbench/; the
definition `def name(` is neither.  Dunder methods are called by Python
itself and are skipped.
"""
import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "polyxport")
READERS = ("src", "tests", "demos", "perfbench")


def _methods():
    """(module, class, name) of every non-dunder method or property."""
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))):
                    yield os.path.basename(path), cls.name, node.name


def _read_names():
    """Every name read as `.name` or quoted in the reader directories."""
    names = set()
    for top in READERS:
        pattern = os.path.join(ROOT, top, "**", "*.py")
        for path in glob.glob(pattern, recursive=True):
            with open(path, encoding="utf-8") as fh:
                for attr, quoted in re.findall(
                        r"\.(\w+)|[\"'](\w+)[\"']", fh.read()):
                    names.add(attr or quoted)
    return names


def test_every_method_has_a_reader():
    read = _read_names()
    dead = [f"{module}: {cls}.{name}" for module, cls, name in _methods()
            if name not in read]
    assert not dead, "methods nothing reads: " + ", ".join(dead)
