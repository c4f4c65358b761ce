"""Row-reduction guard: the modules of the rows x d hot paths reduce
across columns (polyxport.lattice.reduce_cols, argmin_cols, norm_rows),
never along a short last axis, which NumPy runs one row at a time.

A site is a call of np.linalg.norm, or of a reduction with the keyword
`axis=1` or `axis=-1`, in geometry, flight, scattering, microsim, lattice
or kernels.  Every site is listed in ALLOWED under its module and
function, with the reason it stays; a new site fails the test until it is
rewritten or listed.
"""
import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "polyxport")
MODULES = ("geometry", "flight", "scattering", "microsim", "lattice",
           "kernels")
REDUCTIONS = {"sum", "prod", "min", "max", "amin", "amax", "any", "all",
              "argmin", "argmax", "mean", "cumsum", "cumprod", "reduce",
              "count_nonzero"}

ALLOWED = {
    ("geometry", "_unit_rows"):
        "hull facet normals, once per grain built",
    ("geometry", "ConvexGrain.from_vertices"):
        "hull facet offsets and the diameter, once per grain built",
    ("geometry", "ConvexGrain.box"):
        "the diameter of one box, once per grain built",
    ("geometry", "_axis_bounds"):
        "one argmax per facet normal: facets x d, a handful of rows",
    ("geometry", "_tiled_table"):
        "a wide table: rows x segments",
    ("geometry", "gap"):
        "a wide table: rows x segments",
    ("scattering", "_sphere_point"):
        "the norm of one vector",
    ("lattice", "ScaledGrainLattice.__post_init__"):
        "the operator norm of M^-1, once per lattice",
    ("microsim", "MicroRuntime.__init__"):
        "the scene diameter, once per runtime",
}


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _short_axis(call):
    """True if call has the keyword axis=1 or axis=-1."""
    for kw in call.keywords:
        if kw.arg == "axis":
            try:
                return ast.literal_eval(kw.value) in (1, -1)
            except ValueError:
                return False
    return False


def _flagged(node, scope=()):
    """(function, line) of every norm call and short-axis reduction under
    node; function is the dotted name of the innermost def, with its
    classes."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        scope = scope + (node.name,)
    if isinstance(node, ast.Call) and (
            _name(node.func) == "norm"
            or (_name(node.func) in REDUCTIONS and _short_axis(node))):
        yield ".".join(scope), node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _flagged(child, scope)


def _sites():
    """(module, function, line) of every site in MODULES."""
    for module in MODULES:
        path = os.path.join(PACKAGE, module + ".py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for func, line in _flagged(tree):
            yield module, func, line


def test_hot_path_modules_reduce_across_columns():
    bad = [f"{module}.py:{line} in {func}" for module, func, line in _sites()
           if (module, func) not in ALLOWED]
    assert not bad, ("row reductions outside ALLOWED (reduce across "
                     "columns with polyxport.lattice's helpers, or list "
                     "the site with its reason): " + ", ".join(bad))


def test_every_allowed_site_exists():
    found = {(module, func) for module, func, _ in _sites()}
    assert not set(ALLOWED) - found, set(ALLOWED) - found


def test_the_guard_sees_each_form():
    src = ("class C:\n"
           "    def f(self, a):\n"
           "        a.min(axis=1)\n"
           "        np.sum(a, axis=-1)\n"
           "        np.linalg.norm(a)\n"
           "        np.any(a, axis=0)\n"
           "        np.stack([a, a], axis=1)\n"
           "        reduce_cols(np.minimum, a)\n")
    assert sorted(_flagged(ast.parse(src))) == [("C.f", 3), ("C.f", 4),
                                                ("C.f", 5)]
