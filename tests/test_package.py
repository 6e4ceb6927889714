import ast
import pathlib
import re
import types

import numpy as np

import pentalab


def test_all_names_the_public_namespace():
    # __all__ and the imports of __init__ are kept by hand; neither may
    # list a name the other lacks
    public = [name for name, value in vars(pentalab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(pentalab.__all__) == sorted(public)


def test_every_function_and_class_has_a_caller():
    # a module-level function or class is either public (in __all__) or
    # named somewhere in the package outside its own definition
    files = {path.name: path.read_text().splitlines()
             for path in pathlib.Path(pentalab.__file__).parent.glob("*.py")}
    orphans = []
    for name, lines in sorted(files.items()):
        for node in ast.parse("\n".join(lines)).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in pentalab.__all__):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for other, text in files.items()
                       for n, line in enumerate(text, 1)
                       if other != name
                       or not node.lineno <= n <= node.end_lineno):
                orphans.append(f"{name}:{node.name}")
    assert orphans == []


def test_every_import_is_read():
    # an unused-import check that needs no linter: each name a module
    # binds by import is read as a name in that module (an attribute read
    # such as np.zeros reads np); __init__.py imports only to re-export
    unread = []
    for path in sorted(pathlib.Path(pentalab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}:{node.lineno}:{alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in read]
    assert unread == []


# public names that nothing in the package calls yet, each with why it
# stays for now; a name leaves the list when it gains a caller or goes
_UNCALLED = {
    "limit_diagnostics": "acceptance line 2 reads it; no command reports it",
    # the frame march's own lift jet and Wronskian, which go with
    # CurveSpec.frame_at once the benchmark's tracer stops patching it
    "gamma_jet": "the curves tests read it",
    "wronskian": "acceptance line 1 reads it",
}


def _references(tree):
    """(name, line) of every Name, Attribute and from-import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_name_has_a_caller():
    # a name in __all__ is referenced in the package outside its own
    # definition and __init__.py; the references come from the AST, so a
    # docstring or comment that names it does not count
    trees = {path.name: ast.parse(path.read_text())
             for path in pathlib.Path(pentalab.__file__).parent.glob("*.py")
             if path.name != "__init__.py"}
    refs = {(name, home, line) for home, tree in trees.items()
            for name, line in _references(tree)}
    uncalled = []
    for name in pentalab.__all__:
        home = getattr(pentalab, name).__module__.rsplit(".", 1)[1] + ".py"
        [node] = [n for n in trees[home].body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                  and n.name == name]
        own = range(node.lineno, node.end_lineno + 1)
        if not any(ref == name and (where != home or line not in own)
                   for ref, where, line in refs):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(_UNCALLED)


def test_only_gamma_jet_wraps_a_series():
    # every series in the package is a bare coefficient array; outside
    # jets.py and __init__.py the name Jet is read (through the AST, so a
    # docstring does not count) only by curves.gamma_jet and its import
    stray = []
    for path in sorted(pathlib.Path(pentalab.__file__).parent.glob("*.py")):
        if path.name in ("jets.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "curves.py":
            for node in tree.body:
                if (isinstance(node, ast.ImportFrom)
                        or (isinstance(node, ast.FunctionDef)
                            and node.name == "gamma_jet")):
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        stray += [f"{path.name}:{line}" for name, line in _references(tree)
                  if name == "Jet" and line not in allowed]
    assert stray == []


def test_series_come_back_as_bare_arrays():
    from pentalab.chimap import _spans
    from pentalab.curves import _SHIFT_ORDER, _lift_coeffs

    spec = pentalab.random_curve_spec(2, seed=1)
    chi = pentalab.short_diagonal_chi(2)
    lifts = _lift_coeffs(spec, np.array([0.3]), _SHIFT_ORDER)[0][..., 0]
    point = pentalab.intersect_spans(_spans(chi, lifts, 0.1, 6))
    results = {
        "eval_jet": [pentalab.eval_jet(spec.u[0], 0.3, 4)],
        "CurveSpec.u_jet": [spec.u_jet(0.3, 4)],
        "intersect_spans": [point],
        "normalized_lift": list(pentalab.normalized_lift(point)),
        "chi_map_point": list(pentalab.chi_map_point(chi, lifts, 0.1, 6)),
    }
    assert {name: [type(r) for r in got] for name, got in results.items()} \
        == {name: [np.ndarray] * len(got) for name, got in results.items()}


# what the oracles may take from the package: the types that build a test
# curve, never a computation the pipeline under test also runs
_ORACLE_IMPORTS = {"CurveSpec", "AnalyticFn"}


def test_oracles_import_only_fixture_types():
    # read through the AST, so that no import form slips past: a plain
    # `import pentalab...` or any other name from it fails
    path = pathlib.Path(__file__).with_name("oracles.py")
    taken = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names
                      if alias.name.split(".")[0] == "pentalab"}
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "pentalab"):
            taken |= {alias.name for alias in node.names}
    assert taken <= _ORACLE_IMPORTS


def _takes_umath_linalg(node):
    """Whether an AST node imports or reads numpy's private LAPACK module."""
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.linalg._umath_linalg")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.linalg._umath_linalg") \
            or any(alias.name == "_umath_linalg" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "_umath_linalg"


def test_only_linalg_takes_the_private_lapack_module():
    # linalg calls numpy's LAPACK gufuncs without numpy's wrapper; every
    # other module goes through linalg, so a numpy that moves the private
    # module breaks one file
    takers = sorted(path.name for path in
                    pathlib.Path(pentalab.__file__).parent.glob("*.py")
                    if any(_takes_umath_linalg(node)
                           for node in ast.walk(ast.parse(path.read_text()))))
    assert takers == ["linalg.py"]
