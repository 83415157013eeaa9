"""Import hygiene of the library.

Every name a library module imports is used in that module.  No linter
ships with the project, so this scans the source itself.  ``__init__.py``
is exempt: its imports are the package's public names.

numpy sits behind the matrix ring: only ``ncross/matrix.py`` imports it or
names it in code (its private ``_umath_linalg`` gufuncs included),
so a run that touches no matrix never loads it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "ncross"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _module_level_imports(tree: ast.Module):
    """The top-level package of every import that runs when the module is
    imported, that is outside any function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


def test_only_the_matrix_module_imports_numpy():
    importers = [p.name for p in sorted(_SRC.glob("*.py"))
                 if "numpy" in _module_level_imports(ast.parse(p.read_text()))]
    assert importers == ["matrix.py"]



def _code_words(tree: ast.Module):
    """Every name, attribute, imported module and string constant of the
    module's code; docstrings and comments are prose, not code."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield node.value


def test_only_the_matrix_module_names_numpy_in_code():
    """numpy, and the private ``_umath_linalg`` gufunc module the matrix
    ring calls, are named in code by ``ncross/matrix.py`` alone, so the
    binding to numpy's internals sits in one place."""
    namers = [p.name for p in sorted(_SRC.glob("*.py"))
              if any("numpy" in w or "_umath_linalg" in w
                     for w in _code_words(ast.parse(p.read_text())))]
    assert namers == ["matrix.py"]

def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that sees this ncross; its
    standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: with numpy unimportable: ``import ncross``, a 2-trial verify of every
#: suite on every ring it supports except matrix, then every compute op on
#: quaternion input; prints the exit codes and the numpy modules loaded
_WITHOUT_NUMPY = """
import contextlib, io, json, os, sys, tempfile
sys.modules["numpy"] = None
import ncross
from ncross.cli import OPS, main
from ncross.scalars import QUATERNION, Seed, sample, scalar_to_json
from ncross.suites import list_suites

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)

q = [scalar_to_json(sample(QUATERNION, Seed(1, k))) for k in range(10)]
vec = lambda k: {"x1": q[2 * k], "x2": q[2 * k + 1]}
grid = lambda r, c: {"entries": [q[i * c:(i + 1) * c] for i in range(r)]}
inputs = {
    "cross_ratio": {"vectors": [vec(k) for k in range(4)]},
    "quasidet": {"matrix": grid(3, 3), "p": 1, "q": 2},
    "qp_left": {"matrix": grid(2, 4), "i": 3, "j": 0, "k": 1},
    "qp_right": {"matrix": grid(4, 2), "i": 0, "j": 2, "k": 3},
    "dv": dict(zip(("P1", "P2", "Q1", "Q2"), q)),
    "collinear": {"points": [vec(k) for k in range(3)]},
    "nc_schwarzian": {"coeffs": q[:5]},
    "pentagram_classical": {"points": q[:5]},
    "pentagram_nc": {"vectors": [vec(k) for k in range(5)]},
    "leapfrog": {"points": q[:5]},
}
assert set(inputs) == set(OPS)
codes = {}
for name, _, rings in list_suites():
    for ring in rings:
        if ring != "matrix":
            codes[f"verify {name} {ring}"] = run(
                ["verify", "--suite", name, "--ring", ring, "--trials", "2"])
with tempfile.TemporaryDirectory() as tmp:
    for op, data in inputs.items():
        path = os.path.join(tmp, op + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        codes[f"compute {op}"] = run(
            ["compute", "--op", op, "--input", path])
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "numpy" and mod is not None]
print(json.dumps({"codes": codes, "numpy": loaded}))
"""


def test_runs_without_numpy():
    out = json.loads(_python(_WITHOUT_NUMPY))
    assert out["numpy"] == []
    # 53 verify calls and 10 compute ops, each exiting 0 as it does with
    # numpy importable
    assert len(out["codes"]) == 62
    assert {k: v for k, v in out["codes"].items() if v != 0} == {}


def test_matrix_verify_loads_numpy():
    out = _python(
        "import contextlib, io, sys\n"
        "import ncross.cli\n"
        "before = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ncross.cli.main(['verify', '--suite', 'plucker-properties',"
        " '--ring', 'matrix', '--trials', '2'])\n"
        "print(before, code, 'numpy' in sys.modules)\n")
    assert out.split() == ["False", "0", "True"]


def test_matrix_names_are_forwarded():
    import ncross
    import ncross.matrix
    import ncross.scalars
    assert ncross.MatScalar is ncross.matrix.MatScalar
    assert ncross.matrix_ring is ncross.matrix.matrix_ring
    for name in ("MatScalar", "MatrixRing", "matrix_ring"):
        assert getattr(ncross.scalars, name) is getattr(ncross.matrix, name)
    assert not hasattr(ncross.scalars, "nope")
    assert not hasattr(ncross, "nope")
    with pytest.raises(AttributeError, match="nope"):
        ncross.scalars.nope
