"""Every name a module of the package imports is referenced by that module,
every module-level private function and class is referenced somewhere in
the package, every public one somewhere in the package or the benchmark,
importing the package does not load scipy.optimize, and no module but
measure names EmpiricalLaw."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvfbdsde"
# imported and unreferenced on purpose: bench/tracing.py wraps the name there
ALLOWED = {("assumptions", "wasserstein2")}
# the package's __init__ re-exports everything it imports (__all__ is built
# from dir()), so it is not scanned
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = SRC.parents[1] / "bench"
# public names that only tests call, each as a reference or a fixture
TEST_ONLY = {
    "forward_ito_integral": "the left-node quadrature criterion 6 and the path tests check",
    "backward_ito_integral": "the right-node quadrature criterion 6 and the path tests check",
    "zero_coefficient_set": "the all-zero model with closed-form solves and constants",
    "check_mean_w2_bounds": "criterion 4's mean and coupling bounds on W2",
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    referenced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(
        name for name in _imported(tree) - referenced
        if (path.stem, name) not in ALLOWED
    )
    assert not unused, f"{path.name} imports {unused} and never references them"


def test_every_private_helper_is_referenced():
    # a private helper that nothing in the package names is dead code that a
    # refactor left behind; tests do not count as callers
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = sorted(
        f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    )
    assert not dead, f"private helpers referenced nowhere in the package: {dead}"


def _named(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and strings spelled out in a module
    (the benchmark's tracer looks functions up by their string names)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_is_reached():
    # a public function or class that no module of the package or the
    # benchmark names is a feature nothing runs; the __init__ re-export and
    # tests do not count as callers
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in BENCH.glob("*.py")]
    named = set().union(*map(_named, [*trees.values(), *bench]))
    public = {
        node.name: stem for stem, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unreached = sorted(f"{public[name]}.{name}"
                       for name in public.keys() - named - TEST_ONLY.keys())
    assert not unreached, f"public names no module of src/ or bench/ reaches: {unreached}"
    stale = sorted(name for name in TEST_ONLY if name not in public or name in named)
    assert not stale, f"TEST_ONLY entries that are gone or now reached: {stale}"


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the package's import time; the functions
    # that need it import it themselves
    code = "import sys, mvfbdsde; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_only_measure_names_the_sample_cloud_law():
    # coefficient maps and costs receive NodeMoments; EmpiricalLaw is only
    # the input of measure's W2 and mean-bound checks (the package's
    # __init__ re-exports it)
    naming = sorted(p.name for p in MODULES
                    if p.name != "measure.py" and "EmpiricalLaw" in p.read_text(encoding="utf-8"))
    assert not naming, f"modules besides measure.py name EmpiricalLaw: {naming}"
