"""Every name a library module imports is used in that module, every
module-level private name is referenced elsewhere in the package, and the CLI
pulls in no heavy module it does not need."""

import ast
import importlib
import os
from pathlib import Path
import subprocess
import sys
import types

import pytest

import polyjac

SRC = Path(__file__).resolve().parent.parent / "src" / "polyjac"
# __init__.py is exempt: it imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"unused imports in {path.name}: {sorted(imported - used)}"


def _references(node):
    """Names a statement loads or reads as attributes."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    # a module-level _name is referenced by some other top-level statement of the package
    statements = {p: ast.parse(p.read_text()).body for p in SRC.glob("*.py")}
    for stmt in statements[path]:
        for name in _defined(stmt):
            if name.startswith("_") and not name.startswith("__"):
                others = (s for body in statements.values() for s in body if s is not stmt)
                assert any(name in _references(s) for s in others), f"{path.name}: {name} is never referenced"


def test_only_system_reads_the_order_products():
    # Theorem 3.1's sums over the orders are formed in system.py alone; other modules call its readers
    private = {"_products", "_orders", "_terms", "_quad", "_packed"}
    readers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    }
    assert readers == {"system.py"}


def test_package_reexports_each_module_all():
    # the package surface is declared once, in each module's __all__
    tree = ast.parse((SRC / "__init__.py").read_text())
    modules = [importlib.import_module(f"polyjac.{n.module}") for n in tree.body if isinstance(n, ast.ImportFrom)]
    declared = {name: m for m in modules for name in m.__all__}
    public = {
        name
        for name, value in vars(polyjac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(declared)
    for name, module in declared.items():
        assert getattr(polyjac, name) is getattr(module, name), name


def test_cli_solve_does_not_import_scipy(tmp_path):
    # scipy is no dependency; importing it adds about 27 MB and 0.3 s to every CLI call
    system = tmp_path / "system.json"
    system.write_text('{"n": 2, "L": [[3, 1], [1, 4]], "quadratic": [[0, 0, 1, 0.5]], "F": [-1, -2]}')
    script = (
        "import sys\n"
        "import polyjac\n"
        "from polyjac import cli\n"
        f"code = cli.main(['solve', {str(system)!r}, '--method', 'gauss-seidel'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
