"""Public surface hygiene, checked with the standard library's ast module.

Every name exported in `hspatch.__all__` must resolve, and no package module
may import a name it never uses.  `__init__.py` is exempt from the import
check because re-exporting imported names is its job.  Every module-level
private name must be read somewhere in the package, and every module-level
public name outside `hspatch.__all__` somewhere in the package, the tests or
the benchmark.  Every call boundary that the benchmark tracer wraps must
resolve too, or its metric reads null, and the values the tracer stores must
be plain JSON types.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import hspatch
from hspatch import (GeometricPatch, HsPatchInput, Policy, Side, build_hs_patch,
                     continuity_check, tessellate)

from conftest import LIFTED_CORNER, UV_Y, UV_Z

PACKAGE_DIR = Path(hspatch.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TESTS_DIR = Path(__file__).resolve().parent
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"
TRACE_CLI = PERFBENCH_DIR / "trace_cli.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def module_level_names(source: str) -> dict[str, int]:
    """Names a module defines at top level (functions, classes, assignments) and their lines."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(defining: dict[str, str], reading: dict[str, str], wanted) -> list[str]:
    """Module-level names of `defining` that pass `wanted` and no source of `reading` reads."""
    read = set().union(*map(read_names, reading.values()))
    return sorted(f"{module}.{name} (line {line})" for module, source in defining.items()
                  for name, line in module_level_names(source).items()
                  if wanted(name) and name not in read)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s defined in one of `sources` and read in none of them."""
    return unread_names(sources, sources,
                        lambda name: name.startswith("_") and not name.startswith("__"))


def test_all_names_resolve():
    missing = [name for name in hspatch.__all__ if not hasattr(hspatch, name)]
    assert missing == []
    assert len(set(hspatch.__all__)) == len(hspatch.__all__)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detector():
    source = "from dataclasses import dataclass, field\nimport numpy as np\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["field (line 1)", "np (line 2)"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_name_detector():
    sources = {"a": "_USED = 1\n_DEAD = 2\ndef _f():\n    return _USED\n",
               "b": "from .a import _f\n"}
    assert unread_private_names(sources) == ["a._DEAD (line 2)"]


def test_no_unread_public_names():
    # a public name outside __all__ that nothing reads is dead API
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    readers = {str(p): p.read_text(encoding="utf-8")
               for folder in (PACKAGE_DIR, TESTS_DIR, PERFBENCH_DIR) for p in folder.rglob("*.py")}
    exported = set(hspatch.__all__)
    assert unread_names(package, readers,
                        lambda name: not name.startswith("_") and name not in exported) == []


def test_unread_public_name_detector():
    sources = {"a": "Alias = int\nUSED = 1\ndef f():\n    return USED\n"}
    assert unread_names(sources, sources, lambda name: not name.startswith("_")) == [
        "a.Alias (line 1)", "a.f (line 3)"]


def test_traced_values_are_json_types():
    # the tracer json.dumps these as returned; a numpy scalar would stop the dump halfway
    patch = GeometricPatch(UV_Z, UV_Y, np.zeros((4, 4)))  # v = 0 edge collapsed
    rep = continuity_check(patch, Side.parse("v0"), patch, Side.parse("v0"), samples=5)
    mesh = tessellate(patch, 4)
    built = build_hs_patch(HsPatchInput(LIFTED_CORNER, LIFTED_CORNER, LIFTED_CORNER),
                           Policy.PROJECT)
    assert type(rep.degenerate_normals) is int and rep.degenerate_normals == 5
    assert type(rep.samples) is int
    assert mesh.degenerate_normals and all(type(k) is int for k in mesh.degenerate_normals)
    assert type(built.repaired) is bool and built.repaired
    json.dumps([rep.degenerate_normals, rep.samples, mesh.degenerate_normals, built.repaired])


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    assert trace_cli.WRAPPED
    missing = [f"{module}.{attr}" for _, module, attr in trace_cli.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
