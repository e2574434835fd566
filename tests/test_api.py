"""Public surface hygiene, checked with the standard library's ast module.

Every name exported in `hspatch.__all__` must resolve, and no package module
may import a name it never uses.  `__init__.py` is exempt from the import
check because re-exporting imported names is its job.  Every call boundary
that the benchmark tracer wraps must resolve too, or its metric reads null.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import hspatch

PACKAGE_DIR = Path(hspatch.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


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


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    assert trace_cli.WRAPPED
    missing = [f"{module}.{attr}" for _, module, attr in trace_cli.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
