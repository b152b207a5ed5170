"""The package's public names and its runtime dependencies."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import sheetcharge

PACKAGE = Path(sheetcharge.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Test oracles and single-caller names that left the public API.
GONE = {
    "criterion_a_statistic",
    "dichotomy_statistics",
    "criterion_b_terms",
    "criterion_b_partial_sums",
    "holder_ratio",
    "holder_ratio_by_level",
    "finest_increments",
    "axis_cholesky",
    "axis_kernel_matrix",
}


@pytest.mark.parametrize("name", ["sheetcharge"] + [f"sheetcharge.{m}" for m in MODULES])
def test_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [x for x in exported if not hasattr(module, x)] == []
    assert GONE.isdisjoint(exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    # numpy is the one declared runtime dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "sheetcharge"}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    assert found <= allowed, sorted(found - allowed)
