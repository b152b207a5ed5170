"""The package's public names, its runtime dependencies and its reach from the CLI."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import sheetcharge
from sheetcharge import cli, experiment

from test_bench_call_sites import wrapped_call_sites

PACKAGE = Path(sheetcharge.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Test oracles, single-caller names and code no subcommand reached, all gone
# from the public API (the oracles now live in tests/oracles.py, the exact
# scalars in tests/exact.py).
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
    "GridField",
    "PolynomialField",
    "field_from_json",
    "flux",
    "integrate_haar_over_figure",
    "linear_field",
    "schauder_partial_apply",
    "step_inner_product",
    "children",
    "cube_box",
    "exposed_faces",
    "figure_volume",
    "morton_to_lex",
    "HaarIndex",
    "StepFunction",
    "haar_child_pattern",
    "haar_child_values",
    "haar_cube_weight",
    "haar_gram_exact",
    "haar_indices_up_to",
    "haar_inner_product",
    "haar_matrix_entry",
    "haar_primitive_grid",
    "haar_step",
    "indicator_expansion",
    "integrate_haar_step",
    "figure_increment",
    "rectangle_increment",
    "save_coefficients",
    "load_coefficients",
    "increment_covariance",
    "Rad2",
    "pow2_half",
    "haar_amplitude",
    "exact_coefficient_table",
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


def top_level_references() -> tuple[set, dict]:
    """The package's top-level functions, classes and assignments, as (module, name),
    and what each of them, or a name a module imports, refers to.

    A name resolves to its own module's definition or, through a relative
    import, to another module's; ``module.attr`` resolves through an imported
    package module, and so through what that module imports.  A local
    variable that shadows a top-level name counts as a reference, so the
    scan can miss dead code but never flags reached code.
    """
    definitions, graph = set(), {}
    for path in PACKAGE.glob("*.py"):
        module, tree = path.stem, ast.parse(path.read_text())
        if module == "__init__":
            continue
        imported = {}  # local name -> (module, name), name None for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    imported[alias.asname or alias.name] = target
        graph.update({(module, name): {target} for name, target in imported.items()})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]
            else:
                continue
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(imported.get(sub.id, (module, sub.id)))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    target = imported.get(sub.value.id)
                    if target is not None and target[1] is None:
                        refs.add((target[0], sub.attr))
            definitions.update((module, name) for name in names)
            graph.update({(module, name): refs for name in names})
    return definitions, graph


def _definition(obj) -> tuple[str, str]:
    return obj.__module__.rpartition(".")[2], obj.__name__


def test_every_definition_is_reached_from_a_subcommand():
    # Allowed unreached: what bench/tracer.py wraps, and the reader of the
    # .grid files that simulate writes.
    allowed = {
        _definition(getattr(importlib.import_module(module), attr))
        for module, attr in wrapped_call_sites()
    } | {("sampler", "load_grid")}
    roots = {_definition(cli.main), _definition(cli.build_parser)}
    roots |= {_definition(runner) for runner in experiment.SUBCOMMANDS.values()}
    definitions, graph = top_level_references()
    reached, todo = set(), list(roots | allowed)
    while todo:
        key = todo.pop()
        if key in graph and key not in reached:
            reached.add(key)
            todo.extend(graph[key])
    assert sorted(definitions - reached) == []


# The modules whose exact geometry a subcommand reaches: Figure.volume and
# figure_perimeter, and counterexample's coverage sum.
FRACTION_MODULES = {"dyadic.py", "experiment.py"}


def test_src_is_float64_only():
    # No second arithmetic mode: no dtype compared with object, no is_exact, no
    # exact= option, nothing of the exact scalars, and Fraction only for geometry.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(x, ast.Name) and x.id == "object" for x in operands) and any(
                    "dtype" in ast.unparse(x) for x in operands
                ):
                    found.append(f"{where} compares a dtype with object")
            elif isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                if name == "is_exact":
                    found.append(f"{where} names is_exact")
            elif isinstance(node, ast.arg) and node.arg == "exact":
                found.append(f"{where} takes a parameter exact")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [
                    node.module or ""
                ]
                names = {a.name for a in node.names}
                if any(m.rpartition(".")[2] == "exact" for m in modules) or names & {
                    "exact", "Rad2", "pow2_half"
                }:
                    found.append(f"{where} imports the exact scalars")
                if "fractions" in modules and path.name not in FRACTION_MODULES:
                    found.append(f"{where} imports fractions")
    assert found == []
