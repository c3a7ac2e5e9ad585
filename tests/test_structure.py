"""The package's structure, read from its source: one module, `estimator`,
reads the chunk record's fields, and the library's imports have no cycle."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "mlmc_evidence"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
#: the `LevelDraws` fields a reducer reads, and the method that merges its rows
RECORD_FIELDS = {"theta_avg", "phi_sums", "log_sums"}


def record_reads(tree: ast.AST) -> list[str]:
    """`name@line` of every read of a record field and every `.merge(` call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in RECORD_FIELDS:
                found.append(f"{node.attr}@{node.lineno}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "merge":
                found.append(f"merge@{node.lineno}")
    return found


def imported_modules(tree: ast.AST) -> set[str]:
    """The package modules `tree` imports, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module and node.module.split(".")[0] == "mlmc_evidence":
                parts = (node.module or "").split(".")
                base = parts[-1] if node.level == 1 else ".".join(parts[1:])
                if base:
                    names.add(base)
                else:  # `from . import x` or `from mlmc_evidence import x`
                    names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mlmc_evidence" and len(parts) > 1:
                    names.add(parts[1])
    return names & MODULES.keys()


def test_the_package_is_read():
    assert {"estimator", "gradients", "diagnostics", "logspace"} <= MODULES.keys()
    assert record_reads(MODULES["estimator"])


@pytest.mark.parametrize("module", sorted(MODULES.keys() - {"estimator"}))
def test_only_the_estimator_reads_the_record(module):
    assert record_reads(MODULES[module]) == []


def test_estimator_imports_neither_gradients_nor_diagnostics():
    assert imported_modules(MODULES["estimator"]) & {"gradients", "diagnostics"} == set()


def test_imports_have_no_cycle():
    graph = {name: imported_modules(tree) - {name} for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(" -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
