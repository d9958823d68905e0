"""Every name a kronkit module imports is used in that module, and every
public name a module defines has a reader.

No linter runs on this repository, so these are the checks that a deletion
leaves no dead import behind and that no API outlives its last reader.
``__init__.py`` is left out of both: it imports to re-export.  Names the
benchmark rebinds, such as ``product_analysis.parse_graph6``, are used in
their modules too, so they pass the same check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kronkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "bench").glob("*.py"))

# Public names that only the tests read: oracles that the fast routes are
# checked against, and constructors that build test inputs.
TEST_ONLY_API = [
    "Graph.degrees",
    "Graph.neighbors",
    "are_isomorphic",
    "brute_force_connectivity",
    "brute_force_min_cuts",
    "build_residue_system",
    "classify_cut",
    "delete_vertex",
    "graph_from_edges",
    "validate",
    "weichsel_connected",
]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom sys import argv, path\nprint(path)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: argv"]


def _public_api(tree: ast.Module):
    """``(qualified name, definition)`` of each public top-level function and
    class, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _reads(tree: ast.AST) -> Counter:
    """Identifiers read in ``tree``: loaded names and attributes, and string
    constants, which is how the benchmark names what it rebinds.  A method
    counts as read wherever an attribute of its name is loaded."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def _unread_api() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    reads = Counter()
    for tree in trees.values():
        reads += _reads(tree)
    unread = []
    for path in MODULES:
        for qualname, node in _public_api(trees[path]):
            name = qualname.rpartition(".")[2]
            if reads[name] - _reads(node)[name] <= 0:
                unread.append(qualname)
    return sorted(unread)


def test_public_api_has_a_reader_outside_the_tests():
    assert _unread_api() == TEST_ONLY_API


def test_package_exports_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (exports,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["__all__"]]
    assert sorted(ast.literal_eval(exports)) == sorted(imported)
    assert len(set(imported)) == len(imported)
