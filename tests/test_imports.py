"""Every name a kronkit module imports is used in that module.

No linter runs on this repository, so this is the check that a deletion
leaves no dead import behind.  ``__init__.py`` is left out: it imports to
re-export.  Names the benchmark rebinds, such as
``product_analysis.parse_graph6``, are used in their modules too, so they
pass the same check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kronkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
