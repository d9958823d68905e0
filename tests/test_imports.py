"""Every name a kronkit module imports is used in that module, every public
name a module defines has a reader, every defaulted parameter of a public
function has a caller that sets it, every function the C kernel exports is
an entry that ``src/`` calls, and no module but ``cli.py`` writes a JSON-lines
record: none has a dict display with a record key (``RECORD_KEYS``).

No linter runs on this repository, so these are the checks that a deletion
leaves no dead import behind, that no API outlives its last reader, that
no option is kept that only the tests set, and that the record format,
which ``cli`` also reads for the exit code, is written in that one module.
``tests/oracles.py`` gets the import check only.  ``__init__.py`` is left
out of all three: it imports to re-export.  Names the benchmark rebinds,
such as ``product_analysis.parse_graph6``, are used in their modules too,
so they pass the same check.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kronkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "bench").glob("*.py"))
IMPORTERS = MODULES + [ROOT / "tests" / "oracles.py"]


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


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom sys import argv, path\nprint(path)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: argv"]


# Keys that only a JSON-lines record has: a record's "instance" (or a
# summary's "instances"), a cut record's "cut", a parse error's "source".
RECORD_KEYS = {"instance", "instances", "cut", "source"}


def _record_dicts(tree: ast.Module) -> list[str]:
    return [f"line {node.lineno}: {key.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Dict) for key in node.keys
            if isinstance(key, ast.Constant) and key.value in RECORD_KEYS]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_writes_records(path):
    assert _record_dicts(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_record_dict_is_reported():
    tree = ast.parse('x = {"instance": {"graph6": "A_"}, "skip": "s"}\n'
                     'y = {"cut": [], **x}\nz = {"graph6": "A_"}\n')
    assert _record_dicts(tree) == ["line 1: instance", "line 2: cut"]


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
    assert _unread_api() == []


def _passed_arguments(trees) -> dict[str, tuple[int, set[str]]]:
    """For each called name, the most positional arguments any call passes
    before its first ``*`` unpacking, and the keywords any call names."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            positional = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional += 1
            most, keywords = passed.get(name, (0, set()))
            passed[name] = (max(most, positional),
                            keywords | {k.arg for k in node.keywords if k.arg})
    return passed


def _defaulted_parameters(qualname: str, node: ast.FunctionDef):
    """``(index among the arguments a call passes, name)`` of each parameter
    with a default; the index is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    bound = 1 if "." in qualname else 0  # a method's self
    for index, arg in enumerate(positional[first_default:], start=first_default):
        yield index - bound, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _unset_parameters() -> list[str]:
    """The defaulted parameters of public functions and methods that no call
    in ``src/`` or ``bench/`` passes."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    passed = _passed_arguments(trees.values())
    unset = []
    for path in MODULES:
        for qualname, node in _public_api(trees[path]):
            if not isinstance(node, ast.FunctionDef):
                continue
            most, keywords = passed.get(qualname.rpartition(".")[2], (0, set()))
            for index, name in _defaulted_parameters(qualname, node):
                if name not in keywords and (index is None or most <= index):
                    unset.append(f"{qualname}({name})")
    return sorted(unset)


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # A value only the tests set is a constant, not an option.
    assert _unset_parameters() == []


def test_unset_parameter_is_reported():
    tree = ast.parse("def f(a, b=1, *, c=2):\n    pass\n"
                     "class K:\n    def m(self, d=3):\n        pass\n")
    api = dict(_public_api(tree))
    assert list(_defaulted_parameters("f", api["f"])) == [(1, "b"), (None, "c")]
    assert list(_defaulted_parameters("K.m", api["K.m"])) == [(0, "d")]
    calls = ast.parse("f(0, *rest)\nf(0, 1)\nx.m(c=5)\n")
    assert _passed_arguments([calls]) == {"f": (2, set()), "m": (0, {"c"})}


def test_package_exports_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (exports,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["__all__"]]
    assert sorted(ast.literal_eval(exports)) == sorted(imported)
    assert len(set(imported)) == len(imported)


# A definition at the start of a line whose return type is not ``static``
# (nor ``BOTH_WIDTHS``, the kernel's ``static inline``): a function that
# the library exports.
_EXPORTED = re.compile(r"^(?!static\b|BOTH_WIDTHS\b)[a-z_][\w ]*[ *](\w+)\(", re.M)
# Entries only the tests call, each through a direct test of its own:
# canon_key checks the canonical form of graphs of orders 9 to 16 one
# graph at a time (through canon_new_children, an order-16 graph would take
# up to 2**15 keys), and residue_choices both branches of numpy's
# Generator.choice one draw at a time; residue_sample runs both inside
# whole trials.
_TEST_ONLY_ENTRIES = {"canon_key", "residue_choices"}


def test_kernel_exports_only_the_entries_that_src_calls():
    from kronkit import _native

    exported = {name for source in _native.SOURCES
                for name in _EXPORTED.findall(source.read_text(encoding="utf-8"))}
    assert exported == set(_native._ENTRIES)

    def callers(paths) -> set[str]:
        text = "".join(path.read_text(encoding="utf-8") for path in paths)
        return {name for name in _native._ENTRIES if re.search(rf"\b{name}\(", text)}

    called = callers(SRC.glob("*.py"))
    assert set(_native._ENTRIES) - called == _TEST_ONLY_ENTRIES
    assert _TEST_ONLY_ENTRIES <= callers((ROOT / "tests").glob("test_*.py"))


def test_exported_kernel_function_is_found():
    source = ("static inline int has(int x)\nBOTH_WIDTHS int body(int n)\n"
              "int64_t entry(uint64_t *net,\n    int **result)\n"
              "void *other(void)\nstruct cuts {\n    int count;\n};\n"
              "    return entry(net, result);\n#define WORDS(bits) ((bits) + 63)\n")
    assert _EXPORTED.findall(source) == ["entry", "other"]
