"""Every module uses each name it imports, and every private module-level
name of the package is used somewhere (a stdlib stand-in for a linter).

The package, the tests and the benchmark harness under ``perfbench/`` are
scanned for imports; the scan only reads them.  ``__init__.py`` is skipped
because its imports are the package's exports, and ``__future__`` imports
are directives, not names.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import cliffcent

PACKAGE_DIR = Path(cliffcent.__file__).parent
TESTS_DIR = Path(__file__).parent
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"
MODULES = sorted(
    path for path in [*PACKAGE_DIR.glob("*.py"), *TESTS_DIR.glob("*.py"),
                      *PERFBENCH_DIR.glob("*.py")]
    if path.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = ("import os\nimport sys\n"
              "from json import dumps, loads\nsys.exit(loads)\n")
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def read_names(tree):
    """Names read anywhere under the node, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def private_definitions(tree):
    """(name, node) for each module-level function, class or assignment
    whose name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def unreferenced_private_names(sources):
    """(module, name) for each private name read nowhere but in its own
    definition, over a {module: source} mapping."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = Counter(name for tree in trees.values() for name in read_names(tree))
    return sorted((module, name)
                  for module, tree in trees.items()
                  for name, node in private_definitions(tree)
                  if reads[name] == Counter(read_names(node))[name])


def test_detects_an_unreferenced_private_name():
    sources = {
        "a": ("_USED = 1\n_UNUSED = 2\n"
              "def _recursive():\n    return _recursive()\n"
              "class _Box:\n    pass\n"
              "def public():\n    _local = 3\n    return _local\n"),
        "b": "import a\nfrom a import _Box\nprint(a._USED, _Box)\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_UNUSED"),
                                                   ("a", "_recursive")]


def test_every_private_name_of_the_package_is_referenced():
    sources = {path.name: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert unreferenced_private_names(sources) == []
