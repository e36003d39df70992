"""Every module uses each name it imports (a stdlib stand-in for a linter).

The package, the tests and the benchmark harness under ``perfbench/`` are
scanned; the scan only reads them.  ``__init__.py`` is skipped because its
imports are the package's exports, and ``__future__`` imports are
directives, not names.
"""

import ast
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
