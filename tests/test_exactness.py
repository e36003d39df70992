"""Exactness as a checked property: the package computes over ints and
Fractions only.

An AST scan of every module of the package flags three kinds of site: a
float (or complex) constant, a read of the name ``float``, and a true
division (``/`` or ``/=``), which turns two ints into a float.  The only
sites allowed are the Fraction divisions of ``_linalg`` and the
wall-clock ``elapsed_ms`` that ``verify_case`` reports; everything else
fails, so a float cannot enter a route unnoticed.
"""

import ast
from collections import Counter
from pathlib import Path

import cliffcent

PACKAGE_DIR = Path(cliffcent.__file__).parent

# (module, enclosing definitions, kind of site) -> how many such sites
ALLOWED = Counter({
    # Gaussian elimination divides Fractions only (see _linalg's docstring)
    ("_linalg.py", "_reduce_row", "true division"): 1,
    ("_linalg.py", "row_reduce", "true division"): 1,
    ("_linalg.py", "nullspace", "true division"): 1,
    # VerifyReport.elapsed_ms: float = 0.0, timing and not a result
    ("centralizers.py", "VerifyReport", "float name"): 1,
    ("centralizers.py", "VerifyReport", "float constant"): 1,
    # (time.perf_counter() - started) * 1000.0
    ("centralizers.py", "verify_case", "float constant"): 1,
})


def inexact_sites(source: str):
    """(enclosing definitions, kind, line) for each float constant, read of
    ``float`` and true division in the source; definitions are dotted from
    the outermost, "" at module level."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((scope, "float constant", node.lineno))
        elif (isinstance(node, ast.Name) and node.id == "float"
              and isinstance(node.ctx, ast.Load)):
            sites.append((scope, "float name", node.lineno))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            sites.append((scope, "true division", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


def test_detects_each_kind_of_site():
    source = ("X = 0.5\n"
              "def f(a: float, b):\n"
              "    b /= 2\n"
              "    def g():\n"
              "        return a / b + 1j\n"
              "    return g() // 2\n"
              "class C:\n"
              "    y: int = 1\n")
    assert inexact_sites(source) == [
        ("", "float constant", 1),
        ("f", "float name", 2),
        ("f", "true division", 3),
        ("f.g", "true division", 5),
        ("f.g", "float constant", 5),
    ]


def test_package_has_only_the_allowed_inexact_sites():
    found = Counter((path.name, scope, kind)
                    for path in PACKAGE_DIR.glob("*.py")
                    for scope, kind, _ in inexact_sites(path.read_text()))
    assert found == ALLOWED
