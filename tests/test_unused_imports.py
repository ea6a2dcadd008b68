"""Static guard: every import in the package is used.

An import that nothing reads costs start-up time and hides which modules
really depend on which.  The scan walks each module's AST: an import at
module level must be read somewhere in the module, an import inside a
function somewhere in that function.  A name counts as read when it appears
as a bare name (the root of an attribute chain is one) or as a string
forward reference such as `-> "Foo"`."""
import ast
from pathlib import Path

import hurwitzlab

PACKAGE_DIR = Path(hurwitzlab.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_read(scope) -> set:
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def _own_imports(scope) -> list:
    """Import statements of `scope`, not of the functions nested in it."""
    out = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append(node)
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return out


def unused_imports(source: str, filename: str) -> list:
    """(line, name) for each imported name that its scope never reads."""
    tree = ast.parse(source, filename)
    hits = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]:
        imports = [imp for imp in _own_imports(scope)
                   if not (isinstance(imp, ast.ImportFrom)
                           and imp.module == "__future__")]
        if not imports:
            continue
        read = _names_read(scope)
        for imp in imports:
            for alias in imp.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    hits.append((imp.lineno, name))
    return sorted(hits)


def test_scan_finds_unused_imports():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from math import gcd as g\n"
           "def f(a) -> 'Path':\n"
           "    from pathlib import Path\n"
           "    import json\n"
           "    return os.sep + a\n"
           "def h():\n"
           "    return json\n")
    assert unused_imports(src, "<case>") == [(2, "sys"), (3, "g"), (6, "json")]


def test_no_unused_imports_in_package():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    hits = [f"{path.stem}:{line}: {name}" for path in modules
            for line, name in unused_imports(path.read_text(), str(path))]
    assert hits == []
