"""No module of the package keeps a module-level import it does not use.

A stdlib stand-in for a linter's F401 check: an import statement at the top
level of a module binds names, and each of them must be read somewhere in
that module.  A statement whose first line carries ``# noqa: F401`` is a
deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import flowkit

MODULES = sorted(Path(flowkit.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each name a module-level import binds and the module
    never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from fractions import Fraction\nimport math  # noqa: F401\nimport os.path\nos.sep\n"
    assert unused_imports(source) == [(1, "Fraction")]


def test_no_unused_module_level_import():
    found = {path.name: unused_imports(path.read_text()) for path in MODULES}
    assert found
    assert {name: bad for name, bad in found.items() if bad} == {}
