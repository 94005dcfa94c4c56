"""No tuple in `src/flowkit` is built from an iterator of unknown length.

CPython 3.11 builds ``tuple(<generator>)``, and the argument tuple of a
call ``f(*<generator>)``, at a guessed length of 10 and resizes it to
its final length.  The tuple comes from the free list of length 10 and,
once freed, goes to the free list of its final length.  Free lists are
emptied only by a full collection, so code that allocates too little to
trigger one drains one list into the others, up to 2,000 tuples per
length, and the process holds that memory from pass to pass.  A list
has its exact length, so ``tuple([...])`` and ``f(*[...])`` do not
drift.

The scan flags ``tuple()`` of a generator expression, ``map``,
``filter`` or ``zip``, and a starred call argument of one of these.
"""

import ast
from pathlib import Path

import flowkit

MODULES = sorted(Path(flowkit.__file__).parent.glob("*.py"))
UNSIZED = ("map", "filter", "zip")  # iterators with no length hint


def _unsized(node):
    """A generator expression, or a call of one of UNSIZED."""
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in UNSIZED)


def drifting_tuples(source):
    """(line, text) of each call in `source` that builds a tuple from an
    iterator of unknown length."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and len(node.args) == 1 and _unsized(node.args[0])):
            found.append((node.lineno, ast.unparse(node)))
        found += [(arg.lineno, ast.unparse(arg)) for arg in node.args
                  if isinstance(arg, ast.Starred) and _unsized(arg.value)]
    return sorted(found)


def test_the_scan_sees_a_planted_drift():
    source = ("a = tuple(x for x in y)\nb = tuple(map(str, y))\nc = max(*(x for x in y))\n"
              "d = f(1, *zip(*y))\ne = tuple([x for x in y])\nf(*[x for x in y])\n"
              "g = tuple(sorted(y))\nh = lcm(*{x for x in y})\ni = zip(*y)\n"
              "j = tuple(filter(None, y))\n")
    assert drifting_tuples(source) == [
        (1, "tuple((x for x in y))"), (2, "tuple(map(str, y))"), (3, "*(x for x in y)"),
        (4, "*zip(*y)"), (10, "tuple(filter(None, y))")]


def test_no_tuple_in_src_is_built_from_an_unsized_iterator():
    found = {path.name: drifting_tuples(path.read_text()) for path in MODULES}
    assert len(found) > 5
    assert {name: bad for name, bad in found.items() if bad} == {}
