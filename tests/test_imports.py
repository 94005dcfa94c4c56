"""Every module-level name of the package is used, or says why not.

Imports, a stdlib stand-in for a linter's F401 check: each name that a
top-level import binds must be read in its module, unless the statement's
first line carries ``# noqa: F401`` (a deliberate re-export).

Definitions: a top-level def or class must be read by name in another
top-level statement of the package (a read in its own body does not
count) or in `perfbench/` (also as a string, as the tracer looks
functions up by name), be re-exported by ``flowkit/__init__.py``, or have
its paper identity in :data:`PAPER_IDENTITIES`, whose entries must all be
needed.
"""

import ast
from pathlib import Path

import flowkit

MODULES = sorted(Path(flowkit.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PAPER_IDENTITIES = {
    "lp.cut_from_dual": "duality through cuts: a 0/1 dual point gives a cut",
    "lp.dual_from_cut": "duality through cuts: a cut gives a dual point of its capacity",
    "lp.dual_objective": "duality through cuts: the dual objective of a cut's point",
    "lp.dual_point": "duality through cuts: a dual optimum read as potentials",
    "simplicial.hcut_from_graph_cut": "graphs as 1-complexes: a cut is a face partition",
    "simplicial.hdual_violations": "dual feasibility of an hcut's point; waits on item 2",
    "simplicial.is_leaf": "trees give TU: the leaf of a simplicial tree",
    "simplicial.network_as_hnetwork": "graphs as 1-complexes: the network as a complex",
    "simplicial.probe_instances": "re-reads a probe report's instances; waits on item 1",
    "simplicial.tu_certificate_via_tree": "trees give TU: a tree left by disjoint facets",
    "solvers.WeightedGraph": "the blocking cut: the input of max_blocking_cut",
}


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


def _reads(node, strings=False):
    """Names and attributes read in `node`; with `strings`, string constants too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unread_definitions(modules, others, reexported):
    """"module.name" of each top-level def or class of `modules` ({module:
    source}) that no other statement there reads, that no source of
    `others` reads or names in a string, and that `reexported` lacks."""
    statements = [(m, node) for m, source in modules.items() for node in ast.parse(source).body]
    reads = [(node, _reads(node)) for _, node in statements]
    outside = set(reexported).union(*(_reads(ast.parse(source), True) for source in others))
    return [f"{m}.{node.name}" for m, node in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in outside
            and not any(node.name in names for other, names in reads if other is not node)]


def test_the_check_sees_an_unread_definition():
    modules = {"a": "def used(): pass\ndef unused(): pass\ndef recursive(): return recursive()\n"
                    "class Named: pass\ndef exported(): pass\nused()\n",
               "b": "import a\ndef helper(): return a.Named\ndef traced(): return helper()\n"}
    assert unread_definitions(modules, ['TRACED = ("traced",)\n'], {"exported"}) == [
        "a.unused", "a.recursive"]


def test_every_definition_is_read_or_names_its_paper_identity():
    modules = {path.stem: path.read_text() for path in MODULES}
    init = ast.parse(modules.pop("__init__"))
    reexported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
    others = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert len(modules) > 5 and others and reexported
    assert sorted(unread_definitions(modules, others, reexported)) == sorted(PAPER_IDENTITIES)
