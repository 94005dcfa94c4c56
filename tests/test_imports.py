"""Every name of the package is used, or says why not.

Imports, a stdlib stand-in for a linter's F401 check: each name that a
top-level import binds must be read in its module, unless the statement's
first line carries ``# noqa: F401`` (a deliberate re-export).

The surface: a top-level def or class must be read by name in another
top-level statement of the package (a read in its own body does not
count) or in `perfbench/` (also as a string, as the tracer looks
functions up by name), or be re-exported by ``flowkit/__init__.py``.  A
method (dunders aside) and a dataclass or NamedTuple field must be read as
``.name`` in the package outside its own definition, or be named in
`perfbench/`.  A parameter with a default (a defaulted field is one of its
constructor's) must be passed by some call in the package or in
`perfbench/`: by keyword, or by position in a call to its function's
name, or its class's for ``__init__``.  What these rules find must give
its paper identity, or the instrumentation it serves, in
:data:`PAPER_IDENTITIES`, whose entries must all be needed.
"""

import ast
import re
from pathlib import Path

import flowkit

MODULES = sorted(Path(flowkit.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# keyed "module.name", "module.Class.member" or "module.function(param)"
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
    "solvers.WeightedGraph.surplus": "the blocking cut: what max_blocking_cut maximizes",
    "solvers.MaxflowResult.debug": "instrumentation: the labels and trees of an instrumented run",
    "simplicial.hmaxflow_augment(instrumented)": "instrumentation: per-step flow checks",
    "solvers.edmonds_karp(instrumented)": "instrumentation: per-augmentation flow checks",
    "solvers.hochbaum_maxflow(instrumented)": "instrumentation: per-step tree and label checks",
    "solvers.push_relabel(instrumented)": "instrumentation: per-push and per-relabel checks",
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


def _members(cls):
    """(name, node) of each method of a class, dunders aside, and of each
    field of a dataclass or NamedTuple."""
    record = ("dataclass" in {ast.unparse(d).split("(")[0] for d in cls.decorator_list}
              or "NamedTuple" in map(ast.unparse, cls.bases))
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not re.fullmatch("__.*__", node.name):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and record:
            yield node.target.id, node


def unread_members(modules, others):
    """"module.Class.member" of each member of a top-level class of
    `modules` that no code there reads as ``.member`` outside the member's
    own definition, and that no source of `others` reads or names in a
    string."""
    trees = {m: ast.parse(source) for m, source in modules.items()}
    reads = [sub for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]
    outside = {sub.attr if isinstance(sub, ast.Attribute) else sub.value
               for source in others for sub in ast.walk(ast.parse(source))
               if isinstance(sub, ast.Attribute)
               or isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    return [f"{m}.{cls.name}.{name}" for m, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for name, node in _members(cls)
            if name not in outside
            and all(read.attr != name or read in set(ast.walk(node)) for read in reads)]


def test_the_check_sees_an_unread_member():
    modules = {"a": "from dataclasses import dataclass\nfrom typing import NamedTuple\n"
                    "class C:\n    def used(self): pass\n    def __repr__(self): pass\n"
                    "    def recursive(self): return self.recursive()\n"
                    "    @property\n    def shown(self): pass\n"
                    "    def traced(self): pass\n    plain: int\n"
                    "@dataclass(frozen=True)\nclass D:\n    read: int\n    unread: int = 0\n"
                    "    def _helper(self): return self.read\n"
                    "class T(NamedTuple):\n    field: int\n",
               "b": "def f(c):\n    c.used()\n    c.shown = 1\n"}
    assert unread_members(modules, ['plain = name = "traced"\nprint(recursive)\n']) == [
        "a.C.recursive", "a.C.shown", "a.D.unread", "a.D._helper", "a.T.field"]


def _defaulted(tree):
    """(key, callee, position, name) of each parameter with a default in
    `tree`: the name a call reaches it by, and its index among the
    positional arguments of such a call (None: keyword only)."""
    owner = {node: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            fields = [f for _, f in _members(node) if isinstance(f, ast.AnnAssign)]
            yield from ((f"{node.name}({f.target.id})", node.name, i, f.target.id)
                        for i, f in enumerate(fields) if f.value)
        elif isinstance(node, ast.FunctionDef):
            cls, args = owner.get(node), node.args
            callee = cls.name if cls and node.name == "__init__" else node.name
            key = f"{cls.name}.{node.name}" if cls and node.name != "__init__" else callee
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, p in enumerate(positional[first:], first - bool(cls)):  # a method's self
                yield f"{key}({p.arg})", callee, i, p.arg
            yield from ((f"{key}({p.arg})", callee, None, p.arg)
                        for p, d in zip(args.kwonlyargs, args.kw_defaults) if d)


def unpassed_options(modules, others):
    """"module.function(param)" of each parameter with a default in
    `modules` that no call in `modules` or `others` passes."""
    calls = {}
    for source in (*modules.values(), *others):
        for call in (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)):
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            calls.setdefault(callee, []).append((len(call.args), {k.arg for k in call.keywords}))
    return [f"{m}.{key}" for m, source in modules.items()
            for key, callee, position, name in _defaulted(ast.parse(source))
            if not any(name in keywords or position is not None and count > position
                       for count, keywords in calls.get(callee, ()))]


def test_the_check_sees_an_unpassed_option():
    modules = {"a": "from dataclasses import dataclass\n"
                    "def f(x, by_name=1, by_place=2, unpassed=3, *, kw=4, kw_unpassed=5):\n"
                    "    def inner(y, nested=6): pass\n    inner(1)\n"
                    "class C:\n    def __init__(self, made=7, unmade=8): pass\n"
                    "    def method(self, by_place=9): pass\n"
                    "@dataclass\nclass D:\n    plain: int\n    given: int = 0\n"
                    "    not_given: int = 0\n"
                    "f(0, 1, 2)\nC(7).method(9)\nD(1, 2)\n",
               "b": "import a\na.f(0, by_name=1)\n"}
    assert sorted(unpassed_options(modules, ["a.f(0, kw=4)\n"])) == [
        "a.C(unmade)", "a.D(not_given)", "a.f(kw_unpassed)", "a.f(unpassed)", "a.inner(nested)"]


def test_every_definition_is_read_or_names_its_paper_identity():
    modules = {path.stem: path.read_text() for path in MODULES}
    others = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    init = ast.parse(modules["__init__"])
    reexported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
    assert len(modules) > 5 and others and reexported
    found = (unread_definitions({m: s for m, s in modules.items() if m != "__init__"}, others,
                                reexported)
             + unread_members(modules, others) + unpassed_options(modules, others))
    assert sorted(found) == sorted(PAPER_IDENTITIES)
