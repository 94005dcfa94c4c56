"""Three exact maximum-flow algorithms.

* :func:`edmonds_karp` — augmenting paths, always choosing a breadth-first
  shortest path in the residual graph.
* :func:`push_relabel` — FIFO preflow-push with distance labels.
* :func:`hochbaum_maxflow` — pseudoflow iteration on a normalized tree,
  solving the maximum blocking cut problem first and recovering a flow.

All solvers are exact over the rationals and return identical optimal
values.  Every solver works on :class:`flowkit.network.ResidualGraph`,
whose residual capacities are ints in units of ``1/scale`` (``scale`` is
the LCM of the capacity denominators), and so are the quantities a solver
keeps beside it: the push-relabel and pseudoflow excesses and the amounts
:func:`recover_flow` drains.  They become Fractions again only in what a
solver returns: ``MaxflowResult.flow``, ``value`` and ``stats["value"]``,
and the ``NormalizedTree.excess`` snapshots.

Every solver ends in one certificate, read off its final residual graph
in a single scaled-int pass over the arcs.  ``MaxflowResult.cut`` is the
source side reached by a residual search from the source: Edmonds-Karp
keeps the one of its last, failed search; push-relabel searches its
final residual once; pseudoflow searches its core's residual after
:func:`recover_flow` drains it in place and, when it solved the reversed
network, after it is re-read on the one given.  The pass checks 0 <= f
<= c on every arc, conservation off s and t, s inside and t outside the
cut, and that the value |f| equals the cut capacity (for pseudoflow, the
only check of the recovered flow); this proves the flow maximal and the
cut minimal, and is the same source side
:func:`flowkit.decompose.min_cut_from_flow` finds.  A failed check raises
:class:`InvariantViolation` with the invariant ``"certificate"``.
Instrumented mode also re-checks the per-step invariants (valid
preflow/labeling, normalized-tree conditions) and is meant for tests; a
broken invariant raises :class:`InvariantViolation`, also under ``-O``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .decompose import recover_flow
from .network import (
    Cut,
    FlowAssignment,
    InvariantViolation,
    NetworkError,
    ResidualGraph,
    build_network,
    validate,
)
from .values import exact, is_unbounded

ROOT = 0  # parent sentinel: branch hangs directly off the contracted root


@dataclass
class MaxflowResult:
    flow: FlowAssignment
    value: Fraction
    cut: Cut                  # minimum cut: the source side reached in the final residual
    stats: dict
    debug: dict | None = None


def _require_finite(net):
    if any(is_unbounded(c) for c in net.capacities()):
        raise NetworkError("solver requires finite capacities")


def _certified(net, res, reached, stats):
    """The flow, value and minimum cut of a final residual graph, checked.

    One pass over the arcs, in units of ``1/res.scale``: f = c - r(u, v)
    lies in [0, c], the excess is zero off s and t, s is in and t is out
    of `reached`, and the outflow of s equals the capacity of the arcs
    leaving `reached`.  Sets ``stats["value"]``; raises
    :class:`InvariantViolation` ("certificate") listing every failed check.
    """
    s, t, scale, r = net.source, net.sink, res.scale, res.r
    side = frozenset(reached)
    excess = dict.fromkeys(net.vertices(), 0)
    values = {}
    capacity = 0
    bad = []
    for (u, v), c in zip(net.arcs, net.capacities()):
        c = c.numerator * (scale // c.denominator)
        x = c - r[u][v]
        if not 0 <= x <= c:
            bad.append(("capacity", (u, v)))
        if x:
            values[(u, v)] = Fraction(x, scale)
            excess[u] -= x
            excess[v] += x
        if u in side and v not in side:
            capacity += c
    bad.extend(("conservation", v) for v, e in excess.items() if e and v != s and v != t)
    if s not in side or t in side:
        bad.append(("cut_sides", (s, t)))
    if -excess[s] != capacity:
        bad.append(("value_is_not_cut_capacity",
                    (Fraction(-excess[s], scale), Fraction(capacity, scale))))
    if bad:
        raise InvariantViolation("certificate", "final residual", bad)
    stats["value"] = value = Fraction(capacity, scale)
    return MaxflowResult(FlowAssignment(values, "flow"), value, Cut(side), stats)


# -- shortest augmenting paths -------------------------------------------


def edmonds_karp(net, instrumented=False):
    """Maximum flow by shortest augmenting paths; terminates on rational input."""
    _require_finite(net)
    res = ResidualGraph(net)
    augmentations = 0
    while True:
        path, reached = res.search(net.source, {net.sink})
        if path is None:
            break
        res.augment(path)
        augmentations += 1
        if instrumented:
            bad = validate(net, res.flow(), "flow")
            if bad:
                raise InvariantViolation("flow", f"augmentation {augmentations}", bad)
    return _certified(net, res, reached, {"augmentations": augmentations})


# -- FIFO preflow-push ----------------------------------------------------


def labeling_violations(net, f, labels):
    """Distance labels d(v) are valid when d(s)=n, d(t)=0 and every
    residual arc (u, v) satisfies d(u) <= d(v) + 1."""
    bad = []
    if labels.get(net.source) != net.n:
        bad.append(("source_label", net.source))
    if labels.get(net.sink) != 0:
        bad.append(("sink_label", net.sink))
    for v in net.vertices():
        d = labels.get(v, math.inf)
        if d != math.inf and (d < 0 or d != int(d)):
            bad.append(("label_range", v))
    res = ResidualGraph(net, f)
    for u in net.vertices():
        for v in res.out_neighbors(u):
            if labels.get(u, math.inf) > labels.get(v, math.inf) + 1:
                bad.append(("residual_edge", (u, v)))
    return bad


def push_relabel(net, instrumented=False):
    """Maximum flow by FIFO push-relabel.

    Starts from the preflow saturating every source arc with labels
    d(s)=n, 0 elsewhere.  A vertex is active when it has strictly positive
    excess and is neither the source nor the sink; active vertices are
    discharged in FIFO order.
    """
    _require_finite(net)
    n, s, t = net.n, net.source, net.sink
    res = ResidualGraph(net)
    r = res.r
    excess = dict.fromkeys(net.vertices(), 0)
    d = dict.fromkeys(net.vertices(), 0)
    d[s] = n
    for v in net.out_neighbors(s):
        c = res.units(net.capacity(s, v))
        if c > 0:
            res.push(s, v, c)
            excess[v] += c
            excess[s] -= c
    queue = deque(v for v in sorted(net.vertices())
                  if v not in (s, t) and excess[v] > 0)
    queued = set(queue)
    pushes = relabels = 0

    def checkpoint():
        preflow = res.flow("preflow")
        bad = validate(net, preflow, "preflow") + labeling_violations(net, preflow, d)
        if bad:
            raise InvariantViolation("preflow+labeling",
                                     f"operation {pushes + relabels}", bad)

    while queue:
        v = queue.popleft()
        queued.discard(v)
        while excess[v] > 0:
            pushed = False
            for w, rv in r[v].items():
                if excess[v] == 0:
                    break
                if rv > 0 and d[v] == d[w] + 1:
                    delta = min(excess[v], rv)
                    res.push(v, w, delta)
                    excess[v] -= delta
                    excess[w] += delta
                    pushes += 1
                    pushed = True
                    if instrumented:
                        checkpoint()
                    if w not in (s, t) and w not in queued and excess[w] > 0:
                        queue.append(w)
                        queued.add(w)
            if excess[v] == 0:
                break
            if not pushed:
                d[v] = min(d[w] for w, x in r[v].items() if x > 0) + 1
                relabels += 1
                if instrumented:
                    checkpoint()

    _, reached = res.search(s, {t})
    result = _certified(net, res, reached, {"pushes": pushes, "relabels": relabels})
    if instrumented:
        result.debug = {"labels": dict(d)}
    return result


# -- pseudoflow on a normalized tree --------------------------------------


class WeightedGraph:
    """Simple directed graph with signed vertex weights and arc capacities;
    the input of the maximum blocking cut problem."""

    __slots__ = ("n", "weights", "arcs")

    def __init__(self, n, weights, arcs):
        self.n = n
        self.weights = {v: exact(weights.get(v, 0)) for v in range(1, n + 1)}
        self.arcs = {}
        for (u, v), c in dict(arcs).items():
            if not (1 <= u <= n) or not (1 <= v <= n) or u == v:
                raise NetworkError(f"bad arc ({u}, {v})")
            if (v, u) in arcs:
                raise NetworkError(f"antiparallel pair ({u},{v})/({v},{u}) not supported")
            c = exact(c)
            if c < 0:
                raise NetworkError(f"negative capacity on ({u}, {v})")
            self.arcs[(u, v)] = c

    def surplus(self, subset):
        """Total weight inside the subset minus the capacity leaving it."""
        inside = sum((self.weights[v] for v in subset), Fraction(0))
        boundary = sum((c for (a, b), c in self.arcs.items()
                        if a in subset and b not in subset), Fraction(0))
        return inside - boundary


def build_gst(g):
    """Network with fresh s, t: c(s,v)=w_v for positive weights,
    c(v,t)=-w_v for negative weights; graph arcs unchanged.

    {s} union S is a minimum-cut source side exactly when S is a maximum
    blocking cut of the weighted graph.
    """
    s, t = g.n + 1, g.n + 2
    triples = [(u, v, c) for (u, v), c in sorted(g.arcs.items())]
    for v in range(1, g.n + 1):
        w = g.weights[v]
        if w > 0:
            triples.append((s, v, w))
        elif w < 0:
            triples.append((v, t, -w))
    return build_network(g.n + 2, s, t, triples)


@dataclass(frozen=True)
class NormalizedTree:
    """Rooted spanning tree of the extended graph (source and sink merged
    into `root`), with excess carried only by branch roots."""

    root: int
    parent: dict = field(default_factory=dict)   # internal vertex -> parent (ROOT = child of root)
    excess: dict = field(default_factory=dict)

    def branch_root(self, v):
        while self.parent[v] != ROOT:
            v = self.parent[v]
        return v

    def branch_roots(self):
        return sorted(v for v, p in self.parent.items() if p == ROOT)

    def is_strong(self, v):
        return self.excess[self.branch_root(v)] > 0

    def strong_vertices(self):
        return sorted(v for v in self.parent if self.is_strong(v))

    def weak_vertices(self):
        return sorted(v for v in self.parent if not self.is_strong(v))


def normalized_tree_violations(net, f, tree):
    """Check the four normalized-tree conditions for a pseudoflow on `net`."""
    s, t = net.source, net.sink
    bad = []
    bad.extend(("pseudoflow",) + (v.kind, v.where) for v in validate(net, f, "pseudoflow"))
    for v in net.out_neighbors(s):
        if f.value(s, v) != net.capacity(s, v):
            bad.append(("source_arc_not_saturated", (s, v)))
    for v in net.in_neighbors(t):
        if f.value(v, t) != net.capacity(v, t):
            bad.append(("sink_arc_not_saturated", (v, t)))
    tree_edges = {(v, p) for v, p in tree.parent.items() if p != ROOT}
    tree_edges |= {(p, v) for (v, p) in tree_edges}
    for (u, v) in net.arcs:
        if u in (s, t) or v in (s, t) or (u, v) in tree_edges:
            continue
        x = f.value(u, v)
        if x != 0 and x != net.capacity(u, v):
            bad.append(("nontree_arc_partial", (u, v)))
    for v, p in tree.parent.items():
        if p == ROOT:
            continue
        if net.cbar(p, v) - f.value(p, v) <= 0:
            bad.append(("downward_residual", (p, v)))
    for v in tree.parent:
        if tree.parent[v] != ROOT and f.excess(v) != 0:
            bad.append(("interior_excess", v))
        if tree.parent[v] == ROOT and f.excess(v) != tree.excess[v]:
            bad.append(("root_excess_mismatch", v))
    return bad


def _pseudoflow_core(net, instrumented=False):
    """Iterate merger arcs until no residual arc runs from a strong to a
    weak vertex; returns the optimal tree, the residual graph of its
    pseudoflow, the iteration count and the initial tree."""
    s, t = net.source, net.sink
    internal = sorted(v for v in net.vertices() if v not in (s, t))
    res = ResidualGraph(net)
    r, units = res.r, res.units
    for v in net.out_neighbors(s):
        res.push(s, v, units(net.capacity(s, v)))
    for v in net.in_neighbors(t):
        if v != s:  # a direct (s, t) arc is already saturated
            res.push(v, t, units(net.capacity(v, t)))
    parent = {v: ROOT for v in internal}
    children = {v: set() for v in internal}
    excess = {v: units(net.cbar(s, v)) - units(net.cbar(v, t)) for v in internal}
    iterations = 0

    def branch_root(v):
        while parent[v] != ROOT:
            v = parent[v]
        return v

    def subtree(v):
        out = [v]
        stack = [v]
        while stack:
            u = stack.pop()
            for w in children[u]:
                out.append(w)
                stack.append(w)
        return out

    def snapshot():
        return NormalizedTree(ROOT, dict(parent),
                              {v: Fraction(x, res.scale) for v, x in excess.items()})

    initial_tree = snapshot()

    def find_merger():
        strong_roots = sorted(v for v in internal if parent[v] == ROOT and excess[v] > 0)
        if not strong_roots:
            return None
        strong = set()
        for root in strong_roots:
            strong.update(subtree(root))
        for root in strong_roots:
            for a in sorted(subtree(root)):
                for b, x in r[a].items():
                    if b in (s, t) or b in strong:
                        continue
                    if x > 0:
                        return (a, b)
        return None

    while True:
        merger = find_merger()
        if merger is None:
            break
        iterations += 1
        a, b = merger
        r_s = branch_root(a)
        # re-root the strong branch at the merger tail, then hang it under b
        chain = [a]
        while parent[chain[-1]] != ROOT:
            chain.append(parent[chain[-1]])
        for i in range(len(chain) - 1):
            u, pu = chain[i], chain[i + 1]
            children[pu].discard(u)
            parent[pu] = u
            children[u].add(pu)
        parent[a] = b
        children[b].add(a)

        # the excess travels along the unique tree path from the old strong
        # root to the weak branch root; the within-branch order is fixed by
        # that path, the only freedom the narrative leaves open
        delta = excess[r_s]
        excess[r_s] = 0
        path = [r_s]
        while parent[path[-1]] != ROOT:
            path.append(parent[path[-1]])
        i = 0
        while i < len(path) - 1 and delta > 0:
            u, u2 = path[i], path[i + 1]
            room = r[u][u2]
            if delta > room:
                # split: the tail keeps the excess that could not cross
                children[u2].discard(u)
                parent[u] = ROOT
                excess[u] = delta - room
                if room > 0:
                    res.push(u, u2, room)
                delta = room
            else:
                res.push(u, u2, delta)
            i += 1
        if delta > 0:
            excess[path[-1]] += delta
        if instrumented:
            bad = normalized_tree_violations(net, res.flow("pseudoflow"), snapshot())
            if bad:
                raise InvariantViolation("normalized tree", f"iteration {iterations}", bad)

    return snapshot(), res, iterations, initial_tree


@dataclass
class BlockingCutResult:
    subset: frozenset
    surplus: Fraction
    tree: NormalizedTree
    pseudoflow: FlowAssignment


def max_blocking_cut(g):
    """Maximum surplus set of a weighted graph via the pseudoflow iteration."""
    gst = build_gst(g)
    tree, res, iterations, _ = _pseudoflow_core(gst)
    subset = frozenset(tree.strong_vertices())
    return BlockingCutResult(subset, g.surplus(subset), tree, res.flow("pseudoflow"))


def _reverse_network(net):
    arcs = [(v, u, c) for (u, v), c in zip(net.arcs, net.capacities())]
    return build_network(net.n, net.sink, net.source, arcs)


def hochbaum_maxflow(net, instrumented=False):
    """Maximum flow via the pseudoflow algorithm.

    Runs on the reversed network when the total sink-arc capacity is the
    smaller side, so the iteration count is governed by min(M+, M-).
    """
    _require_finite(net)
    m_plus = sum((net.capacity(net.source, v) for v in net.out_neighbors(net.source)),
                 Fraction(0))
    m_minus = sum((net.capacity(v, net.sink) for v in net.in_neighbors(net.sink)),
                  Fraction(0))
    reverse = m_minus < m_plus
    work = _reverse_network(net) if reverse else net
    tree, res, iterations, initial_tree = _pseudoflow_core(work, instrumented=instrumented)
    pf = res.flow("pseudoflow") if instrumented else None
    recover_flow(res, tree)
    if reverse:
        res.reverse(net)
    _, reached = res.search(net.source, {net.sink})
    result = _certified(net, res, reached, {"iterations": iterations})
    if instrumented:
        result.debug = {"initial_tree": initial_tree, "final_tree": tree,
                        "reversed": reverse, "pseudoflow": pf}
    return result


ALGORITHMS = {
    "ek": edmonds_karp,
    "pr": push_relabel,
    "hoch": hochbaum_maxflow,
}
