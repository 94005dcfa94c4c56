"""Three exact maximum-flow algorithms.

* :func:`edmonds_karp` — augmenting paths, always choosing the
  lowest-index breadth-first shortest path in the residual graph, from
  the zero flow or from a given valid flow.  It finds the paths of one
  length in one phase: the reverse labelling gives each vertex its
  residual distance to t, and a walk along the arcs whose label falls by
  one, keeping a current arc per vertex, meets them in the order that
  fresh textbook searches would.  Matching and segmentation start it
  from the flow its first phase would reach, written down directly.
* :func:`push_relabel` — FIFO preflow-push with distance labels, the gap
  heuristic and a two-sided global relabel (the reverse labelling from
  t, then from s offset by n) at the start and after every n relabels.
  Its discharge loop pushes on the residual rows in place, with no call
  per push, and stops at Goldberg and Tarjan's bound on pushes and
  relabels.  It is the default solver of ``flowkit mincut``.
* :func:`hochbaum_maxflow` — the lowest-label pseudoflow algorithm on a
  normalized tree, solving the maximum blocking cut problem first and
  recovering a flow from its residual graph.  Strong roots are served
  lowest label first, each vertex resumes its merger-arc scan at its
  current arc, and after every n label increments the run stops once no
  residual arc leads from a strong to a weak vertex.

All solvers are exact over the rationals and return identical optimal
values.  Every solver works on :class:`flowkit.network.ResidualGraph` and
on its one search of each direction: the forward search from s
(``ResidualGraph.search``) and the reverse labelling
(``ResidualGraph.distances``).  Its residual capacities are ints in units
of ``1/scale`` (``scale`` is the LCM of the capacity denominators, the
network's own), and so are the quantities a solver keeps beside them:
the push-relabel and pseudoflow excesses, pseudoflow's M+ and M- and the
amounts :func:`recover_flow` reads off the residual graph and drains.  No
arc enters s or leaves t, so the rows ``r[s]`` and ``r[t]`` list the
arcs at s and t.  No graph solve builds a capacity Fraction.  The flow
comes back as those ints, ``MaxflowResult.scaled``.  Fractions come back
only in ``MaxflowResult.value`` and ``stats["value"]``, in the
``NormalizedTree`` that instrumented runs return, and in
``MaxflowResult.flow``, the certified ints as per-arc Fractions, built
when it is first read.  Nothing in flowkit reads that view; it is kept
for the span tracer in `perfbench/`.

Every solver ends in one certificate, read off its final residual graph
in a single scaled-int pass over the arcs.  ``MaxflowResult.cut`` is the
source side reached by the forward search from the source, which the
certificate runs itself on the final residual: for pseudoflow, its
core's residual after :func:`recover_flow` drains it in place and, when
it solved the reversed network, after it is re-read on the one given.
The pass checks 0 <= f <= c on every arc, conservation off s and t, s
inside and t outside the cut, and that the value |f| equals the cut
capacity (for pseudoflow, the only check of the recovered flow); this
proves the flow maximal and the cut minimal, and is the same source side
:func:`flowkit.decompose.min_cut_from_flow` finds.  A failed check raises
:class:`InvariantViolation` with the invariant ``"certificate"``.
Instrumented mode also re-checks the per-step invariants (valid
preflow/labeling, normalized-tree conditions, pseudoflow labels) on the
ints of the residual graph it is checking, and is meant for tests; a
broken invariant raises :class:`InvariantViolation`, also under ``-O``.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .decompose import recover_flow
from .network import (
    Cut,
    FlowAssignment,
    InvariantViolation,
    Network,
    NetworkError,
    ResidualGraph,
    ScaledFlow,
    build_network,
    validate,
)
from .values import exact

ROOT = 0  # parent sentinel: branch hangs directly off the contracted root


@dataclass
class MaxflowResult:
    scaled: ScaledFlow        # the certified flow, as ints over the residual's scale
    value: Fraction
    cut: Cut                  # minimum cut: the source side reached in the final residual
    stats: dict
    debug: dict | None        # what an instrumented run leaves for its checks, else None

    @functools.cached_property
    def flow(self):
        """`scaled` as a :class:`FlowAssignment` of per-arc Fractions, built
        on first read, for the span tracer in `perfbench/`; flowkit reads
        `scaled`."""
        scale = self.scaled.scale
        return FlowAssignment({a: Fraction(x, scale) for a, x in self.scaled.pairs})


def _certified(net, res, stats):
    """The flow, value and minimum cut of a final residual graph, checked.

    The cut's source side, `reached`, is what the residual search from s
    reaches.  One pass over the arcs, in units of ``1/res.scale``: f =
    c - r(u, v) lies in [0, c], the excess is zero off s and t, s is in
    and t is out of `reached`, and the outflow of s equals the capacity of
    the arcs leaving `reached`.  The flow stays ints, a
    :class:`ScaledFlow`.  Sets ``stats["value"]``; raises
    :class:`InvariantViolation` ("certificate") listing every failed check.
    """
    s, t, scale, r = net.source, net.sink, res.scale, res.r
    _, reached = res.search(s, t)
    side = frozenset(reached)
    excess = dict.fromkeys(net.vertices(), 0)
    pairs = []
    capacity = 0
    bad = []
    for (u, v), c in zip(net.arcs, res.caps):
        x = c - r[u][v]
        if not 0 <= x <= c:
            bad.append(("capacity", (u, v)))
        if x:
            pairs.append(((u, v), x))
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
    return MaxflowResult(ScaledFlow(tuple(pairs), scale), value, Cut(side), stats, None)


# -- shortest augmenting paths -------------------------------------------


def edmonds_karp(net, instrumented=False, flow=None):
    """Maximum flow by shortest augmenting paths; terminates on rational input.

    The run augments from `flow`, a :class:`ScaledFlow` that must be a
    valid flow on `net`, or from the zero flow when it is None.  A caller
    that knows the shortest paths of the first phase passes the flow they
    carry, and the run skips that phase (see
    :func:`flowkit.apps.perfect_matching` and
    :func:`flowkit.apps.segment_image`).  The start is not checked up
    front: :func:`_certified` checks the whole final flow, and an
    instrumented run checks the start before its first augmentation.  A
    pair that is not an arc raises :class:`~flowkit.network.InvalidFlow` at
    once, from :class:`ResidualGraph`.

    Each augmenting path is the lowest-index breadth-first path, the one a
    fresh textbook search from s finds (its rows scanned in index order),
    but the paths of one length are found in one phase (Dinic, Soviet
    Math. Dokl. 11 (1970); Ahuja & Orlin, Naval Res. Logist. 38 (1991)):

    * The reverse labelling, :meth:`ResidualGraph.distances`, labels each
      vertex v with d(v), its residual distance to t, and stops once the
      layer that holds s is complete; the run ends when it does not reach
      s.
    * A walk starts at s and follows only admissible arcs, residual arcs
      (u, w) with d(w) = d(u) - 1.  It scans each row in index order from
      the vertex's current arc, which only moves forward in a phase.
    * When the walk reaches t it augments along itself and is cut back to
      the tail of the first arc the augmentation saturated.
    * A vertex whose row has no admissible arc left is dead: its label is
      cleared, so no arc into it is admissible for the rest of the phase,
      and the walk steps back.  The phase ends when s dies.

    These are Edmonds-Karp's paths, in its order:

    * Compare paths as vertex sequences.  The lowest-index search reaches
      the vertices at distance k from s in the order of their least
      shortest paths, and its path to each is that least one: row s
      reaches distance 1 in index order, and a vertex w at distance k + 1
      is reached first from the earliest reached u at distance k with an
      arc into w, whose least path followed by w is the least path to w.
      So the search returns the least shortest s-t path.
    * An augmentation along admissible arcs adds residual room only on
      their reverses, which climb one label.  So in a phase the labels
      stay valid, d(u) <= d(w) + 1 on every residual arc (u, w): every s-t
      path has at least d(s) arcs, and one with d(s) arcs falls one label
      at each.  The shortest paths, while some has d(s) arcs, are
      therefore exactly the admissible s-t paths, and no arc or dead
      vertex that the walk passed over becomes admissible again.
    * The walk is a depth-first search of the admissible arcs, which
      form an acyclic graph as labels fall along them; it tries each row
      in index order, so it meets the least admissible s-t path first.
      Its state after a cut is one that a fresh walk on the new residual
      passes through: the entries behind each current arc are still not
      admissible, and the kept walk is still admissible, as none of its
      arcs was saturated.  So each path is the least shortest one, and
      the next phase starts when none with d(s) arcs is left.

    Work budget.  The paths are shortest, so each of the 2m residual arcs
    is the bottleneck of at most n/2 of them (Edmonds & Karp, J. ACM 19
    (1972)), and every augmentation saturates one: at most n * m
    augmentations.  The argument needs only that residual distances never
    fall, which holds from any feasible start, so the budget holds from
    any `flow`.  Within a phase, each vertex dies at most once, and each
    augmentation cuts at most n vertices off the walk.  Every vertex the
    walk advances to leaves it in one of these two ways before the phase
    ends, so a phase with k augmentations makes at most n * (k + 1)
    advances.  A scan passes over entries of its row, at most 2m in the
    phase as current arcs only move forward, and ends in one advance or
    one death: at most 2m + n * (k + 2) steps in all.  The labels are
    exact up to d(s), so the least shortest path is admissible and each
    phase augments at least once: at most n * m + 1 phases.  One more
    augmentation, one more step in a phase, or a phase with no
    augmentation raises :class:`InvariantViolation` ("work budget")
    instead of looping on.  The certificate's search from s gives the cut.
    """
    if instrumented and flow is not None:
        bad = validate(net, flow, "flow")
        if bad:
            raise InvariantViolation("flow", "start", bad)
    res = ResidualGraph(net, flow)
    r, adj = res.r, res.adj
    n, s, t = net.n, net.source, net.sink
    augmentations, budget = 0, n * net.m
    while True:
        d = [-1] * (n + 1)          # -1: unlabelled, or dead in this phase
        d[t] = 0
        res.distances(d, t, stop=s)
        if d[s] < 0:
            break
        current = [0] * (n + 1)
        walk = [s]
        steps, limit, first = 0, 2 * net.m + 2 * n, augmentations
        while walk:
            u = walk[-1]
            if u == t:
                if augmentations == budget:
                    raise InvariantViolation("work budget", f"augmentation {budget + 1}",
                                             [f"more than n * m = {budget} augmenting paths"])
                _, i = res.augment(walk)
                del walk[i + 1:]
                augmentations += 1
                limit += n
                if instrumented:
                    bad = validate(net, res.flow(), "flow")
                    if bad:
                        raise InvariantViolation("flow", f"augmentation {augmentations}", bad)
                continue
            row, ru, below = adj[u], r[u], d[u] - 1
            i = start = current[u]
            end = len(row)
            while i < end:
                w = row[i]
                if d[w] == below and ru[w] > 0:
                    break
                i += 1
            current[u] = i
            steps += i - start + 1
            if steps > limit:
                raise InvariantViolation("work budget", f"augmentation {augmentations + 1}",
                                         [f"more than {limit} walk steps in a phase, "
                                          "2m + n(k + 2) for its k augmentations"])
            if i < end:
                walk.append(w)
            else:
                d[u] = -1           # dead for the rest of the phase
                walk.pop()
        if augmentations == first:
            raise InvariantViolation("work budget", f"augmentation {first + 1}",
                                     ["a phase found no augmenting path"])
    return _certified(net, res, {"augmentations": augmentations})


# -- FIFO preflow-push ----------------------------------------------------


def labeling_violations(res, labels):
    """Distance labels d(v), a list indexed by vertex, are valid for the
    residual graph `res` when d(s)=n, d(t)=0, no label is negative and
    every residual arc (u, v) satisfies d(u) <= d(v) + 1."""
    net = res.net
    bad = []
    if labels[net.source] != net.n:
        bad.append(("source_label", net.source))
    if labels[net.sink] != 0:
        bad.append(("sink_label", net.sink))
    bad.extend(("label_range", v) for v in net.vertices() if labels[v] < 0)
    for u in net.vertices():
        for v in res.out_neighbors(u):
            if labels[u] > labels[v] + 1:
                bad.append(("residual_edge", (u, v)))
    return bad


def push_relabel(net, instrumented=False):
    """Maximum flow by FIFO push-relabel with the gap and global-relabel
    heuristics (Cherkassky & Goldberg, Algorithmica 19 (1997)).

    Starts from the preflow saturating every source arc.  A vertex is
    active when it has strictly positive excess and is neither the source
    nor the sink; active vertices are discharged in FIFO order, pushing
    along arcs with d(v) = d(w) + 1 and relabeling to one more than the
    lowest residual neighbour when none is left.  A global relabel, at the
    start and after every n relabels, sets each label to the residual
    distance to t, or n plus the distance to s for a vertex that cannot
    reach t (2n for a vertex that reaches neither; it holds no excess):
    :meth:`ResidualGraph.distances` from t with s labelled n, then from s.
    When a relabel empties a label k < n, no vertex labeled between k and
    n can reach t any more, and the gap heuristic lifts them all to n + 1.

    A push of delta = min(e(v), r(v, w)) is done in place on the residual
    rows, ``row[w] = x - delta`` and ``r[w][v] += delta``, and the excess
    of the vertex being discharged stays in a local until its discharge
    ends.  Pushes and relabels come in the order that a
    :meth:`ResidualGraph.push` call per push would give.

    Work budget: more than 2n^2 + 2nm + 4n^2m pushes and relabels raise
    :class:`InvariantViolation` ("work budget").  The labeling stays valid
    (d(u) <= d(w) + 1 on every residual arc): a relabel sets the least
    label that keeps it so, the global relabel sets exact residual
    distances, and the gap heuristic lifts only vertices that no longer
    reach t.  None of the three lowers a label: under a valid labeling a
    label is at most the residual distance, and an active vertex has no
    admissible arc when relabeled.  An active vertex has a residual path
    to s, so its label is at most d(s) + n - 1 = 2n - 1.  Hence, as for
    the generic algorithm (Goldberg & Tarjan, J. ACM 35 (1988)):

    * a relabel raises the label of an active vertex by at least 1, so
      each of the n - 2 inner vertices is relabeled fewer than 2n times:
      fewer than 2n^2 relabels;
    * between two saturating pushes along a residual arc (v, w), d(v)
      rises by at least 2 and stays in [1, 2n - 1]: at most n such pushes
      on each of the 2m residual arcs, 2nm in all;
    * Phi, the sum of the labels of the active vertices, gets from its
      start and from all label rises together at most 2n - 1 per vertex
      that ever holds excess, as labels never fall, and at most 2m
      vertices do (each lies on an arc).  Each saturating push adds at
      most 2n - 2 and each non-saturating one removes at least 1, so
      there are at most 2m(2n - 1) + 2nm(2n - 2) <= 4n^2m non-saturating
      pushes.

    Working code never reaches the budget; a broken variant stops there
    instead of looping on.  The check runs once per scan of the vertex's
    row, that is, once per discharge and once per relabel.
    """
    n, s, t = net.n, net.source, net.sink
    res = ResidualGraph(net)
    r = res.r
    excess = dict.fromkeys(net.vertices(), 0)
    for v, c in r[s].items():
        res.push(s, v, c)
        excess[v] += c
        excess[s] -= c
    d = [-1] * (n + 1)                   # d[v]: the label of vertex v
    layers = [set() for _ in range(n)]   # layers[k]: the vertices labeled k < n
    high = 0                             # no layer above `high` and below n is occupied

    def global_relabel():
        nonlocal high
        d[:] = [-1] * (n + 1)
        d[t], d[s] = 0, n
        res.distances(d, t)
        res.distances(d, s)
        for layer in layers:
            layer.clear()
        for v in net.vertices():
            if d[v] < 0:
                d[v] = 2 * n
            elif d[v] < n:
                layers[d[v]].add(v)
        high = max(k for k in d if k < n)

    def relabel(v):
        nonlocal high
        old = d[v]
        low = 2 * n
        for w, x in r[v].items():
            if x > 0 and d[w] < low:
                low = d[w]
        d[v] = new = low + 1
        if new < n:
            layers[new].add(v)
            high = max(high, new)
        if old < n:
            layers[old].discard(v)
            if not layers[old]:
                for k in range(old + 1, high + 1):
                    for w in layers[k]:
                        d[w] = n + 1
                    layers[k].clear()
                high = old - 1

    global_relabel()
    queue = deque(v for v in sorted(net.vertices())
                  if v not in (s, t) and excess[v] > 0)
    queued = set(queue)
    pushes = relabels = 0
    budget = 2 * n * n + 2 * n * net.m + 4 * n * n * net.m

    def checkpoint():
        bad = validate(net, res.flow(), "preflow") + labeling_violations(res, d)
        if bad:
            raise InvariantViolation("preflow+labeling",
                                     f"operation {pushes + relabels}", bad)

    while queue:
        v = queue.popleft()
        queued.discard(v)
        row = r[v]
        ev = excess[v]
        while True:
            if pushes + relabels > budget:
                raise InvariantViolation("work budget", f"operation {pushes + relabels}",
                                         [f"more than 2n^2 + 2nm + 4n^2m = {budget} "
                                          "pushes and relabels"])
            below = d[v] - 1
            for w, x in row.items():
                if x > 0 and d[w] == below:
                    delta = ev if ev < x else x
                    row[w] = x - delta
                    r[w][v] += delta
                    ev -= delta
                    excess[w] += delta
                    pushes += 1
                    if instrumented:
                        checkpoint()
                    if w != s and w != t and w not in queued:
                        queue.append(w)
                        queued.add(w)
                    if not ev:
                        break
            if not ev:
                break
            relabel(v)
            relabels += 1
            if relabels % n == 0:
                global_relabel()
            if instrumented:
                checkpoint()
        excess[v] = 0

    result = _certified(net, res, {"pushes": pushes, "relabels": relabels})
    if instrumented:
        result.debug = {"labels": list(d)}
    return result


# -- pseudoflow on a normalized tree --------------------------------------


class WeightedGraph:
    """Simple directed graph with signed vertex weights and arc capacities;
    the input of the maximum blocking cut problem.  `arcs` maps each arc
    (u, v) to its capacity, or lists ((u, v), capacity) pairs; a repeated
    or antiparallel arc raises :class:`NetworkError`."""

    __slots__ = ("n", "weights", "arcs")

    def __init__(self, n, weights, arcs):
        self.n = n
        self.weights = {v: exact(weights.get(v, 0)) for v in range(1, n + 1)}
        self.arcs = {}
        for (u, v), c in arcs.items() if hasattr(arcs, "items") else arcs:
            if not (1 <= u <= n) or not (1 <= v <= n) or u == v:
                raise NetworkError(f"bad arc ({u}, {v})")
            if (u, v) in self.arcs:
                raise NetworkError(f"repeated arc ({u}, {v})")
            if (v, u) in self.arcs:
                raise NetworkError(f"antiparallel pair ({v},{u})/({u},{v}) not supported")
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
    into the root, ROOT), with excess carried only by branch roots."""

    parent: dict              # internal vertex -> parent (ROOT = child of the root)
    excess: dict

    def strong_vertices(self):
        """The branches of the roots with positive excess, in one pass down."""
        children = {}
        for v, p in self.parent.items():
            children.setdefault(p, []).append(v)
        strong = [v for v in children.get(ROOT, ()) if self.excess[v] > 0]
        for v in strong:
            strong.extend(children.get(v, ()))
        return sorted(strong)


def normalized_tree_violations(res, tree):
    """Check the four normalized-tree conditions for the pseudoflow of the
    residual graph `res`, whose flow on an arc is the int c - r."""
    net, r = res.net, res.r
    s, t = net.source, net.sink
    pseudoflow = res.flow()
    bad = [("pseudoflow", v.kind, v.where) for v in validate(net, pseudoflow, "pseudoflow")]
    bad.extend(("source_arc_not_saturated", (s, v)) for v, x in r[s].items() if x)
    bad.extend(("sink_arc_not_saturated", (v, t)) for v in r[t] if r[v][t])
    tree_edges = {(v, p) for v, p in tree.parent.items() if p != ROOT}
    tree_edges |= {(p, v) for (v, p) in tree_edges}
    for (u, v), c in zip(net.arcs, res.caps):
        if u in (s, t) or v in (s, t) or (u, v) in tree_edges:
            continue
        if r[u][v] != 0 and r[u][v] != c:  # the flow c - r is neither c nor 0
            bad.append(("nontree_arc_partial", (u, v)))
    for v, p in tree.parent.items():
        if p != ROOT and r[p].get(v, 0) <= 0:
            bad.append(("downward_residual", (p, v)))
    excess = dict.fromkeys(net.vertices(), 0)
    for (u, v), x in pseudoflow.pairs:
        excess[u] -= x
        excess[v] += x
    for v, p in tree.parent.items():
        if p != ROOT and excess[v] != 0:
            bad.append(("interior_excess", v))
        if p == ROOT and Fraction(excess[v], res.scale) != tree.excess[v]:
            bad.append(("root_excess_mismatch", v))
    return bad


def pseudoflow_labeling_violations(res, tree, labels):
    """The labels of the lowest-label pseudoflow are valid for its residual
    graph `res` when every residual arc (u, w) between internal vertices,
    in particular every one leaving a strong u, has l(u) <= l(w) + 1, and
    labels never decrease from a parent to its child."""
    bad = []
    for u in tree.parent:
        for w in res.out_neighbors(u):
            if w in tree.parent and labels[u] > labels[w] + 1:
                bad.append(("residual_edge", (u, w)))
    for v, p in tree.parent.items():
        if p != ROOT and labels[p] > labels[v]:
            bad.append(("branch_order", (p, v)))
    return bad


def _pseudoflow_core(net, instrumented=False):
    """The lowest-label pseudoflow algorithm (Hochbaum, Operations Research
    56 (2008)): merge strong branches into weak ones until no residual arc
    runs from a strong to a weak vertex.

    Labels start at 1 on strong and 0 on weak vertices; they never
    decrease, never decrease from a parent to its child, and l(u) <=
    l(w) + 1 on every residual arc between internal vertices.  Strong roots
    wait in a heap keyed by (label, vertex).  The lowest, x at label l,
    searches its l-part (x and its descendants of label l reached through
    children of label l) for a merger arc to a vertex of label l - 1,
    which is weak because no strong vertex is labeled below l; each vertex
    resumes the scan of its row at its current arc.  With no such arc, the
    part is raised to l + 1.  After every n label increments the run stops
    when no residual arc runs from a strong to a weak vertex, the
    optimality condition: strong branches on the source side of the
    minimum cut find no merger arc and would otherwise climb forever.

    Returns a function that builds the current tree, the residual graph
    of its pseudoflow, the stats (``iterations`` mergers, ``relabels``
    vertex label increments) and, when instrumented, the initial tree and
    the final labels.
    """
    s, t = net.source, net.sink
    internal = sorted(v for v in net.vertices() if v not in (s, t))
    res = ResidualGraph(net)
    r = res.r
    excess = dict.fromkeys(internal, 0)
    for v, c in r[s].items():
        res.push(s, v, c)
        if v != t:
            excess[v] += c
    for v in r[t]:
        if v != s:  # a direct (s, t) arc is already saturated
            c = r[v][t]
            res.push(v, t, c)
            excess[v] -= c
    parent = {v: ROOT for v in internal}
    children = {v: set() for v in internal}
    label = {v: int(excess[v] > 0) for v in internal}
    label[s] = label[t] = -2  # never l - 1: no merger arc ends at s or t
    adj = res.adj
    current = dict.fromkeys(internal, 0)
    heap = [(1, v) for v in internal if excess[v] > 0]
    iterations = relabels = raises = 0
    next_check = net.n

    def snapshot():
        return NormalizedTree(dict(parent),
                              {v: Fraction(x, res.scale) for v, x in excess.items()})

    def checkpoint(step):
        tree = snapshot()
        bad = normalized_tree_violations(res, tree)
        if bad:
            raise InvariantViolation("normalized tree", step, bad)
        bad = pseudoflow_labeling_violations(res, tree, label)
        if bad:
            raise InvariantViolation("pseudoflow labels", step, bad)

    def merger_arc_left():
        strong = [v for v in internal if parent[v] == ROOT and excess[v] > 0]
        for u in strong:
            strong.extend(children[u])
        strong = set(strong)
        return any(x > 0 and w in parent and w not in strong
                   for u in strong for w, x in r[u].items())

    debug = {"initial_tree": snapshot()} if instrumented else {}

    while heap:
        lab, x = heapq.heappop(heap)
        if parent[x] != ROOT or excess[x] <= 0 or label[x] != lab:
            continue  # stale: merged, drained or raised since it was queued
        below = lab - 1
        merger = None
        part = [x]
        for v in part:
            row, rv = adj[v], r[v]
            i = current[v]
            while i < len(row):
                w = row[i]
                if rv[w] > 0 and label[w] == below:
                    merger = (v, w)
                    break
                i += 1
            current[v] = i
            if merger:
                break
            part.extend(c for c in children[v] if label[c] == lab)

        if merger is None:
            for v in part:
                label[v] = lab + 1
                current[v] = 0
            relabels += len(part)
            raises += 1
            heapq.heappush(heap, (lab + 1, x))
            if instrumented:
                checkpoint(f"raise {raises}")
            if relabels >= next_check:
                next_check = relabels + net.n
                if not merger_arc_left():
                    break
            continue

        iterations += 1
        a, b = merger
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
        delta = excess[x]
        excess[x] = 0
        path = [x]
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
                heapq.heappush(heap, (label[u], u))
                if room > 0:
                    res.push(u, u2, room)
                delta = room
            else:
                res.push(u, u2, delta)
            i += 1
        if delta > 0:
            root = path[-1]
            excess[root] += delta
            if excess[root] > 0:
                heapq.heappush(heap, (label[root], root))
        if instrumented:
            checkpoint(f"iteration {iterations}")

    if instrumented:
        debug["labels"] = {v: label[v] for v in internal}
    return snapshot, res, {"iterations": iterations, "relabels": relabels}, debug


def max_blocking_cut(g):
    """Maximum surplus set of a weighted graph via the pseudoflow iteration:
    the strong vertices of its final normalized tree, as a frozenset."""
    snapshot, _, _, _ = _pseudoflow_core(build_gst(g))
    return frozenset(snapshot().strong_vertices())


def _reverse_network(net):
    """The network with every arc reversed, in the same arc order and
    with the same ints, scale and gadget vertices."""
    return Network(net.n, net.sink, net.source, [(v, u) for (u, v) in net.arcs],
                   net.ints, net.scale, net.gadget_vertices)


def hochbaum_maxflow(net, instrumented=False):
    """Maximum flow via the pseudoflow algorithm.

    Runs on the reversed network when the total sink-arc capacity is the
    smaller side, so the iteration count is governed by min(M+, M-); both
    totals are sums of the network's ints.
    """
    s, t = net.source, net.sink
    m_plus = sum(c for (u, _), c in zip(net.arcs, net.ints) if u == s)
    m_minus = sum(c for (_, v), c in zip(net.arcs, net.ints) if v == t)
    reverse = m_minus < m_plus
    work = _reverse_network(net) if reverse else net
    snapshot, res, stats, debug = _pseudoflow_core(work, instrumented=instrumented)
    if instrumented:
        debug.update(final_tree=snapshot(), reversed=reverse, pseudoflow=res.flow())
    recover_flow(res)
    if reverse:
        res.reverse(net)
    result = _certified(net, res, stats)
    if instrumented:
        result.debug = debug
    return result


ALGORITHMS = {
    "ek": edmonds_karp,
    "pr": push_relabel,
    "hoch": hochbaum_maxflow,
}
