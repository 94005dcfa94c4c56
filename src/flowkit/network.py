"""Directed flow networks with exact rational capacities.

A network is a finite simple directed graph with a source `s`, a sink `t`,
and a finite non-negative capacity on every arc.  No arc enters the
source and no arc leaves the sink.  Antiparallel arc pairs are either
rejected (strict simple mode) or subdivided through fresh intermediate
vertices, which preserves the maximum flow value.  A :class:`Network`
stores its capacities once, as ints over one scale (the LCM of their
reduced denominators), and that is their only stored form:
:func:`read_dimacs` reads capacity tokens straight to those ints, and
:func:`cut_capacity` sums them.

Input goes by columns where it can.  :func:`read_dimacs` reads a text in
the layout :func:`write_dimacs` writes with one ``split`` and converts
each column of `a` fields at once, and any other text line by line;
:func:`build_network` checks an arc list as columns and runs its per-arc
loop only when a check fails there.  Each fast path gives the network
its loop gives, or leaves the input to the loop, which raises the error
it always raised; the two docstrings prove it.

A flow, a preflow and a pseudoflow are one kind of object, a function on
the arcs, as the capacity is: a :class:`ScaledFlow`, the int x of each
arc whose value x / scale is not zero, over one scale.  The role that
:func:`validate` is given selects which constraints it must meet:

* ``flow``       capacity + conservation at every vertex except s, t
* ``preflow``    capacity + non-negative excess at every vertex except s
* ``pseudoflow`` capacity only

Every solver, flow recovery and cut extraction works on one residual state,
:class:`ResidualGraph`: the residual capacity ``r(u, v) = c(u, v) -
f(u, v)`` of every arc and ``r(v, u) = f(u, v)`` of its reverse, stored as
a Python int in units of ``1/scale``.  ``scale`` is the LCM of the
denominators of every capacity and of the starting flow's scale, fixed
once per solve, so every residual test and every push is integer
arithmetic and exact at any LCM (Python ints do not overflow).  Pushing
delta along (u, v) lowers r(u, v) and raises r(v, u) by the same amount,
which keeps ``r(u, v) + r(v, u) = c(u, v)`` on every arc.  The arc
capacities are kept in the same units beside the rows, so the flow on an
arc, and from it every excess, is the int ``c - r`` with nothing
converted back.  Without a starting flow, ``scale`` and the capacities
are the network's own ints.  Fractions appear only at the boundary: a
cut's capacity, a flow's value and the amount of a reported
:class:`Violation`, each built once from an int sum.  A flow file is written
and read as a :class:`ScaledFlow`: :func:`write_flow` takes a solver's
certified ints and the value it is given, and builds no Fraction;
:func:`read_flow`, where a flow enters from a file, is that flow's one
check, and returns its ints.

The residual capacities are stored by rows, built once per solve from
``Network.arcs``: ``r[u]`` maps each out- and in-neighbour v of u, in
increasing index order, to r(u, v).  A row is also u's adjacency list,
and the network keeps no other; as no arc enters s or leaves t, rows s
and t list the arcs out of s and into t.  The one breadth-first search
scans it in order, so every solver breaks ties by lowest index, and no
lookup builds a pair key.  The search stops at the first reached vertex
with room into the target; see :func:`_bfs`.  It gives every solver's
final cut and the paths of :mod:`flowkit.decompose`.  Edmonds-Karp finds
its paths without it, a phase at a time, by walking the same rows in the
same order (:func:`flowkit.solvers.edmonds_karp`).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .values import (
    UNBOUNDED,
    exact,
    format_ratio,
    format_value,
    lowest_terms,
    parse_ratio,
    parse_value,
    scaled,
)

ROLES = ("flow", "preflow", "pseudoflow")


class NetworkError(Exception):
    """Base class for network construction and validation failures.

    `at` locates the fault in the input when the raiser knows where it is
    (see :func:`build_network`), and is None otherwise.
    """

    def __init__(self, message, at=None):
        self.at = at
        super().__init__(message)


class InvalidVertex(NetworkError):
    pass


class DuplicateArc(NetworkError):
    pass


class SourceSinkViolation(NetworkError):
    pass


class InvalidFlow(NetworkError):
    """An operation required a valid flow and was given something else."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__(f"invalid flow: {violations[:3]}{'...' if len(violations) > 3 else ''}")


class InvariantViolation(RuntimeError):
    """An instrumented check or an internal consistency check failed.

    Names the invariant, the step at which it broke and the violations.
    Not a :class:`NetworkError`: the input was fine, the algorithm was not.
    """

    def __init__(self, invariant, step, violations):
        self.invariant = invariant
        self.step = step
        self.violations = violations
        super().__init__(f"{invariant} invariant broken at {step}: {violations}")


class ParseError(NetworkError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Violation:
    """One violated flow constraint: kind, location, offending amount (for
    "capacity", how far the arc's value lies below 0 or above its capacity;
    otherwise the excess)."""

    kind: str            # "capacity" | "conservation" | "negative_excess"
    where: tuple | int
    amount: Fraction


class Network:
    """Immutable simple directed network with source, sink and capacities.

    Vertices are the integers 1..n.  The vertex enumeration used by
    matrix-producing operations lists the source first and the sink last.

    The capacities are finite and stored once, in arc order, as `ints` in
    units of ``1/scale``, and in no other form: arc i's capacity is
    ``ints[i] / scale``, where ``scale`` is the LCM of their reduced
    denominators (1 when there are none).  The constructor takes the ints
    over any common scale and reduces them by
    :func:`~flowkit.values.lowest_terms`, which leaves that LCM; so equal
    capacities give equal ints.  The arcs are stored once, in `arcs`; a
    vertex's neighbours are the keys of its :class:`ResidualGraph` row.
    Their set, which `has_arc` reads, is the one :func:`build_network`
    checked them with, or is built on the first `has_arc`.
    `gadget_vertices` are the vertices that subdivide antiparallel pairs.

    The constructor checks nothing and trusts its two callers:
    :func:`build_network`, which checks the vertices, the arcs and the
    capacities first, and ``solvers._reverse_network``, which reverses a
    network built that way.  Build networks with :func:`build_network`.
    """

    __slots__ = ("n", "source", "sink", "arcs", "ints", "scale", "_arc_set", "gadget_vertices")

    def __init__(self, n, source, sink, arcs, ints, scale, gadget_vertices):
        self.n = n
        self.source = source
        self.sink = sink
        self.arcs = tuple(arcs)
        self.ints, self.scale = lowest_terms(ints, scale)
        self._arc_set = None  # built by `has_arc` when first asked, if not handed over
        self.gadget_vertices = frozenset(gadget_vertices)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self):
        return len(self.arcs)

    def vertices(self):
        return range(1, self.n + 1)

    def vertex_order(self):
        """Enumeration with the source first and the sink last."""
        middle = [v for v in self.vertices() if v != self.source and v != self.sink]
        return [self.source] + middle + [self.sink]

    def has_arc(self, u, v):
        if self._arc_set is None:
            self._arc_set = frozenset(self.arcs)
        return (u, v) in self._arc_set

    def _key(self):
        return (self.n, self.source, self.sink, self.arcs, self.ints, self.scale)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Network(n={self.n}, s={self.source}, t={self.sink}, m={self.m})"


def build_network(n, source, sink, arc_list, allow_antiparallel=False, scale=None):
    """Construct a network from `(u, v, capacity)` triples.

    A capacity is a finite non-negative int, Fraction or `p/q` string.
    With `scale`, every capacity is instead an int count of units
    ``1/scale``, as :func:`read_dimacs` passes them.  UNBOUNDED is refused
    in either form: it is the capacity of a flow complex's source facet
    (:mod:`flowkit.simplicial`), never of a graph arc.

    With ``allow_antiparallel=True`` every antiparallel pair (v,w),(w,v) is
    subdivided through two fresh vertices: (v,w) becomes v -> c_vw -> w and
    (w,v) becomes w -> c_wv -> v, each leg keeping the original capacity.
    The subdivision does not change the maximum flow value.

    An error about an arc carries ``at``, the index in `arc_list` of the
    arc at fault (the later arc of a repeated or antiparallel pair); an
    error about the vertex count, the source or the sink carries
    ``at = "n"``, ``"source"`` or ``"sink"``.

    The arcs are checked as columns first (:func:`_arcs_in_bulk`), and
    only a list that fails a check there goes through the per-arc loop
    (:func:`_arcs_one_by_one`), which raises its first fault.  Every bulk
    check is one the loop applies to every arc, or a stricter one:
    endpoints must be ints, and capacities ints over a given `scale`, or
    ints and Fractions without one.  On ints, ``min`` and ``max`` bound
    every endpoint as the loop's range test does, ``map(operator.eq, ...)``
    is its self-loop test, ``source in vs`` and ``sink in us`` its tests of
    the arcs into s and out of t, the size of the arc set its repeat test,
    and a reversed arc found in that set its antiparallel test; ``min`` of
    the ints is its sign test, and :func:`~flowkit.values.scaled` of the
    ints and Fractions gives the ints and scale that the loop's
    :func:`~flowkit.values.exact` and `scaled` give.  So a list the bulk
    path accepts is one the loop accepts, with the arcs, ints, scale and
    antiparallel pairs the loop would find; a list it refuses reaches the
    loop, which raises exactly the error it always raised, or, for a list
    only the stricter checks refused (a float endpoint, a `p/q` string),
    builds the network itself.  Gadgets are built only when a pair
    exists.
    """
    if n < 2:
        raise InvalidVertex(f"need at least two vertices, got n={n}", "n")
    if not 1 <= source <= n:
        raise InvalidVertex(f"source/sink out of range: s={source}, t={sink}", "source")
    if not 1 <= sink <= n:
        raise InvalidVertex(f"source/sink out of range: s={source}, t={sink}", "sink")
    if source == sink:
        raise InvalidVertex("source and sink must differ", "sink")

    arc_list = list(arc_list)  # read twice when a bulk check fails
    checked = _arcs_in_bulk(n, source, sink, arc_list, allow_antiparallel, scale)
    if checked is None:
        checked = _arcs_one_by_one(n, source, sink, arc_list, allow_antiparallel, scale)
    arcs, ints, scale, arc_set, paired = checked
    if not paired:
        net = Network(n, source, sink, arcs, ints, scale, ())
        net._arc_set = arc_set
        return net

    gadget_arcs, caps = [], []
    next_free = n
    for (u, v), cap in zip(arcs, ints):
        if (u, v) in paired:
            next_free += 1
            c_uv = next_free
            gadget_arcs.extend([(u, c_uv), (c_uv, v)])
            caps.extend([cap, cap])
        else:
            gadget_arcs.append((u, v))
            caps.append(cap)
    return Network(next_free, source, sink, gadget_arcs, caps, scale, range(n + 1, next_free + 1))


def _arcs_in_bulk(n, source, sink, arc_list, allow_antiparallel, scale):
    """`(arcs, ints, scale, arc_set, paired)` of an arc list that passes
    every check of :func:`_arcs_one_by_one`, read column by column, or
    None when a check fails: an endpoint that is not an int in 1..n, a
    self-loop, an arc into the source or out of the sink, a repeated arc,
    an antiparallel pair in simple mode, or a capacity that is not an int
    (with `scale`) or not an int or Fraction (without), or is negative."""
    try:
        us, vs, caps = zip(*arc_list, strict=True)
    except (TypeError, ValueError):  # no arcs, or not all triples: the loop sees to both
        return None
    if ({*map(type, us), *map(type, vs)} != {int}
            or min(us) < 1 or max(us) > n or min(vs) < 1 or max(vs) > n
            or any(map(operator.eq, us, vs))
            or source in vs or sink in us):
        return None
    arcs = list(zip(us, vs))
    arc_set = frozenset(arcs)
    if len(arc_set) < len(arcs):
        return None
    kinds = set(map(type, caps))
    if scale is not None:
        if kinds != {int}:
            return None
        ints = list(caps)
    elif kinds <= {int, Fraction}:
        ints, scale = scaled(list(caps))
    else:
        return None
    if min(ints) < 0:
        return None
    paired = ()
    if not arc_set.isdisjoint(zip(vs, us)):
        if not allow_antiparallel:
            return None
        paired = {(u, v) for (u, v) in arcs if (v, u) in arc_set}
    return arcs, ints, scale, arc_set, paired


def _arcs_one_by_one(n, source, sink, arc_list, allow_antiparallel, scale):
    """:func:`_arcs_in_bulk`'s result by a loop over the arcs, which
    raises the first fault it meets, with the fault's ``at``."""
    triples = []
    seen = {}
    for k, (u, v, cap) in enumerate(arc_list):
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise InvalidVertex(f"arc endpoint out of range: ({u}, {v})", k)
        if u == v:
            raise InvalidVertex(f"self-loop not allowed: ({u}, {v})", k)
        if v == source or u == sink:
            raise SourceSinkViolation(f"arc ({u}, {v}) enters the source or leaves the sink", k)
        if (u, v) in seen:
            raise DuplicateArc(f"duplicate arc ({u}, {v})", k)
        seen[(u, v)] = k
        if cap is UNBOUNDED:
            raise NetworkError(f"unbounded capacity on ({u}, {v})", k)
        if scale is None:
            cap = exact(cap)
        if cap.numerator < 0:
            raise NetworkError(f"negative capacity on ({u}, {v})", k)
        triples.append((u, v, cap))

    paired = {(u, v) for (u, v, _) in triples if (v, u) in seen}
    if paired and not allow_antiparallel:
        u, v = sorted(paired)[0]
        raise DuplicateArc(f"antiparallel pair ({u},{v})/({v},{u}) not allowed in simple mode",
                           max(seen[(u, v)], seen[(v, u)]))

    caps = [c for (_, _, c) in triples]
    if scale is None:
        caps, scale = scaled(caps)
    return [(u, v) for (u, v, _) in triples], caps, scale, frozenset(seen), paired


class FlowAssignment:
    """A flow's per-arc Fractions, `raw`: ``{(u, v): x}`` for each arc with
    flow x > 0.  flowkit reads a flow as a :class:`ScaledFlow`; only
    ``MaxflowResult.flow`` builds this view of one, for the span tracer in
    `perfbench/`, which reads `raw`."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        self.raw = raw


class ScaledFlow(NamedTuple):
    """A flow, a preflow or a pseudoflow, the one form of each in flowkit:
    ``((u, v), x)`` for every arc whose value x / scale is not zero, in arc
    order, as ints over one scale.  A solver certifies one,
    :func:`read_flow` checks one, :meth:`ResidualGraph.flow` reads one off
    a residual graph, and :func:`validate` checks one in a role; a flow
    that passed is positive on each of its arcs."""

    pairs: tuple
    scale: int


@dataclass(frozen=True)
class Cut:
    """Two-block vertex partition given by its source side."""

    source_side: frozenset


def _bfs(origin, target, r):
    """Breadth-first search from `origin` to `target`.  `r[u]` maps u's
    candidate heads, in increasing index order, to amounts; the step to v
    is admissible when `r[u][v] > 0`.  The vertices are 1..n, the keys of
    `r`.

    `parent[v]` is the vertex whose row reached v (0 for the origin, -1
    for a vertex not reached), and `queue` lists the reached vertices in
    the order they were reached, which is the order their rows are
    scanned.  Returns the path to `target` (None when it is unreachable)
    and `queue`, the reached set; on success the target ends `queue`.

    The goal test looks one step ahead: as each vertex w is reached
    (the origin first), the search checks `r[w][target] > 0`, and on the
    first hit it appends the target with parent w and returns.  The
    textbook lowest-index search tests only the target itself.  It reaches
    the target only through an arc into it, while scanning the row of a
    reached vertex, and it scans rows in reach order; so the target's
    parent is the first reached vertex with room into it.  Until that
    vertex both searches reach the same vertices in the same order, so
    they return the same path; a failed search finds no such vertex, so
    both reach the same set.  Only the state after a success is shorter:
    the look-ahead search does not scan the rows in between.
    """
    parent, queue = [-1] * (len(r) + 1), [origin]
    parent[origin] = 0
    if r[origin].get(target, 0) > 0:
        return _reached(target, origin, parent, queue)
    # a list iterator also yields the items appended while it runs
    for u in queue:
        for v, x in r[u].items():
            if parent[v] < 0 and x > 0:
                parent[v] = u
                queue.append(v)
                if r[v].get(target, 0) > 0:
                    return _reached(target, v, parent, queue)
    return None, queue


def _reached(target, u, parent, queue):
    """Append `target`, reached from `u`, to the search state; return the
    path to it and `queue`.

    The path's vertices are distinct and all in `queue`, so the walk up
    `parent` reaches the origin (parent 0) within len(queue) steps.  A walk
    that has not by then is caught in a cycle of `parent`, which only a
    broken search leaves, and raises :class:`InvariantViolation`
    ("work budget") instead of looping forever.
    """
    parent[target] = u
    queue.append(target)
    path = [target]
    for _ in range(len(queue)):
        if not u:
            path.reverse()
            return path, queue
        path.append(u)
        u = parent[u]
    raise InvariantViolation("work budget", f"path to {target}",
                             [f"no origin within {len(queue)} steps up parent: {path[:8]}"])


class ResidualGraph:
    """Residual capacities of a flow, a preflow or a pseudoflow, given as a
    :class:`ScaledFlow` (the zero flow when none is given), under mutation.

    `r[u][v]` is a residual capacity in units of ``1/scale``: ``c - x`` on
    an arc (u, v) with capacity c and flow x, and ``x`` on its reverse
    (v, u).  ``scale`` is the LCM of the network's scale and the flow's.
    Each row `r[u]` holds every out- and in-neighbour of u, in increasing
    index order, read off ``net.arcs``.  `caps` holds the arc capacities
    in the same units, in arc order, so the flow on arc i is
    ``caps[i] - r(u, v)``: the network's own `ints` and `scale` when no
    flow is given.  `push` and `augment` work in these units, and `flow`
    reads the flow back as a :class:`ScaledFlow`.  A pair of the given flow
    that is not an arc of `net`, its reverse included, raises
    :class:`InvalidFlow` with the "capacity" violation :func:`validate`
    reports for it; nothing else about the flow is checked here.
    """

    __slots__ = ("net", "scale", "caps", "r")

    def __init__(self, net, flow=None):
        self.net = net
        # the network's ints, rescaled when the flow brings another scale
        caps, scale = net.ints, net.scale
        if flow is not None:
            scale = math.lcm(scale, flow.scale)
            if scale != net.scale:
                k = scale // net.scale
                caps = tuple([c * k for c in caps])
        self.caps, self.scale = caps, scale
        ends = {v: [] for v in net.vertices()}
        for (u, v) in net.arcs:
            ends[u].append(v)
            ends[v].append(u)
        r = {v: dict.fromkeys(sorted(ws), 0) for v, ws in ends.items()}
        for (u, v), c in zip(net.arcs, caps):
            r[u][v] = c
        if flow is not None:
            k = scale // flow.scale
            for (u, v), x in flow.pairs:
                if not net.has_arc(u, v):  # as `validate` reports a pair off the arcs
                    raise InvalidFlow([Violation("capacity", (u, v), Fraction(x, flow.scale))])
                r[u][v] -= x * k
                r[v][u] += x * k
        self.r = r

    def out_neighbors(self, u):
        return [v for v, x in self.r[u].items() if x > 0]

    def push(self, u, v, delta):
        self.r[u][v] -= delta
        self.r[v][u] += delta

    def search(self, origin, target):
        """Lowest-index breadth-first residual search; see :func:`_bfs`."""
        return _bfs(origin, target, self.r)

    def augment(self, path, limit=None):
        """Push the bottleneck (at most `limit`) along the path.

        Returns the amount pushed and the index i of the first arc
        (path[i], path[i + 1]) that it saturated, or None when it
        saturated none (a `limit` below the bottleneck).
        """
        r = self.r
        arcs = list(zip(path, path[1:]))
        room = [r[u][v] for (u, v) in arcs]
        amount = min(room)
        first = room.index(amount)
        if limit is not None and limit < amount:
            amount, first = limit, None
        for (u, v) in arcs:
            r[u][v] -= amount
            r[v][u] += amount
        return amount, first

    def reverse(self, net):
        """Re-read this residual on `net`, the network with every arc
        reversed in the same arc order: r(u, v) <- r(v, u).  The scale,
        `caps` and the row order stay."""
        r = self.r
        self.r = {u: {v: r[v][u] for v in row} for u, row in r.items()}
        self.net = net

    def flow(self):
        """The flow ``caps[i] - r(u, v)`` on each arc where it is not zero,
        a :class:`ScaledFlow` over this residual's scale."""
        r = self.r
        pairs = [((u, v), c - r[u][v]) for (u, v), c in zip(self.net.arcs, self.caps)]
        return ScaledFlow(tuple([(a, x) for a, x in pairs if x]), self.scale)


def validate(net, f, role):
    """Check `f`, a :class:`ScaledFlow`, as a `role`, one of :data:`ROLES`;
    returns the list of violations (empty = valid).

    The check is in ints.  An arc's value x / f.scale is compared with its
    capacity c / net.scale by cross-multiplying, and an excess is a sum of
    the x.  A Fraction is built only for the amount of a violation it
    reports.  Capacity violations come first, in (u, v) order, then the
    excesses, in vertex order.
    """
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    caps, base, scale = dict(zip(net.arcs, net.ints)), net.scale, f.scale
    excess = dict.fromkeys(net.vertices(), 0)
    violations = []
    for (u, v), x in sorted(f.pairs):
        c = caps.get((u, v), 0)  # no capacity off the arcs
        if x < 0:
            violations.append(Violation("capacity", (u, v), Fraction(x, scale)))
        elif x * base > c * scale:
            violations.append(Violation("capacity", (u, v),
                                        Fraction(x * base - c * scale, scale * base)))
        excess[u] -= x
        excess[v] += x

    s, t = net.source, net.sink
    if role == "flow":
        violations += [Violation("conservation", v, Fraction(e, scale))
                       for v, e in excess.items() if e and v != s and v != t]
    elif role == "preflow":
        violations += [Violation("negative_excess", v, Fraction(e, scale))
                       for v, e in excess.items() if e < 0 and v != s]
    return violations


def net_flow(net, f):
    """Total amount leaving the source of a valid flow, a :class:`ScaledFlow`."""
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    return Fraction(sum(x for (u, _), x in f.pairs if u == net.source), f.scale)


def flow_across_cut(net, f, cut):
    """f(S, S-bar) - f(S-bar, S) of a valid flow, a :class:`ScaledFlow`;
    equals the net flow for every cut."""
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    side = cut.source_side
    total = 0
    for (u, v), x in f.pairs:
        if u in side and v not in side:
            total += x
        elif u not in side and v in side:
            total -= x
    return Fraction(total, f.scale)


def cut_capacity(net, cut):
    """Sum of the capacities of the arcs directed from S to S-bar: an int
    sum of `net.ints`, made one Fraction over the network's scale."""
    side = cut.source_side
    return Fraction(sum([c for (u, v), c in zip(net.arcs, net.ints)
                         if u in side and v not in side]), net.scale)


def incidence_matrix(net):
    """n x m vertex/arc incidence matrix (+1 leaves, -1 enters).

    Rows follow :meth:`Network.vertex_order` (source first, sink last);
    columns follow the arc enumeration.
    """
    order = net.vertex_order()
    row_of = {v: i for i, v in enumerate(order)}
    matrix = [[0] * net.m for _ in order]
    for j, (u, v) in enumerate(net.arcs):
        matrix[row_of[u]][j] = 1
        matrix[row_of[v]][j] = -1
    return matrix


# -- DIMACS-style text formats ------------------------------------------


def write_dimacs(net):
    """The network in the max-flow problem format; each capacity is written
    from its int over the scale by :func:`format_ratio`, so no Fraction is
    built."""
    scale = net.scale
    lines = [f"p max {net.n} {net.m}", f"n {net.source} s", f"n {net.sink} t"]
    lines += [f"a {u} {v} {format_ratio(c, scale)}" for (u, v), c in zip(net.arcs, net.ints)]
    return "\n".join(lines) + "\n"


# The layout `write_dimacs` writes, after a block of `c` lines: a `p`
# line, two `n` lines, one `a` line per arc, single spaces, ASCII digits,
# a denominator with a nonzero digit, and `\n` after every line.  A
# comment holds printable ASCII only, so it hides no line break that
# `str.splitlines` would see.  Group 1 is the text after the comments.
_LAYOUT = re.compile(r"(?:c[ -~]*\n)*"
                     r"(p max [0-9]+ [0-9]+\n(?:n [0-9]+ [st]\n){2}"
                     r"(?:a [0-9]+ [0-9]+ [0-9]+(?:/0*[1-9][0-9]*)?\n)*)")


def read_dimacs(text, allow_antiparallel=False):
    """Parse the max-flow problem format; raises ParseError with a line number.

    Each capacity token is read as ints ``p/q`` (:func:`parse_ratio`), and
    :func:`build_network` gets them as the ints ``p * (scale // q)`` over
    ``scale``, the LCM of the q's; no capacity becomes a Fraction.  An
    error that :func:`build_network` locates names the line of the arc at
    fault (the second line of a repeated or antiparallel pair), the `n`
    line of the source or sink at fault, or the `p` line for a vertex
    count below two or an arc count that the `a` lines do not match.

    A text in :data:`_LAYOUT` is read by columns (:func:`_read_columns`);
    every other text, and one whose arc count or network check fails
    there, is read line by line, and only the line loop names a line in
    an error.  On the layout both read the same ints: every line is one
    record whose fields are its space-separated tokens, a comment line is
    skipped by both, a token of ASCII digits is the int `parse_ratio`
    reads, and a denominator with a nonzero digit is the q it reads.  So
    both pass the same n, source, sink, triples and scale to
    :func:`build_network`, and give the same network or reach the loop's
    error.
    """
    net = _read_columns(text, allow_antiparallel)
    return net if net is not None else _read_lines(text, allow_antiparallel)


def _read_lines(text, allow_antiparallel):
    """:func:`read_dimacs` of any text, line by line: every record, the
    checks that name a line, and the errors of :func:`build_network`
    mapped to the lines of the records at fault."""
    n = m = None
    source = sink = None
    arcs, arc_lines, ends = [], [], {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("c"):
            continue
        kind = fields[0]
        if kind == "a":
            if n is None:
                raise ParseError("arc before problem line", line_no)
            if len(fields) != 4:
                raise ParseError("expected `a <u> <v> <cap>`", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
                p, q = parse_ratio(fields[3])
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            if p < 0:
                raise ParseError("negative capacity", line_no)
            arcs.append((u, v, p, q))
            arc_lines.append(line_no)
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] != "max":
                raise ParseError("expected `p max <n> <m>`", line_no)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("n and m must be integers", line_no)
            ends["n"] = line_no
        elif kind == "n":
            if n is None:
                raise ParseError("node designation before problem line", line_no)
            if len(fields) != 3 or fields[2] not in ("s", "t"):
                raise ParseError("expected `n <id> s|t`", line_no)
            try:
                vid = int(fields[1])
            except ValueError:
                raise ParseError("vertex id must be an integer", line_no)
            if fields[2] == "s":
                if source is not None:
                    raise ParseError("duplicate source designation", line_no)
                source = vid
                ends["source"] = line_no
            else:
                if sink is not None:
                    raise ParseError("duplicate sink designation", line_no)
                sink = vid
                ends["sink"] = line_no
        else:
            raise ParseError(f"unknown record type {kind!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    if source is None or sink is None:
        raise ParseError("missing source or sink designation")
    if len(arcs) != m:
        raise ParseError(f"problem line announced {m} arcs, found {len(arcs)}", ends["n"])
    scale = math.lcm(*{q for (_, _, _, q) in arcs})
    try:
        return build_network(n, source, sink, [(u, v, p * (scale // q)) for (u, v, p, q) in arcs],
                             allow_antiparallel=allow_antiparallel, scale=scale)
    except NetworkError as exc:
        at = exc.at
        raise ParseError(str(exc), arc_lines[at] if isinstance(at, int) else ends.get(at))


def _read_columns(text, allow_antiparallel):
    """The network of a text in :data:`_LAYOUT`, read by columns, or None
    for any other text, an `a` line count that is not m, a token `int`
    refuses (more digits than the interpreter converts), or a network
    that :func:`build_network` refuses."""
    layout = _LAYOUT.fullmatch(text)
    if layout is None:
        return None
    body = layout[1]
    tokens = body.split()  # p max n m, n x s|t, n y s|t, then a u v cap per arc
    try:
        n, m = int(tokens[2]), int(tokens[3])
        if len(tokens) - 10 != 4 * m or tokens[6] == tokens[9]:
            return None
        ends = {tokens[6]: int(tokens[5]), tokens[9]: int(tokens[8])}
        us, vs = list(map(int, tokens[11::4])), list(map(int, tokens[12::4]))
        caps = tokens[13::4]
        if "/" not in body:
            ints, scale = list(map(int, caps)), 1
        else:
            ps, _, qs = zip(*[c.partition("/") for c in caps])  # q is "" for an int
            factor = {q: int(q or 1) for q in set(qs)}
            scale = math.lcm(*factor.values())
            factor = {q: scale // d for q, d in factor.items()}
            ints = list(map(operator.mul, map(int, ps), map(factor.__getitem__, qs)))
    except ValueError:
        return None
    try:
        return build_network(n, ends["s"], ends["t"], list(zip(us, vs, ints)),
                             allow_antiparallel=allow_antiparallel, scale=scale)
    except NetworkError:
        return None


def write_flow(flow, value):
    """One `f <u> <v> <x>` line per arc of `flow`, a :class:`ScaledFlow` as
    a solver certified it, then `s <value>`.  Each x goes through
    :func:`format_ratio`, so no Fraction is built."""
    scale = flow.scale
    lines = [f"f {u} {v} {format_ratio(x, scale)}" for (u, v), x in flow.pairs]
    lines.append(f"s {format_value(value)}")
    return "\n".join(lines) + "\n"


def read_flow(net, text):
    """Read a flow file and check it, once: :func:`validate` as a flow, and
    the `s` line, when there is one, against the outflow of the source.

    Each value token is read as ints ``p/q`` in lowest terms
    (:func:`parse_ratio`), and the flow is the :class:`ScaledFlow` of the
    nonzero ones in arc order, over the LCM of ``net.scale`` and their
    q's; that flow is what `validate` checks and what is returned.  A violation names the arc as the file
    wrote it.  Raises :class:`ParseError` or :class:`InvalidFlow`."""
    values = {}
    stated = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "f":
            if len(fields) != 4:
                raise ParseError("expected `f <u> <v> <value>`", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
                p, q = parse_ratio(fields[3])
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            if not net.has_arc(u, v):
                raise ParseError(f"({u}, {v}) is not an arc of the network", line_no)
            if (u, v) in values:
                raise ParseError(f"duplicate value for arc ({u}, {v})", line_no)
            g = math.gcd(p, q)  # lowest terms, so that the scale is the LCM of reduced q's
            values[(u, v)] = (p // g, q // g)
        elif fields[0] == "s":
            if len(fields) != 2:
                raise ParseError("expected `s <value>`", line_no)
            if stated is not None:
                raise ParseError("duplicate flow value line", line_no)
            try:
                stated = parse_value(fields[1])
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line_no)
    written = [(a, values[a]) for a in net.arcs if a in values and values[a][0]]
    scale = math.lcm(net.scale, *{q for _, (_, q) in written})
    flow = ScaledFlow(tuple([(a, p * (scale // q)) for a, (p, q) in written]), scale)
    bad = validate(net, flow, "flow")
    if bad:
        raise InvalidFlow(bad)
    if stated is not None:
        actual = Fraction(sum(x for (u, _), x in flow.pairs if u == net.source), scale)
        if actual != stated:
            raise ParseError(f"stated value {stated} does not match flow value {actual}")
    return flow
