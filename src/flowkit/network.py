"""Directed flow networks with exact rational capacities.

A network is a finite simple directed graph with a source `s`, a sink `t`,
and a non-negative capacity on every arc.  No arc enters the source and no
arc leaves the sink.  Antiparallel arc pairs are either rejected (strict
simple mode) or subdivided through fresh intermediate vertices, which
preserves the maximum flow value.

Flow-like assignments are antisymmetric functions on vertex pairs
(`f(u,v) = -f(v,u)`); the role tag selects which extra constraints apply:

* ``flow``       capacity + conservation at every vertex except s, t
* ``preflow``    capacity + non-negative excess at every vertex except s
* ``pseudoflow`` capacity only

Every solver, flow recovery and cut extraction works on one residual state,
:class:`ResidualGraph`: the residual capacity ``r(u, v) = cbar(u, v) -
f(u, v)`` of every arc and of its reverse, stored as a Python int in units
of ``1/scale``.  ``scale`` is the LCM of the denominators of every finite
capacity and of every value of the starting flow, fixed once per solve, so
every residual test and every push is integer arithmetic and exact at any
LCM (Python ints do not overflow).  Pushing delta along (u, v) lowers
r(u, v) and raises r(v, u) by the same amount, which keeps
``r(u, v) + r(v, u) = cbar(u, v) + cbar(v, u)`` for every pair.  An
UNBOUNDED arc keeps an UNBOUNDED residual capacity.  The arc capacities
are kept in the same units beside the rows, so the flow on an arc, and
from it every excess, is the int ``c - r`` with nothing converted back.
Rationals come back only at the boundary: ``capacity``, ``arcs`` and
``flow`` return Fractions.

The capacities are stored by rows, built once per solve: ``r[u]`` maps
each out- and in-neighbour v of u, in increasing index order, to
r(u, v).  A row is also u's adjacency list.  The one breadth-first search
scans it in order, so every solver breaks ties by lowest index, and no
lookup builds a pair key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .values import exact, format_value, is_unbounded, parse_value, scaled

ROLES = ("flow", "preflow", "pseudoflow")
_ZERO = Fraction(0)  # the value of an unstored pair: one object, as Fractions are immutable


class NetworkError(Exception):
    """Base class for network construction and validation failures."""


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
    """One violated flow constraint: kind, location, offending amount."""

    kind: str            # "capacity" | "antisymmetry" | "conservation" | "negative_excess"
    where: tuple | int
    amount: Fraction | None = None


class Network:
    """Immutable simple directed network with source, sink and capacities.

    Vertices are the integers 1..n.  The vertex enumeration used by
    matrix-producing operations lists the source first and the sink last.
    """

    __slots__ = ("n", "source", "sink", "arcs", "_caps", "_index", "_out", "_in",
                 "gadget_vertices", "_gadget_origin")

    def __init__(self, n, source, sink, arcs, capacities, gadget_origin=None):
        self.n = n
        self.source = source
        self.sink = sink
        self.arcs = tuple(arcs)
        self._caps = tuple(capacities)
        self._index = {a: i for i, a in enumerate(self.arcs)}
        out = {v: [] for v in range(1, n + 1)}
        inc = {v: [] for v in range(1, n + 1)}
        for (u, v) in self.arcs:
            out[u].append(v)
            inc[v].append(u)
        self._out = {v: tuple(sorted(ws)) for v, ws in out.items()}
        self._in = {v: tuple(sorted(ws)) for v, ws in inc.items()}
        self._gadget_origin = dict(gadget_origin or {})
        self.gadget_vertices = frozenset(self._gadget_origin)

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
        return (u, v) in self._index

    def capacity(self, u, v):
        return self._caps[self._index[(u, v)]]

    def capacities(self):
        return self._caps

    def cbar(self, u, v):
        """Capacity extended by zero off the arc set."""
        i = self._index.get((u, v))
        return self._caps[i] if i is not None else Fraction(0)

    def out_neighbors(self, v):
        return self._out[v]

    def in_neighbors(self, v):
        return self._in[v]

    def gadget_origin(self, v):
        """Original antiparallel pair a gadget vertex was created for."""
        return self._gadget_origin.get(v)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self.n, self.source, self.sink, self.arcs, self._caps) == \
               (other.n, other.source, other.sink, other.arcs, other._caps)

    def __hash__(self):
        return hash((self.n, self.source, self.sink, self.arcs, self._caps))

    def __repr__(self):
        return f"Network(n={self.n}, s={self.source}, t={self.sink}, m={self.m})"


def build_network(n, source, sink, arc_list, allow_antiparallel=False):
    """Construct a network from `(u, v, capacity)` triples.

    With ``allow_antiparallel=True`` every antiparallel pair (v,w),(w,v) is
    subdivided through two fresh vertices: (v,w) becomes v -> c_vw -> w and
    (w,v) becomes w -> c_wv -> v, each leg keeping the original capacity.
    The subdivision does not change the maximum flow value.
    """
    if n < 2:
        raise InvalidVertex(f"need at least two vertices, got n={n}")
    if not (1 <= source <= n) or not (1 <= sink <= n):
        raise InvalidVertex(f"source/sink out of range: s={source}, t={sink}")
    if source == sink:
        raise InvalidVertex("source and sink must differ")

    triples = []
    seen = set()
    for (u, v, cap) in arc_list:
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise InvalidVertex(f"arc endpoint out of range: ({u}, {v})")
        if u == v:
            raise InvalidVertex(f"self-loop not allowed: ({u}, {v})")
        if v == source or u == sink:
            raise SourceSinkViolation(f"arc ({u}, {v}) enters the source or leaves the sink")
        if (u, v) in seen:
            raise DuplicateArc(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
        if not is_unbounded(cap):
            cap = exact(cap)
            if cap < 0:
                raise NetworkError(f"negative capacity on ({u}, {v})")
        triples.append((u, v, cap))

    paired = {(u, v) for (u, v, _) in triples if (v, u) in seen}
    if paired and not allow_antiparallel:
        u, v = sorted(paired)[0]
        raise DuplicateArc(f"antiparallel pair ({u},{v})/({v},{u}) not allowed in simple mode")

    arcs, caps = [], []
    gadget_origin = {}
    next_free = n
    for (u, v, cap) in triples:
        if (u, v) in paired:
            next_free += 1
            c_uv = next_free
            gadget_origin[c_uv] = (u, v)
            arcs.extend([(u, c_uv), (c_uv, v)])
            caps.extend([cap, cap])
        else:
            arcs.append((u, v))
            caps.append(cap)

    return Network(next_free, source, sink, arcs, caps, gadget_origin)


class FlowAssignment:
    """Antisymmetric value assignment on vertex pairs with a role tag.

    The constructor stores the given pairs verbatim; lookups derive the
    reverse direction by antisymmetry.  Inconsistent inputs (both
    directions stored with `f(u,v) != -f(v,u)`) are kept and surface as
    antisymmetry violations in :func:`validate`.
    """

    __slots__ = ("role", "raw", "_touching")

    def __init__(self, values=(), role="flow"):
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        self.role = role
        self.raw = {(u, v): exact(x) for (u, v), x in dict(values).items()}
        touching = {}
        for (u, v) in self.raw:
            touching.setdefault(u, set()).add(v)
            touching.setdefault(v, set()).add(u)
        self._touching = touching

    def value(self, u, v):
        x = self.raw.get((u, v))
        if x is not None:
            return x
        x = self.raw.get((v, u))
        if x is not None:
            return -x
        return _ZERO

    def excess(self, v):
        """Inflow minus outflow at v."""
        return sum((self.value(u, v) for u in self._touching.get(v, ())), Fraction(0))

    def support_pairs(self):
        """Every stored pair together with its reverse."""
        pairs = set(self.raw)
        pairs.update((v, u) for (u, v) in self.raw)
        return pairs

    def with_role(self, role):
        return FlowAssignment(self.raw, role)

    def positive_arcs(self, net):
        """Arcs of the network carrying strictly positive flow, in arc order."""
        out = []
        for (u, v) in net.arcs:
            x = self.value(u, v)
            if x > 0:
                out.append((u, v, x))
        return out

    def __eq__(self, other):
        if not isinstance(other, FlowAssignment):
            return NotImplemented
        if self.role != other.role:
            return False
        pairs = self.support_pairs() | other.support_pairs()
        return all(self.value(u, v) == other.value(u, v) for (u, v) in pairs)

    def __repr__(self):
        nonzero = {p: x for p, x in self.raw.items() if x != 0}
        return f"FlowAssignment(role={self.role}, {nonzero})"


def zero_flow(role="flow"):
    return FlowAssignment({}, role)


@dataclass(frozen=True)
class Cut:
    """Two-block vertex partition given by its source side."""

    source_side: frozenset


def make_cut(net, source_side):
    side = frozenset(source_side)
    if net.source not in side:
        raise NetworkError("cut must contain the source")
    if net.sink in side:
        raise NetworkError("cut must not contain the sink")
    if not side <= set(net.vertices()):
        raise InvalidVertex("cut contains unknown vertices")
    return Cut(side)


def all_cuts(net):
    """Every cut of the network (2^(n-2) of them); for desk-scale checks."""
    middle = [v for v in net.vertices() if v != net.source and v != net.sink]
    for k in range(len(middle) + 1):
        for extra in combinations(middle, k):
            yield Cut(frozenset((net.source,) + extra))


def _bfs(origin, targets, r):
    """Breadth-first search from `origin`.  `r[u]` maps u's candidate heads,
    in increasing index order, to amounts; the step to v is admissible
    when `r[u][v] > 0`.

    Returns the path to the first target reached (None when none is
    reachable) and the dict of reached vertices, each mapped to its parent.
    """
    parent = {origin: None}
    queue = deque([origin])
    while queue:
        u = queue.popleft()
        for v, x in r[u].items():
            if v not in parent and x > 0:
                parent[v] = u
                if v in targets:
                    path = [v]
                    while u is not None:
                        path.append(u)
                        u = parent[u]
                    path.reverse()
                    return path, parent
                queue.append(v)
    return None, parent


class ResidualGraph:
    """Residual capacities `c_f = cbar - f` of a flow-like assignment
    (the zero flow when none is given), under mutation.

    `r[u][v]` is the residual capacity of (u, v) in scaled units, the int
    `c_f * scale` (UNBOUNDED stays UNBOUNDED).  Each row `r[u]` holds
    every out- and in-neighbour of u, in increasing index order.  `caps`
    holds the arc capacities in the same units, in arc order, so the flow
    on arc i is ``caps[i] - r(u, v)``.  `push` and `augment` work in scaled
    units; `capacity`, `arcs` and `flow` return Fractions.
    """

    __slots__ = ("net", "scale", "caps", "r")

    def __init__(self, net, flow=None):
        self.net = net
        caps = net.capacities()
        raw = flow.raw if flow is not None else {}
        # the capacities in arc order (0 standing in for UNBOUNDED), then the flow
        ints, self.scale = scaled([0 if is_unbounded(c) else c for c in caps]
                                  + list(raw.values()))
        self.caps = [c if is_unbounded(c) else x for c, x in zip(caps, ints)]
        r = {v: dict.fromkeys(sorted(set(net.out_neighbors(v)) | set(net.in_neighbors(v))), 0)
             for v in net.vertices()}
        for (u, v), c in zip(net.arcs, self.caps):
            r[u][v] = c
        # r -= f on each stored pair (u, v) and, by antisymmetry, r += f on
        # (v, u) unless the assignment stores (v, u) as well
        for (u, v), x in zip(raw, ints[len(caps):]):
            if x and v in r.get(u, ()):
                r[u][v] -= x
                if (v, u) not in raw:
                    r[v][u] += x
        self.r = r

    def _value(self, x):
        return x if is_unbounded(x) else Fraction(x, self.scale)

    @property
    def arcs(self):
        """Pairs with strictly positive residual capacity."""
        return {(u, v): self._value(x) for u, row in self.r.items()
                for v, x in row.items() if x > 0}

    def capacity(self, u, v):
        return self._value(self.r.get(u, {}).get(v, 0))

    def out_neighbors(self, u):
        return [v for v, x in self.r[u].items() if x > 0]

    def push(self, u, v, delta):
        self.r[u][v] -= delta
        self.r[v][u] += delta

    def search(self, origin, targets):
        """Lowest-index breadth-first residual search; see :func:`_bfs`."""
        return _bfs(origin, targets, self.r)

    def augment(self, path, limit=None):
        """Push the bottleneck (at most `limit`) along the path; returns it."""
        arcs = list(zip(path, path[1:]))
        amount = min(self.r[u][v] for (u, v) in arcs)
        if limit is not None and limit < amount:
            amount = limit
        for (u, v) in arcs:
            self.push(u, v, amount)
        return amount

    def reverse(self, net):
        """Re-read this residual on `net`, the network with every arc
        reversed in the same arc order: r(u, v) <- r(v, u).  The scale,
        `caps` and the row order stay."""
        r = self.r
        self.r = {u: {v: r[v][u] for v in row} for u, row in r.items()}
        self.net = net

    def flow(self, role="flow"):
        """The assignment `cbar - r` on the arcs; needs finite capacities."""
        scale, r = self.scale, self.r
        values = {}
        for (u, v), c in zip(self.net.arcs, self.caps):
            x = c - r[u][v]
            if x:
                values[(u, v)] = Fraction(x, scale)
        return FlowAssignment(values, role)


def validate(net, f, role=None):
    """Check a flow-like assignment; returns the list of violations (empty = valid)."""
    role = role or f.role
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    violations = []

    for (u, v), x in sorted(f.raw.items()):
        if (v, u) in f.raw and (u, v) < (v, u):
            if x != -f.raw[(v, u)]:
                violations.append(Violation("antisymmetry", (u, v), x + f.raw[(v, u)]))

    for (u, v) in sorted(f.support_pairs()):
        x = f.value(u, v)
        if x > net.cbar(u, v):
            violations.append(Violation("capacity", (u, v), x - net.cbar(u, v)))

    if role == "flow":
        for v in net.vertices():
            if v in (net.source, net.sink):
                continue
            e = f.excess(v)
            if e != 0:
                violations.append(Violation("conservation", v, e))
    elif role == "preflow":
        for v in net.vertices():
            if v == net.source:
                continue
            e = f.excess(v)
            if e < 0:
                violations.append(Violation("negative_excess", v, e))
    return violations


def net_flow(net, f):
    """Total amount leaving the source."""
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    return sum((f.value(net.source, v) for v in net.out_neighbors(net.source)), Fraction(0))


def flow_across_cut(net, f, cut):
    """f(S, S-bar) - f(S-bar, S); equals the net flow for every cut."""
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    side = cut.source_side
    total = Fraction(0)
    for (u, v) in net.arcs:
        if u in side and v not in side:
            total += f.value(u, v)
        elif u not in side and v in side:
            total -= f.value(u, v)
    return total


def cut_capacity(net, cut):
    """Sum of the capacities of the arcs directed from S to S-bar."""
    side = cut.source_side
    return sum((c for (u, v), c in zip(net.arcs, net.capacities())
                if u in side and v not in side), Fraction(0))


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
    lines = [f"p max {net.n} {net.m}", f"n {net.source} s", f"n {net.sink} t"]
    for i, (u, v) in enumerate(net.arcs):
        lines.append(f"a {u} {v} {format_value(net.capacities()[i])}")
    return "\n".join(lines) + "\n"


def read_dimacs(text, allow_antiparallel=False):
    """Parse the max-flow problem format; raises ParseError with a line number."""
    n = m = None
    source = sink = None
    arcs = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] != "max":
                raise ParseError("expected `p max <n> <m>`", line_no)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("n and m must be integers", line_no)
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
            else:
                if sink is not None:
                    raise ParseError("duplicate sink designation", line_no)
                sink = vid
        elif kind == "a":
            if n is None:
                raise ParseError("arc before problem line", line_no)
            if len(fields) != 4:
                raise ParseError("expected `a <u> <v> <cap>`", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
                cap = parse_value(fields[3])
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            if cap < 0:
                raise ParseError("negative capacity", line_no)
            arcs.append((u, v, cap))
        else:
            raise ParseError(f"unknown record type {kind!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    if source is None or sink is None:
        raise ParseError("missing source or sink designation")
    if len(arcs) != m:
        raise ParseError(f"problem line announced {m} arcs, found {len(arcs)}")
    try:
        return build_network(n, source, sink, arcs, allow_antiparallel=allow_antiparallel)
    except NetworkError as exc:
        raise ParseError(str(exc))


def write_flow(net, f, value=None):
    """One `f <u> <v> <value>` line per positive-flow arc, then `s <|f|>`."""
    if value is None:
        value = net_flow(net, f)
    lines = [f"f {u} {v} {format_value(x)}" for (u, v, x) in f.positive_arcs(net)]
    lines.append(f"s {format_value(value)}")
    return "\n".join(lines) + "\n"


def read_flow(net, text):
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
                x = parse_value(fields[3])
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            if not net.has_arc(u, v):
                raise ParseError(f"({u}, {v}) is not an arc of the network", line_no)
            if (u, v) in values:
                raise ParseError(f"duplicate value for arc ({u}, {v})", line_no)
            values[(u, v)] = x
        elif fields[0] == "s":
            if len(fields) != 2:
                raise ParseError("expected `s <value>`", line_no)
            if stated is not None:
                raise ParseError("duplicate flow value line", line_no)
            stated = parse_value(fields[1])
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line_no)
    f = FlowAssignment(values, role="flow")
    if stated is not None:
        actual = net_flow(net, f)
        if actual != stated:
            raise ParseError(f"stated value {stated} does not match flow value {actual}")
    return f
