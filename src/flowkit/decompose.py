"""Flow decomposition, min-cut extraction and pseudoflow-to-flow recovery.

A valid flow splits into at most m source-to-sink path-flows and
cycle-flows; every extraction step zeroes the flow on at least one arc.
A maximal flow yields a minimum cut as the set of vertices reachable from
the source in the residual graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .network import (
    Cut,
    InvalidFlow,
    InvariantViolation,
    NetworkError,
    ParseError,
    ResidualGraph,
    _bfs,
    validate,
)
from .values import format_value, parse_value


class NotMaximal(NetworkError):
    """Raised when an operation needs a maximal flow; carries an augmenting
    path as witness."""

    def __init__(self, path):
        self.path = list(path)
        super().__init__(f"flow is not maximal; augmenting path {self.path}")


class NotOptimal(NetworkError):
    """Raised when flow recovery is attempted on a non-optimal tree."""


@dataclass(frozen=True)
class FlowComponent:
    """A path-flow (s..t vertex sequence) or cycle-flow (closed sequence)."""

    kind: str                 # "path" | "cycle"
    vertices: tuple
    amount: Fraction

    def arcs(self):
        return [(self.vertices[i], self.vertices[i + 1])
                for i in range(len(self.vertices) - 1)]


def decompose(net, f):
    """Split a valid flow into path-flows and cycle-flows summing to it.

    Paths are extracted first (breadth-first, lowest-index tie-break),
    then the remaining circulation is peeled into cycles.  Components
    reproduce the flow arc-by-arc and number at most m.
    """
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    s, t = net.source, net.sink
    # g[u] maps each head v with f(u, v) > 0 to that amount, heads increasing
    g = {v: {} for v in net.vertices()}
    for (u, v) in sorted(net.arcs):
        x = f.value(u, v)
        if x > 0:
            g[u][v] = x

    def drop(walk, amount):
        for (u, v) in zip(walk, walk[1:]):
            g[u][v] -= amount
            if g[u][v] == 0:
                del g[u][v]

    components = []
    # source-to-sink paths while the source still emits flow
    while g[s]:
        path, _ = _bfs(s, {t}, g)
        if path is None:
            raise InvariantViolation("flow", f"component {len(components) + 1}",
                                     ["positive outflow with no path to the sink"])
        amount = min(g[u][v] for (u, v) in zip(path, path[1:]))
        drop(path, amount)
        components.append(FlowComponent("path", tuple(path), amount))

    # what is left is a circulation: peel cycles
    while any(g.values()):
        start = min(u for u, heads in g.items() if heads)
        walk = [start]
        seen = {start: 0}
        while True:
            u = walk[-1]
            v = min(g[u])
            if v in seen:
                cycle = walk[seen[v]:] + [v]
                break
            seen[v] = len(walk)
            walk.append(v)
        amount = min(g[u][v] for (u, v) in zip(cycle, cycle[1:]))
        drop(cycle, amount)
        components.append(FlowComponent("cycle", tuple(cycle), amount))

    return components


def min_cut_from_flow(net, f):
    """Minimum cut from a maximal flow: residual reachability from the source.

    Raises :class:`NotMaximal` with an augmenting path when the flow still
    admits one.
    """
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    path, reached = ResidualGraph(net, f).search(net.source, {net.sink})
    if path is not None:
        raise NotMaximal(path)
    return Cut(frozenset(reached))


def recover_flow(gst, pseudoflow, tree):
    """Turn the pseudoflow of an optimal normalized tree into a maximal flow.

    Excesses at strong branch roots drain back to the source along residual
    paths through strong vertices; deficits at strictly weak roots are
    served from the sink through weak vertices.  Arcs crossing from the
    strong side to the weak side stay saturated, so the recovered value
    equals the capacity of the strong/weak cut.
    """
    res = ResidualGraph(gst, pseudoflow)
    weak = set(tree.weak_vertices())
    for a in tree.strong_vertices():
        for b in res.out_neighbors(a):
            if b in weak:
                raise NotOptimal(f"residual arc ({a}, {b}) runs from strong to weak")

    # strong roots drain to the source first, then the sink serves weak roots
    excess = {v: res.units(tree.excess[v]) for v in tree.branch_roots() if tree.excess[v] != 0}
    for v in sorted(excess, key=lambda v: (excess[v] < 0, v)):
        sign = 1 if excess[v] > 0 else -1
        origin, target = (v, gst.source) if sign > 0 else (gst.sink, v)
        while excess[v] != 0:
            path, _ = res.search(origin, {target})
            if path is None:
                raise InvariantViolation("recovery", f"root {v}",
                                         [f"no residual path from {origin} to {target}"])
            excess[v] -= sign * res.augment(path, sign * excess[v])

    flow = res.flow()
    bad = validate(gst, flow, "flow")
    if bad:
        raise InvariantViolation("recovery", "end", bad)
    return flow


# -- component serialization ----------------------------------------------


def write_components(components):
    """`path <amount> v1 .. vk` / `cycle <amount> v1 .. vk v1`, one per line."""
    lines = []
    for comp in components:
        verts = " ".join(str(v) for v in comp.vertices)
        lines.append(f"{comp.kind} {format_value(comp.amount)} {verts}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_components(text):
    components = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c "):
            continue
        fields = line.split()
        if fields[0] not in ("path", "cycle") or len(fields) < 3:
            raise ParseError("expected `path|cycle <amount> <vertices...>`", line_no)
        try:
            amount = parse_value(fields[1])
            vertices = tuple(int(x) for x in fields[2:])
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
        components.append(FlowComponent(fields[0], vertices, amount))
    return components
