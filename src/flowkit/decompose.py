"""Flow decomposition, min-cut extraction and pseudoflow-to-flow recovery.

A valid flow splits into at most m source-to-sink path-flows and
cycle-flows; every extraction step zeroes the flow on at least one arc.
Decomposition takes the flow as a :class:`ScaledFlow` and trusts it, as a
solver certified it or :func:`flowkit.network.read_flow` checked it: it
peels the ints and checks nothing again.  A maximal flow yields a minimum
cut as the set of vertices reachable from the source in the residual
graph.  Recovery reads the excesses of the pseudoflow solver's core off its
residual graph and drains them in place; it does not re-check the flow it
leaves, because the solver's certificate is the only check of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .network import (
    Cut,
    InvalidFlow,
    InvariantViolation,
    NetworkError,
    ResidualGraph,
    _bfs,
    validate,
)
from .values import format_value


class NotMaximal(NetworkError):
    """Raised when an operation needs a maximal flow; carries an augmenting
    path as witness."""

    def __init__(self, path):
        self.path = list(path)
        super().__init__(f"flow is not maximal; augmenting path {self.path}")


@dataclass(frozen=True)
class FlowComponent:
    """A path-flow (s..t vertex sequence) or cycle-flow (closed sequence)."""

    kind: str                 # "path" | "cycle"
    vertices: tuple
    amount: Fraction


def decompose(net, flow):
    """Split a valid flow into path-flows and cycle-flows summing to it.

    `flow` is a :class:`ScaledFlow` that a solver certified or `read_flow`
    checked, and is trusted: no ``validate`` runs, the ints are peeled and
    each component builds one Fraction, its amount.  Paths are extracted
    first (breadth-first, lowest-index tie-break), then the remaining
    circulation is peeled into cycles.  Components reproduce the flow
    arc-by-arc and number at most m, because each one zeroes the flow on
    an arc; one more raises :class:`InvariantViolation` ("work budget")
    instead of looping on.
    """
    s, t = net.source, net.sink
    # g[u] maps each head v with flow x / scale > 0 on (u, v) to x, heads increasing
    g = {v: {} for v in net.vertices()}
    for (u, v), x in sorted(flow.pairs):
        g[u][v] = x
    components = []

    def peel(kind, walk):
        if len(components) == net.m:
            raise InvariantViolation("work budget", f"component {net.m + 1}",
                                     [f"more than m = {net.m} components"])
        legs = list(zip(walk, walk[1:]))
        amount = min(g[u][v] for (u, v) in legs)
        for (u, v) in legs:
            g[u][v] -= amount
            if g[u][v] == 0:
                del g[u][v]
        components.append(FlowComponent(kind, tuple(walk), Fraction(amount, flow.scale)))

    # source-to-sink paths while the source still emits flow
    while g[s]:
        path, _ = _bfs(s, t, g)
        if path is None:
            raise InvariantViolation("flow", f"component {len(components) + 1}",
                                     ["positive outflow with no path to the sink"])
        peel("path", path)

    # what is left is a circulation: peel cycles; a walk meets each vertex once
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
        peel("cycle", cycle)

    return components


def min_cut_from_flow(net, f):
    """Minimum cut from a maximal flow: residual reachability from the source.

    Raises :class:`NotMaximal` with an augmenting path when the flow still
    admits one.
    """
    bad = validate(net, f, "flow")
    if bad:
        raise InvalidFlow(bad)
    path, reached = ResidualGraph(net, f).search(net.source, net.sink)
    if path is not None:
        raise NotMaximal(path)
    return Cut(frozenset(reached))


def recover_flow(res):
    """Drain the residual graph of an optimal pseudoflow, in place, into
    the residual graph of a maximal flow.

    The excesses are read off the arcs in one pass, as the ints
    ``caps[i] - r(u, v)``; only branch roots hold one.  Vertices with an
    excess drain it back to the source, then vertices with a deficit are
    served from the sink, each group lowest index first.  With no residual
    arc from the strong to the weak side, the recovered value is the
    capacity of that cut; the solver's certificate, not this function,
    checks it.
    """
    net, r = res.net, res.r
    excess = dict.fromkeys(net.vertices(), 0)
    for (u, v), c in zip(net.arcs, res.caps):
        x = c - r[u][v]
        excess[u] -= x
        excess[v] += x
    del excess[net.source], excess[net.sink]
    for v in sorted((v for v, e in excess.items() if e), key=lambda v: (excess[v] < 0, v)):
        sign = 1 if excess[v] > 0 else -1
        origin, target = (v, net.source) if sign > 0 else (net.sink, v)
        while excess[v] != 0:
            path, _ = res.search(origin, target)
            if path is None:
                raise InvariantViolation("recovery", f"root {v}",
                                         [f"no residual path from {origin} to {target}"])
            excess[v] -= sign * res.augment(path, sign * excess[v])[0]


# -- component serialization ----------------------------------------------


def write_components(components):
    """`path <amount> v1 .. vk` / `cycle <amount> v1 .. vk v1`, one per line."""
    lines = []
    for comp in components:
        verts = " ".join(str(v) for v in comp.vertices)
        lines.append(f"{comp.kind} {format_value(comp.amount)} {verts}")
    return "\n".join(lines) + ("\n" if lines else "")
