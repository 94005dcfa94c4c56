"""Combinatorial applications of maximum flow.

* Bipartite perfect matching with a Hall-condition certificate on failure.
* Maximum sets of cover-disjoint maximal chains in a bounded poset.
* Two-label image segmentation by minimum cut on a pixel network.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# min_cut_from_flow is uncalled here; its binding stays because perfbench's
# tracer test wraps it in this module
from .decompose import decompose, min_cut_from_flow  # noqa: F401
from .network import InvariantViolation, NetworkError, ParseError, build_network
from .solvers import edmonds_karp
from .values import exact


class NotBounded(NetworkError):
    """The poset lacks distinct bottom and top elements."""


class NotPartialOrder(NetworkError):
    pass


# -- Hall matchings ----------------------------------------------------------


class BipartiteGraph:
    """Balanced bipartite graph; edges are (i, j) pairs meaning v_i ~ w_j,
    both sides indexed 1..n."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = n
        seen = set()
        for (i, j) in edges:
            if not (1 <= i <= n) or not (1 <= j <= n):
                raise NetworkError(f"edge ({i}, {j}) out of range")
            if (i, j) in seen:
                raise NetworkError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        self.edges = tuple(sorted(seen))

    def neighborhood(self, subset):
        return frozenset(j for (i, j) in self.edges if i in subset)


@dataclass(frozen=True)
class PerfectMatching:
    pairs: tuple              # (i, j) with every i and every j exactly once


@dataclass(frozen=True)
class HallViolation:
    subset: frozenset         # S with |N(S)| < |S|


def _matching_network(g):
    # s=2n+1, t=2n+2; left i, right n+j; cross arcs get capacity n+1 so a
    # minimum cut never severs them
    n = g.n
    s, t = 2 * n + 1, 2 * n + 2
    arcs = [(s, i, Fraction(1)) for i in range(1, n + 1)]
    arcs += [(i, n + j, Fraction(n + 1)) for (i, j) in g.edges]
    arcs += [(n + j, t, Fraction(1)) for j in range(1, n + 1)]
    return build_network(2 * n + 2, s, t, arcs)


def perfect_matching(g):
    """A perfect matching, or a subset of the left side that witnesses the
    failure of the marriage condition.

    The witness is the left part of the minimum-cut source side; the cut
    accounting forces |N(S)| < |S| whenever the maximum flow is below n.
    """
    net = _matching_network(g)
    result = edmonds_karp(net)
    n = g.n
    if result.value == n:
        pairs = tuple(sorted((u, v - n) for (u, v, x) in result.flow.positive_arcs(net)
                             if 1 <= u <= n and n < v <= 2 * n and x > 0))
        return PerfectMatching(pairs)
    subset = frozenset(v for v in result.cut.source_side if 1 <= v <= n)
    return HallViolation(subset)


# -- cover-disjoint chains -----------------------------------------------------


class Poset:
    """Finite poset with distinct bottom and top.

    Built from strict-order pairs (covers or any relation; the transitive
    closure is taken on ingest).  Raises NotPartialOrder on cycles.
    """

    __slots__ = ("elements", "less", "bottom", "top", "_order")

    def __init__(self, elements, relation, bottom=None, top=None):
        self.elements = tuple(elements)
        order = {e: i for i, e in enumerate(self.elements)}
        if len(order) != len(self.elements):
            raise NotPartialOrder("duplicate elements")
        above = {e: set() for e in self.elements}
        for (a, b) in relation:
            if a not in order or b not in order:
                raise NotPartialOrder(f"unknown element in pair ({a}, {b})")
            if a == b:
                raise NotPartialOrder(f"reflexive pair ({a}, {b})")
            above[a].add(b)
        # transitive closure: one depth-first search per element
        less = set()
        for a in self.elements:
            seen = set()
            stack = list(above[a])
            while stack:
                b = stack.pop()
                if b not in seen:
                    seen.add(b)
                    stack.extend(above[b])
            if a in seen:
                raise NotPartialOrder("relation contains a cycle")
            less.update((a, b) for b in seen)
        self.less = frozenset(less)
        self._order = order
        self.bottom = bottom if bottom is not None else self._find_bottom()
        self.top = top if top is not None else self._find_top()

    def _find_bottom(self):
        below = [e for e in self.elements
                 if all(x == e or (e, x) in self.less for x in self.elements)]
        return below[0] if len(below) == 1 else None

    def _find_top(self):
        above = [e for e in self.elements
                 if all(x == e or (x, e) in self.less for x in self.elements)]
        return above[0] if len(above) == 1 else None

    def covers(self):
        """Pairs (a, b) with a < b and nothing strictly between."""
        out = []
        order = self._order
        for (a, b) in sorted(self.less, key=lambda p: (order[p[0]], order[p[1]])):
            if not any((a, z) in self.less and (z, b) in self.less for z in self.elements):
                out.append((a, b))
        return out

    def is_bounded(self):
        return (self.bottom is not None and self.top is not None
                and self.bottom != self.top
                and all(x == self.bottom or (self.bottom, x) in self.less
                        for x in self.elements)
                and all(x == self.top or (x, self.top) in self.less
                        for x in self.elements))


def max_disjoint_chains(p):
    """A maximum set of pairwise cover-disjoint maximal chains.

    Unit capacities on the cover relation turn the problem into integer
    maxflow from bottom to top; decomposing the flow yields the chains.
    Greedy chain peeling is deliberately avoided: it can get stuck below
    the maximum.
    """
    if not p.is_bounded():
        raise NotBounded("poset needs distinct bottom and top below/above everything")
    index = {e: i + 1 for i, e in enumerate(p.elements)}
    covers = p.covers()
    arcs = [(index[a], index[b], Fraction(1)) for (a, b) in covers]
    net = build_network(len(p.elements), index[p.bottom], index[p.top], arcs)
    result = edmonds_karp(net)
    components = decompose(net, result.flow)
    names = {i: e for e, i in index.items()}
    chains = []
    for comp in components:
        if comp.kind != "path" or comp.amount != 1:  # unit caps on a DAG
            raise InvariantViolation("unit path", "max_disjoint_chains", [comp])
        chains.append(tuple(names[v] for v in comp.vertices))
    return chains


def chain_is_maximal(p, chain):
    """Definition check: no element of the poset extends the chain."""
    members = set(chain)
    for x in p.elements:
        if x in members:
            continue
        if all((x, y) in p.less or (y, x) in p.less for y in members):
            return False
    return True


# -- image segmentation ----------------------------------------------------------


def grid_neighbor_pairs(width, height):
    pairs = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                pairs.append(frozenset({(x, y), (x + 1, y)}))
            if y + 1 < height:
                pairs.append(frozenset({(x, y), (x, y + 1)}))
    return pairs


class PixelImage:
    """Grid of pixels with foreground/background probabilities and
    neighbor-separation penalties on the 4-neighborhood."""

    __slots__ = ("width", "height", "fg", "bg", "penalty")

    def __init__(self, width, height, fg, bg, penalty):
        self.width = width
        self.height = height
        self.fg = {}
        self.bg = {}
        for p in self.pixels():
            a, b = exact(fg[p]), exact(bg[p])
            if not (0 <= a <= 1) or not (0 <= b <= 1):
                raise NetworkError(f"probabilities at {p} outside [0, 1]")
            self.fg[p], self.bg[p] = a, b
        self.penalty = {}
        for pair in self.neighbor_pairs():
            val = exact(penalty[pair]) if pair in penalty else Fraction(0)
            if val < 0:
                raise NetworkError(f"negative penalty on {pair}")
            self.penalty[pair] = val

    def pixels(self):
        return [(x, y) for y in range(self.height) for x in range(self.width)]

    def neighbor_pairs(self):
        return grid_neighbor_pairs(self.width, self.height)

    def total_mass(self):
        return sum((self.fg[p] + self.bg[p] for p in self.pixels()), Fraction(0))


def uniform_penalty(width, height, value):
    return {pair: Fraction(value) for pair in grid_neighbor_pairs(width, height)}


def segmentation_score(img, foreground):
    """s(A, B): kept probabilities minus penalties across the boundary."""
    fg = set(foreground)
    total = Fraction(0)
    for p in img.pixels():
        total += img.fg[p] if p in fg else img.bg[p]
    for pair in img.neighbor_pairs():
        if len(pair & fg) == 1:
            total -= img.penalty[pair]
    return total


def segmentation_cost(img, foreground):
    """s'(A, B): discarded probabilities plus boundary penalties;
    s + s' is the constant total mass."""
    fg = set(foreground)
    total = Fraction(0)
    for p in img.pixels():
        total += img.bg[p] if p in fg else img.fg[p]
    for pair in img.neighbor_pairs():
        if len(pair & fg) == 1:
            total += img.penalty[pair]
    return total


@dataclass
class Segmentation:
    foreground: frozenset
    score: Fraction           # s(A, B), maximized
    cost: Fraction            # s'(A, B) = mincut capacity
    total_mass: Fraction      # score + cost


def segment_image(img):
    """Best foreground/background split via minimum cut.

    Pixels connect to the source with their foreground probability and to
    the sink with their background probability; each neighbor pair becomes
    an antiparallel penalty pair, subdivided to keep the network simple.
    The residual-reachability cut makes ties deterministic (ties fall to
    the background).
    """
    pixels = img.pixels()
    pid = {p: i + 1 for i, p in enumerate(pixels)}
    npix = len(pixels)
    s, t = npix + 1, npix + 2
    arcs = [(s, pid[p], img.fg[p]) for p in pixels]
    arcs += [(pid[p], t, img.bg[p]) for p in pixels]
    for pair in img.neighbor_pairs():
        p, q = sorted(pair)
        arcs.append((pid[p], pid[q], img.penalty[pair]))
        arcs.append((pid[q], pid[p], img.penalty[pair]))
    net = build_network(npix + 2, s, t, arcs, allow_antiparallel=True)
    result = edmonds_karp(net)
    foreground = frozenset(p for p in pixels if pid[p] in result.cut.source_side)
    cost = segmentation_cost(img, foreground)
    if cost != result.value:
        raise InvariantViolation("cut cost", "segment_image", [cost, result.value])
    return Segmentation(foreground, segmentation_score(img, foreground),
                        cost, img.total_mass())


# -- file formats -----------------------------------------------------------------


def read_pgm(text):
    """Plain (P2) grayscale image; returns (width, height, maxval, rows)."""
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ParseError("expected a P2 grayscale header")
    if len(tokens) < 4:
        raise ParseError("truncated image header")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        data = [int(tok) for tok in tokens[4:]]
    except ValueError as exc:
        raise ParseError(str(exc))
    if width < 1 or height < 1:
        raise ParseError(f"image size must be at least 1 x 1, got {width} x {height}")
    if len(data) != width * height:
        raise ParseError(f"expected {width * height} samples, found {len(data)}")
    if maxval <= 0 or any(not (0 <= g <= maxval) for g in data):
        raise ParseError("samples outside the declared range")
    rows = [data[y * width:(y + 1) * width] for y in range(height)]
    return width, height, maxval, rows


def image_from_pgm(text, penalty_value):
    """Heuristic probabilities from gray levels: fg = g / maxval,
    bg = 1 - fg, one uniform separation penalty."""
    width, height, maxval, rows = read_pgm(text)
    fg = {(x, y): Fraction(rows[y][x], maxval) for y in range(height) for x in range(width)}
    bg = {p: 1 - v for p, v in fg.items()}
    return PixelImage(width, height, fg, bg, uniform_penalty(width, height, penalty_value))


def write_pbm(width, height, foreground):
    """Plain (P1) bitmap; 1 marks foreground pixels."""
    fg = set(foreground)
    lines = ["P1", f"{width} {height}"]
    for y in range(height):
        lines.append(" ".join("1" if (x, y) in fg else "0" for x in range(width)))
    return "\n".join(lines) + "\n"


def write_poset(p):
    lines = [f"el {e}" for e in p.elements]
    lines.append(f"bottom {p.bottom}")
    lines.append(f"top {p.top}")
    lines += [f"cover {a} {b}" for (a, b) in p.covers()]
    return "\n".join(lines) + "\n"


def read_poset(text):
    elements = []
    pairs = []
    bottom = top = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "el" and len(fields) == 2:
            elements.append(fields[1])
        elif fields[0] == "cover" and len(fields) == 3:
            pairs.append((fields[1], fields[2]))
        elif fields[0] == "bottom" and len(fields) == 2:
            if bottom is not None:
                raise ParseError("duplicate bottom line", line_no)
            bottom = fields[1]
        elif fields[0] == "top" and len(fields) == 2:
            if top is not None:
                raise ParseError("duplicate top line", line_no)
            top = fields[1]
        else:
            raise ParseError(f"unknown record {line!r}", line_no)
    try:
        return Poset(elements, pairs, bottom=bottom, top=top)
    except NotPartialOrder as exc:
        raise ParseError(str(exc))


def read_bipartite(text):
    """`p matching <n> <m>` header and `e <i> <j>` edge lines."""
    n = m = None
    edges = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        try:
            if fields[0] == "p":
                if n is not None:
                    raise ParseError("duplicate problem line", line_no)
                if len(fields) != 4 or fields[1] != "matching":
                    raise ParseError("expected `p matching <n> <m>`", line_no)
                n, m = int(fields[2]), int(fields[3])
            elif fields[0] == "e":
                if n is None:
                    raise ParseError("edge before problem line", line_no)
                if len(fields) != 3:
                    raise ParseError("expected `e <i> <j>`", line_no)
                edges.append((int(fields[1]), int(fields[2])))
            else:
                raise ParseError(f"unknown record type {fields[0]!r}", line_no)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
    if n is None:
        raise ParseError("missing problem line")
    if m is not None and m != len(edges):
        raise ParseError(f"problem line announced {m} edges, found {len(edges)}")
    try:
        return BipartiteGraph(n, edges)
    except NetworkError as exc:
        raise ParseError(str(exc))
