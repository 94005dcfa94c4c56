"""Combinatorial applications of maximum flow.

* Bipartite perfect matching with a Hall-condition certificate on failure.
* Maximum sets of cover-disjoint maximal chains in a bounded poset.
* Two-label image segmentation by minimum cut on a pixel network.

Matching and chains pass unit-scale int capacities to `build_network`.
An image keeps its probabilities and penalties as ints over one scale,
the way a network keeps its capacities, from the PGM sample to the cut:
segmentation builds no Fraction per pixel or per pair, only its score,
cost and total mass at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# min_cut_from_flow is uncalled here; its binding stays because perfbench's
# tracer test wraps it in this module
from .decompose import decompose, min_cut_from_flow  # noqa: F401
from .network import InvariantViolation, NetworkError, ParseError, ScaledFlow, build_network
from .solvers import edmonds_karp
from .values import exact, lowest_terms, scaled


class NotBounded(NetworkError):
    """The poset lacks distinct bottom and top elements."""


class NotPartialOrder(NetworkError):
    pass


# -- Hall matchings ----------------------------------------------------------


class BipartiteGraph:
    """Balanced bipartite graph; edges are (i, j) pairs meaning v_i ~ w_j,
    both sides indexed 1..n.  An error about an edge carries ``at``, its
    index in `edges` (the later edge of a repeated pair), as
    :func:`flowkit.network.build_network` does for an arc."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = n
        seen = set()
        for k, (i, j) in enumerate(edges):
            if not (1 <= i <= n) or not (1 <= j <= n):
                raise NetworkError(f"edge ({i}, {j}) out of range", k)
            if (i, j) in seen:
                raise NetworkError(f"duplicate edge ({i}, {j})", k)
            seen.add((i, j))
        self.edges = tuple(sorted(seen))


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
    arcs = [(s, i, 1) for i in range(1, n + 1)]
    arcs += [(i, n + j, n + 1) for (i, j) in g.edges]
    arcs += [(n + j, t, 1) for j in range(1, n + 1)]
    return build_network(2 * n + 2, s, t, arcs, scale=1)


def _greedy_start(g):
    """The flow of a greedy matching on :func:`_matching_network`: the lefts
    in index order, each taking its lowest-index free neighbour, and unit
    flow on s -> i -> n+j -> t for each pair (i, j), in arc order."""
    n = g.n
    s, t = 2 * n + 1, 2 * n + 2
    taken = [False] * (2 * n + 1)   # lefts 1..n and rights n+1..2n already matched
    pairs = []
    for (i, j) in g.edges:
        if not taken[i] and not taken[n + j]:
            taken[i] = taken[n + j] = True
            pairs.append((i, n + j))
    arcs = [(s, i) for i, _ in pairs] + pairs
    arcs += [(w, t) for w in range(n + 1, 2 * n + 1) if taken[w]]
    return ScaledFlow(tuple([(a, 1) for a in arcs]), 1)


def perfect_matching(g):
    """A perfect matching, or a subset of the left side that witnesses the
    failure of the marriage condition.

    The witness is the left part of the minimum-cut source side; the cut
    accounting forces |N(S)| < |S| whenever the maximum flow is below n.

    Edmonds-Karp starts from :func:`_greedy_start`, the flow its first
    phase reaches, so it skips that phase.  Each of its paths is the
    least shortest s-t path, comparing paths as vertex sequences
    (:func:`flowkit.solvers.edmonds_karp`).  Take the residual graph of a
    partial greedy matching.  Row s holds only the lefts, and no left has
    an arc into t, so a path with 3 arcs is s, i, n+j, t: room on s -> i
    makes the left i unmatched, room on n+j -> t makes the right j free,
    and (i, j) is an edge.  The least of them takes the lowest unmatched
    left i with a free neighbour, and j its lowest free neighbour: the
    greedy's next pair, as a left that finds no free neighbour at its
    turn never finds one later, rights only being taken.  When no
    unmatched left has a free neighbour, no path with 3 arcs is left and
    the phase is over.  So the run
    from the greedy flow makes the same later augmentations on the same
    residual graphs, one per greedy pair fewer, and ends in the same flow
    and cut: the pairs and the Hall witness do not change.
    """
    net = _matching_network(g)
    result = edmonds_karp(net, flow=_greedy_start(g))
    n = g.n
    if result.value == n:
        pairs = tuple(sorted((u, v - n) for (u, v), _ in result.scaled.pairs
                             if 1 <= u <= n and n < v <= 2 * n))
        return PerfectMatching(pairs)
    subset = frozenset(v for v in result.cut.source_side if 1 <= v <= n)
    return HallViolation(subset)


# -- cover-disjoint chains -----------------------------------------------------


class Poset:
    """Finite poset with distinct bottom and top.

    Built from strict-order pairs (covers or any relation; the transitive
    closure is taken on ingest).  Raises NotPartialOrder on a repeated
    element, on a pair that is reflexive or names an unknown element, and
    on a cycle.  It raises NotBounded on a `bottom` or `top` that names no
    element, on a given top equal to the given bottom, and on the first
    element, in element order, that is not above a given bottom or not
    below a given top.  Each carries ``at``: ``("elements", k)`` for the
    later copy of a repeated element or for the element out of bounds,
    ``("relation", k)`` for a pair (for a cycle, one pair on it),
    ``("bottom", 0)`` or ``("top", 0)``, the top for a top equal to the
    bottom.
    """

    __slots__ = ("elements", "less", "bottom", "top", "_order")

    def __init__(self, elements, relation, bottom=None, top=None):
        self.elements = tuple(elements)
        order = {}
        for k, e in enumerate(self.elements):
            if e in order:
                raise NotPartialOrder(f"duplicate element {e}", ("elements", k))
            order[e] = k
        above = {e: set() for e in self.elements}
        for k, (a, b) in enumerate(relation):
            if a not in order or b not in order:
                raise NotPartialOrder(f"unknown element in pair ({a}, {b})", ("relation", k))
            if a == b:
                raise NotPartialOrder(f"reflexive pair ({a}, {b})", ("relation", k))
            above[a].add(b)
        for role, name in (("bottom", bottom), ("top", top)):
            if name is not None and name not in order:
                raise NotBounded(f"unknown {role} element {name}", (role, 0))
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
                raise NotPartialOrder(f"relation contains a cycle through {a}",
                                      ("relation", _pair_on_cycle(a, relation, above)))
            less.update((a, b) for b in seen)
        if bottom is not None and bottom == top:
            raise NotBounded(f"bottom and top are the same element {top}", ("top", 0))
        for k, x in enumerate(self.elements):
            if bottom is not None and x != bottom and (bottom, x) not in less:
                raise NotBounded(f"element {x} is not above the bottom {bottom}",
                                 ("elements", k))
            if top is not None and x != top and (x, top) not in less:
                raise NotBounded(f"element {x} is not below the top {top}", ("elements", k))
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
        """Pairs (a, b) with a < b and nothing strictly between, in element
        order: the successors of a less the successors of its successors."""
        above = {e: set() for e in self.elements}
        for (a, b) in self.less:
            above[a].add(b)
        out = []
        for a in self.elements:
            heads = above[a].difference(*[above[z] for z in above[a]])
            out.extend((a, b) for b in sorted(heads, key=self._order.__getitem__))
        return out

    def is_bounded(self):
        return (self.bottom is not None and self.top is not None
                and self.bottom != self.top
                and all(x == self.bottom or (self.bottom, x) in self.less
                        for x in self.elements)
                and all(x == self.top or (x, self.top) in self.less
                        for x in self.elements))


def _pair_on_cycle(a, relation, above):
    """The index of the first pair (a, b) of `relation` from which a can be
    reached along `above`, so that the pair lies on a cycle through a.
    Called only once a cycle through a is known."""
    for k, (x, b) in enumerate(relation):
        if x == a:
            seen, stack = set(), [b]
            while stack:
                v = stack.pop()
                if v == a:
                    return k
                if v not in seen:
                    seen.add(v)
                    stack.extend(above[v])


def max_disjoint_chains(p):
    """A maximum set of pairwise cover-disjoint maximal chains.

    Unit capacities on the cover relation turn the problem into integer
    maxflow from bottom to top; decomposing the certified flow's ints yields
    the chains.
    Greedy chain peeling is deliberately avoided: it can get stuck below
    the maximum.
    """
    if not p.is_bounded():
        raise NotBounded("poset needs distinct bottom and top below/above everything")
    index = {e: i + 1 for i, e in enumerate(p.elements)}
    covers = p.covers()
    arcs = [(index[a], index[b], 1) for (a, b) in covers]
    net = build_network(len(p.elements), index[p.bottom], index[p.top], arcs, scale=1)
    result = edmonds_karp(net)
    components = decompose(net, result.scaled)
    names = {i: e for e, i in index.items()}
    chains = []
    for comp in components:
        if comp.kind != "path" or comp.amount != 1:  # unit caps on a DAG
            raise InvariantViolation("unit path", "max_disjoint_chains", [comp])
        chains.append(tuple([names[v] for v in comp.vertices]))
    return chains


# -- image segmentation ----------------------------------------------------------


def grid_neighbor_pairs(width, height):
    """The 4-neighbour pairs (i, j), i < j, of a width x height grid whose
    pixels are numbered row-major from 0; each pixel's pair to the right
    comes before its pair below."""
    size = width * height
    pairs = []
    for i in range(size):
        if (i + 1) % width:
            pairs.append((i, i + 1))
        if i + width < size:
            pairs.append((i, i + width))
    return pairs


class PixelImage:
    """Grid of pixels with foreground/background probabilities and
    neighbor-separation penalties on the 4-neighborhood.

    Pixel (x, y) is number ``y * width + x`` (row-major), and `pairs` lists
    the 4-neighbour pairs by number (:func:`grid_neighbor_pairs`).  The
    values are stored once, as ints in units of ``1/scale``, the way a
    :class:`flowkit.network.Network` stores capacities: `fg` and `bg` per
    pixel and `penalty` per pair, where ``scale`` is the LCM of their
    reduced denominators.

    The constructor takes dicts of ints, Fractions or `p/q` strings: `fg`
    and `bg` keyed by (x, y) and `penalty` keyed by the frozenset of a
    pair's two pixels, 0 for a pair it lacks.  With `scale`, they are
    instead ints in units of ``1/scale``, per pixel and per pair in the
    order above, as :func:`image_from_pgm` passes them.  Either way the
    constructor checks in ints that every probability lies in [0, 1] and
    no penalty is negative, and reduces the ints over the scale by
    :func:`flowkit.values.lowest_terms`, as a network does.
    """

    __slots__ = ("width", "height", "scale", "fg", "bg", "pairs", "penalty")

    def __init__(self, width, height, fg, bg, penalty, scale=None):
        self.width = width
        self.height = height
        self.pairs = pairs = grid_neighbor_pairs(width, height)
        pixels = self.pixels()
        size = len(pixels)
        if scale is None:
            values = [exact(fg[p]) for p in pixels] + [exact(bg[p]) for p in pixels]
            values += [exact(penalty.get(frozenset({pixels[i], pixels[j]}), 0))
                       for (i, j) in pairs]
            ints, scale = scaled(values)
        else:
            ints = [*fg, *bg, *penalty]
        ints, self.scale = lowest_terms(ints, scale)
        self.fg, self.bg, self.penalty = ints[:size], ints[size:2 * size], ints[2 * size:]
        for p, a, b in zip(pixels, self.fg, self.bg):
            if not (0 <= a <= self.scale) or not (0 <= b <= self.scale):
                raise NetworkError(f"probabilities at {p} outside [0, 1]")
        for (i, j), c in zip(pairs, self.penalty):
            if c < 0:
                raise NetworkError(f"negative penalty between {pixels[i]} and {pixels[j]}")

    def pixels(self):
        return [(x, y) for y in range(self.height) for x in range(self.width)]


@dataclass
class Segmentation:
    foreground: frozenset
    score: Fraction           # s(A, B), maximized
    cost: Fraction            # s'(A, B) = mincut capacity
    total_mass: Fraction      # score + cost


def _segment_network(img):
    """Pixel v = 1..size (row-major), s = size + 1, t = size + 2: the arcs
    s -> v of capacity fg, then v -> t of capacity bg, then each neighbour
    pair both ways at its penalty, subdivided; the image's ints over its
    scale."""
    size = img.width * img.height
    s, t = size + 1, size + 2
    arcs = [(s, v, a) for v, a in enumerate(img.fg, 1)]
    arcs += [(v, t, b) for v, b in enumerate(img.bg, 1)]
    for (i, j), c in zip(img.pairs, img.penalty):
        arcs += [(i + 1, j + 1, c), (j + 1, i + 1, c)]
    return build_network(size + 2, s, t, arcs, allow_antiparallel=True, scale=img.scale)


def _segment_start(img):
    """The flow min(fg, bg) on s -> v -> t for each pixel v of
    :func:`_segment_network`, in arc order, over the image's scale."""
    size = img.width * img.height
    s, t = size + 1, size + 2
    low = [a if a < b else b for a, b in zip(img.fg, img.bg)]
    pairs = [((s, v), x) for v, x in enumerate(low, 1) if x]
    pairs += [((v, t), x) for v, x in enumerate(low, 1) if x]
    return ScaledFlow(tuple(pairs), img.scale)


def segment_image(img):
    """Best foreground/background split via minimum cut.

    Pixels connect to the source with their foreground probability and to
    the sink with their background probability; each neighbor pair becomes
    an antiparallel penalty pair, subdivided to keep the network simple.
    The residual-reachability cut makes ties deterministic (ties fall to
    the background).

    Edmonds-Karp starts from :func:`_segment_start`, the flow its phase of
    length-2 paths reaches.  Those paths are s -> v -> t, as no arc joins
    s to t, and each path Edmonds-Karp takes is the least shortest one as
    a vertex sequence (:func:`flowkit.solvers.edmonds_karp`): the one
    through the lowest pixel with room on both of its arcs.  Its
    augmentation pushes min(fg, bg) and saturates one of the two, so each
    pixel is taken once, in index order, and the phase ends with
    min(fg, bg) on each pixel's two arcs.  The run from that flow makes the
    same later augmentations, one per pixel with min(fg, bg) > 0 fewer,
    and ends in the same flow and cut.

    The network takes the image's ints over its scale, so no capacity
    Fraction is built.  The score s(A, B) (kept probabilities less the
    penalties across the boundary), the cost s'(A, B) (discarded
    probabilities plus those penalties) and the total mass are three int
    sums, each made a Fraction once; the cost must equal the certified
    maximum flow value, else :class:`InvariantViolation` ("cut cost").
    """
    size, scale = img.width * img.height, img.scale
    result = edmonds_karp(_segment_network(img), flow=_segment_start(img))
    side = result.cut.source_side
    inside = [v in side for v in range(1, size + 1)]
    split = sum(c for (i, j), c in zip(img.pairs, img.penalty) if inside[i] != inside[j])
    kept = sum(a if x else b for a, b, x in zip(img.fg, img.bg, inside))
    cost = sum(b if x else a for a, b, x in zip(img.fg, img.bg, inside)) + split
    value = result.value
    if cost * value.denominator != value.numerator * scale:
        raise InvariantViolation("cut cost", "segment_image", [Fraction(cost, scale), value])
    foreground = frozenset(p for p, x in zip(img.pixels(), inside) if x)
    return Segmentation(foreground, Fraction(kept - split, scale), Fraction(cost, scale),
                        Fraction(sum(img.fg) + sum(img.bg), scale))


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
    if maxval < 1:
        raise ParseError(f"maxval must be at least 1, got {maxval}")
    if len(data) != width * height:
        raise ParseError(f"expected {width * height} samples, found {len(data)}")
    if any(not (0 <= g <= maxval) for g in data):
        raise ParseError("samples outside the declared range")
    rows = [data[y * width:(y + 1) * width] for y in range(height)]
    return width, height, maxval, rows


def image_from_pgm(text, penalty_value):
    """Heuristic probabilities from gray levels: fg = g / maxval,
    bg = 1 - fg, one uniform separation penalty p/q.

    The values go to the image as ints over scale = lcm(maxval, q):
    fg = g * (scale / maxval), bg = scale - fg and the penalty
    p * (scale / q).  No Fraction is built per pixel or per pair.  A
    negative penalty is refused once, before any pair, so also on an image
    that has none.
    """
    width, height, maxval, rows = read_pgm(text)
    penalty = exact(penalty_value)
    if penalty < 0:
        raise NetworkError(f"negative penalty {penalty}")
    p, q = penalty.numerator, penalty.denominator
    scale = math.lcm(maxval, q)
    k = scale // maxval
    fg = [g * k for row in rows for g in row]
    npairs = (width - 1) * height + width * (height - 1)
    return PixelImage(width, height, fg, [scale - a for a in fg], [p * (scale // q)] * npairs,
                      scale=scale)


def write_pbm(width, height, foreground):
    """Plain (P1) bitmap; 1 marks foreground pixels."""
    fg = set(foreground)
    lines = ["P1", f"{width} {height}"]
    for y in range(height):
        lines.append(" ".join("1" if (x, y) in fg else "0" for x in range(width)))
    return "\n".join(lines) + "\n"


def read_poset(text):
    """`el <name>`, `cover <a> <b>`, `bottom <name>` and `top <name>` lines.

    A repeated element is an error at its later `el` line, a pair that is
    reflexive or names an unknown element at its `cover` line, a cycle at
    the `cover` line of one of its pairs, and a `bottom` or `top` that
    names no element at its own line.  A `top` equal to the `bottom` is
    an error at the `top` line, and the first element not above the
    bottom or not below the top at its `el` line.
    """
    elements, el_lines = [], []
    pairs, cover_lines = [], []
    bottom = top = None
    lines = {"elements": el_lines, "relation": cover_lines}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "el" and len(fields) == 2:
            elements.append(fields[1])
            el_lines.append(line_no)
        elif fields[0] == "cover" and len(fields) == 3:
            pairs.append((fields[1], fields[2]))
            cover_lines.append(line_no)
        elif fields[0] == "bottom" and len(fields) == 2:
            if bottom is not None:
                raise ParseError("duplicate bottom line", line_no)
            bottom, lines["bottom"] = fields[1], [line_no]
        elif fields[0] == "top" and len(fields) == 2:
            if top is not None:
                raise ParseError("duplicate top line", line_no)
            top, lines["top"] = fields[1], [line_no]
        else:
            raise ParseError(f"unknown record {line!r}", line_no)
    try:
        return Poset(elements, pairs, bottom=bottom, top=top)
    except (NotPartialOrder, NotBounded) as exc:
        where, k = exc.at
        raise ParseError(str(exc), lines[where][k])


def read_bipartite(text):
    """`p matching <n> <m>` header and `e <i> <j>` edge lines.

    A negative vertex or edge count, and an edge count that the `e` lines
    do not match, are errors at the `p` line, which they name.  An edge
    out of range, or repeated, is an error at its `e` line (the later one
    of a repeated pair).
    """
    n = m = p_line = None
    edges, edge_lines = [], []
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
                n, m, p_line = int(fields[2]), int(fields[3]), line_no
                if n < 0:
                    raise ParseError(f"vertex count must be non-negative, got {n}", line_no)
                if m < 0:
                    raise ParseError(f"edge count must be non-negative, got {m}", line_no)
            elif fields[0] == "e":
                if n is None:
                    raise ParseError("edge before problem line", line_no)
                if len(fields) != 3:
                    raise ParseError("expected `e <i> <j>`", line_no)
                edges.append((int(fields[1]), int(fields[2])))
                edge_lines.append(line_no)
            else:
                raise ParseError(f"unknown record type {fields[0]!r}", line_no)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
    if n is None:
        raise ParseError("missing problem line")
    if m != len(edges):
        raise ParseError(f"problem line announced {m} edges, found {len(edges)}", p_line)
    try:
        return BipartiteGraph(n, edges)
    except NetworkError as exc:
        raise ParseError(str(exc), edge_lines[exc.at])
