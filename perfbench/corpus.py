"""Seeded instance generators and the operation mix of each workload.

Everything here is plain Python over ``random.Random`` and ``Fraction``:
the corpus must not depend on flowkit, so that a change to the library
cannot change the inputs it is measured on.  The same ``(workload, seed)``
always yields the same files and the same operation list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("reductions", "maxflow", "exact-lp")

# pairwise coprime denominators: the LCM of a network's capacities grows
# with every new prime, which is what exact arithmetic pays for
DENOMINATORS = (7, 11, 13, 17, 19, 23)
PENALTY = Fraction(1, 10)


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- instance types ---------------------------------------------------------


@dataclass
class Net:
    """Graph network: vertices 1..n, arcs as (u, v, Fraction capacity)."""

    n: int
    s: int
    t: int
    arcs: list

    def text(self):
        lines = [f"p max {self.n} {len(self.arcs)}", f"n {self.s} s", f"n {self.t} t"]
        lines += [f"a {u} {v} {fmt(c)}" for (u, v, c) in self.arcs]
        return "\n".join(lines) + "\n"


@dataclass
class Image:
    """Plain grayscale image, rows of ints in 0..maxval."""

    width: int
    height: int
    maxval: int
    rows: list

    def text(self):
        lines = ["P2", f"{self.width} {self.height}", str(self.maxval)]
        lines += [" ".join(str(g) for g in row) for row in self.rows]
        return "\n".join(lines) + "\n"


@dataclass
class Bipartite:
    """Both sides indexed 1..n; edges (i, j) join left i to right j."""

    n: int
    edges: list

    def text(self):
        lines = [f"p matching {self.n} {len(self.edges)}"]
        lines += [f"e {i} {j}" for (i, j) in self.edges]
        return "\n".join(lines) + "\n"


@dataclass
class GradedPoset:
    """Bounded poset given by its Hasse diagram; covers join adjacent ranks
    only, so every listed pair is a cover and no cover is implied."""

    elements: list
    bottom: str
    top: str
    covers: list

    def text(self):
        lines = [f"el {e}" for e in self.elements]
        lines += [f"bottom {self.bottom}", f"top {self.top}"]
        lines += [f"cover {a} {b}" for (a, b) in self.covers]
        return "\n".join(lines) + "\n"


@dataclass
class Complex:
    """Oriented pure complex: facet j is an ordered vertex tuple; facet
    ``t_index`` is the source facet, every other facet has ``caps[j]``.
    ``graph`` is the network a dimension-1 complex encodes, else None."""

    dim: int
    facets: list
    t_index: int
    caps: dict
    graph: Net | None = None

    def text(self):
        lines = [f"hnet dim {self.dim}"]
        for j, facet in enumerate(self.facets):
            verts = " ".join(str(v) for v in facet)
            lines.append(f"t {verts}" if j == self.t_index else f"f {verts} {fmt(self.caps[j])}")
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One CLI call: ``flowkit <command> <flags...> <file> -o <out>``."""

    key: str
    command: str
    flags: tuple
    instance: str

    def argv(self, input_path, output_path):
        return [self.command, *self.flags, input_path, "-o", output_path]


@dataclass
class Corpus:
    workload: str
    seed: int
    instances: dict = field(default_factory=dict)   # name -> instance
    ops: list = field(default_factory=list)

    def add(self, name, instance):
        self.instances[name] = instance
        return name

    def suffix(self, name):
        kind = type(self.instances[name])
        return {Net: ".dimacs", Image: ".pgm", Bipartite: ".txt",
                GradedPoset: ".poset", Complex: ".hnet"}[kind]

    def commands(self):
        """Operations per command, in first-seen order."""
        counts = {}
        for op in self.ops:
            counts[op.command] = counts.get(op.command, 0) + 1
        return counts


# -- generators -------------------------------------------------------------


def _capacity(rng, rational, lo, hi):
    if not rational:
        return Fraction(rng.randint(lo, hi))
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * q, hi * q), q)


def layered_network(rng, layers, width, rational):
    """Source -> layer 0 -> ... -> layer L-1 -> sink, each vertex wired to
    three distinct vertices of the next layer."""
    s = 1
    t = layers * width + 2

    def vid(layer, k):
        return 2 + layer * width + k

    arcs = [(s, vid(0, k), _capacity(rng, rational, 5, 30)) for k in range(width)]
    for layer in range(layers - 1):
        for k in range(width):
            for k2 in sorted(rng.sample(range(width), 3)):
                arcs.append((vid(layer, k), vid(layer + 1, k2), _capacity(rng, rational, 1, 20)))
    arcs += [(vid(layers - 1, k), t, _capacity(rng, rational, 5, 30)) for k in range(width)]
    return Net(t, s, t, arcs)


def sparse_network(rng, n, m, rational, st_arc=True):
    """Random simple network on 1..n with s=1, t=n: no arc enters s or
    leaves t, no antiparallel pair, and s and t each get a few arcs so
    that the maximum flow is rarely zero."""
    s, t = 1, n
    chosen = {}

    def try_add(u, v):
        if u == v or v == s or u == t or (u, v) in chosen or (v, u) in chosen:
            return
        if not st_arc and (u, v) == (s, t):
            return
        chosen[(u, v)] = _capacity(rng, rational, 1, 20)

    for v in rng.sample(range(2, n), min(4, n - 2)):
        try_add(s, v)
        try_add(rng.randrange(2, n), t)
    while len(chosen) < m:
        try_add(rng.randint(1, n), rng.randint(1, n))
    return Net(n, s, t, [(u, v, c) for (u, v), c in chosen.items()])


def blob_image(rng, width, height):
    """A bright ellipse on a dark background plus uniform noise."""
    cx, cy = rng.uniform(0.3, 0.7) * width, rng.uniform(0.3, 0.7) * height
    rx, ry = rng.uniform(0.2, 0.4) * width, rng.uniform(0.2, 0.4) * height
    rows = []
    for y in range(height):
        row = []
        for x in range(width):
            inside = ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 <= 1
            base = 190 if inside else 65
            row.append(max(0, min(255, base + rng.randint(-60, 60))))
        rows.append(row)
    return Image(width, height, 255, rows)


def bipartite_graph(rng, n, violate):
    """A perfect matching hidden among random edges; with ``violate`` a
    random left subset S is confined to |S|-1 right vertices, which breaks
    Hall's condition."""
    edges = set()
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    confined = {}
    if violate:
        k = rng.randint(2, max(2, n // 4))
        left = rng.sample(range(1, n + 1), k)
        right = rng.sample(range(1, n + 1), k - 1)
        confined = {i: right for i in left}
    for i in range(1, n + 1):
        pool = confined.get(i)
        if pool is None:
            edges.add((i, perm[i - 1]))
            targets = rng.sample(range(1, n + 1), 2)
        else:
            targets = rng.sample(pool, min(3, len(pool)))
        edges.update((i, j) for j in targets)
    return Bipartite(n, sorted(edges))


def graded_poset(rng, ranks, width_lo, width_hi):
    """Bottom, ``ranks`` antichains of random width, top; each element gets
    at least one cover below and above it, so the poset is bounded."""
    levels = [["b"]]
    for r in range(ranks):
        levels.append([f"e{r}_{k}" for k in range(rng.randint(width_lo, width_hi))])
    levels.append(["t"])
    covers = []
    for lo, hi in zip(levels, levels[1:]):
        pairs = {(a, b) for a in lo for b in hi if len(lo) == 1 or len(hi) == 1 or rng.random() < 0.35}
        for a in lo:
            if not any(x == a for (x, _) in pairs):
                pairs.add((a, rng.choice(hi)))
        for b in hi:
            if not any(y == b for (_, y) in pairs):
                pairs.add((rng.choice(lo), b))
        covers += sorted(pairs)
    elements = [e for level in levels for e in level]
    return GradedPoset(elements, "b", "t", covers)


def edge_sign(tri, edge):
    """Sign of the sorted edge in the boundary of the oriented triangle."""
    for i in range(3):
        face = tri[:i] + tri[i + 1:]
        if sorted(face) == list(edge):
            sign = -1 if i % 2 else 1
            return sign if face[0] < face[1] else -sign
    return 0


def random_complex(rng, facets, vertices):
    """Random oriented 2-complex with ``facets`` triangles on ``vertices``
    vertices.  The source facet is one whose edges are most shared, and
    facets meeting it are flipped where needed to satisfy the source
    condition (opposite signs on every shared edge)."""
    pool = list(combinations(range(1, vertices + 1), 3))
    chosen = rng.sample(pool, facets)

    def shared_edges(i):
        edges = combinations(chosen[i], 2)
        return sum(1 for e in edges if any(set(e) <= set(chosen[j])
                                           for j in range(facets) if j != i))

    best = max(shared_edges(i) for i in range(facets))
    t_index = rng.choice([i for i in range(facets) if shared_edges(i) == best])
    tris = []
    for tri in chosen:
        tri = list(tri)
        rng.shuffle(tri)
        tris.append(tuple(tri))
    t_tri = tris[t_index]
    for j, tri in enumerate(tris):
        shared = set(t_tri) & set(tri)
        if j != t_index and len(shared) == 2:
            edge = tuple(sorted(shared))
            if edge_sign(tri, edge) == edge_sign(t_tri, edge):
                tris[j] = (tri[1], tri[0], tri[2])
    caps = {j: Fraction(rng.randint(0, 5)) for j in range(facets) if j != t_index}
    return Complex(2, tris, t_index, caps)


def graph_complex(net):
    """Dimension-1 encoding: arc (u, v) becomes the 1-simplex (v, u), and
    the source facet is the return arc (s, t), enumerated last."""
    facets = [(v, u) for (u, v, _) in net.arcs] + [(net.s, net.t)]
    caps = {j: c for j, (_, _, c) in enumerate(net.arcs)}
    return Complex(1, facets, len(facets) - 1, caps, graph=net)


# -- workloads --------------------------------------------------------------
#
# Every workload is a list of strata: a fixed instance shape and how many
# instances of it one pass holds.  The seed changes only the wiring,
# capacities and pixels, never the mix, so the runs of different seeds
# differ little.  The counts are chosen so that the median and the 90th
# percentile latency fall inside a populous stratum rather than in a gap
# between two: a percentile that sits on such a gap jumps between seeds.

SEGMENT_SHAPES = {(6, 6): 15, (8, 6): 15, (7, 7): 12, (9, 9): 3, (10, 8): 3,
                  (10, 10): 2, (11, 11): 1, (12, 10): 1}
MATCHING_SIZES = {40: 5, 45: 4, 50: 5, 55: 4, 60: 5, 65: 6, 70: 12, 75: 12, 80: 15}
POSET_SHAPES = ((4, 5, 8), (5, 4, 7), (6, 4, 6), (7, 3, 6), (5, 5, 8), (6, 3, 6))
POSETS = 45
# (layers, width): (networks, of which push-relabel also runs on)
LAYERED_SHAPES = {(6, 8): (12, 12), (7, 9): (12, 0), (8, 10): (12, 0), (9, 8): (12, 0),
                  (10, 9): (12, 0), (6, 10): (12, 6)}
SPARSE_NETWORKS = 24
LP_SIZES = {8: 12, 9: 12, 10: 12}
COMPLEX_FACETS = {8: 15, 9: 15, 10: 15, 11: 15, 12: 15, 13: 15, 14: 15}


def _reductions(corpus, rng):
    k = 0
    for (width, height), count in SEGMENT_SHAPES.items():
        for _ in range(count):
            name = corpus.add(f"img{k:02d}", blob_image(rng, width, height))
            corpus.ops.append(Op(f"segment/{name}", "segment", ("--penalty", fmt(PENALTY)), name))
            k += 1
    k = 0
    for n, count in MATCHING_SIZES.items():
        for _ in range(count):
            name = corpus.add(f"bip{k:02d}", bipartite_graph(rng, n, violate=k % 2 == 1))
            corpus.ops.append(Op(f"matching/{name}", "matching", (), name))
            k += 1
    for k in range(POSETS):
        ranks, lo, hi = POSET_SHAPES[k % len(POSET_SHAPES)]
        name = corpus.add(f"poset{k:02d}", graded_poset(rng, ranks, lo, hi))
        corpus.ops.append(Op(f"chains/{name}", "chains", (), name))


def _maxflow(corpus, rng):
    # push-relabel costs five to ten times what the other solvers cost on
    # a layered network, so it runs on a few small ones only; on every
    # network it would take most of the timed wall-clock
    k = 0
    for (layers, width), (count, with_pr) in LAYERED_SHAPES.items():
        for i in range(count):
            name = corpus.add(f"layer{k:02d}",
                              layered_network(rng, layers, width, rational=i % 2 == 1))
            algos = ("ek", "pr", "hoch") if i < with_pr else ("ek", "hoch")
            for algo in algos:
                corpus.ops.append(Op(f"maxflow-{algo}/{name}", "maxflow", (f"--algo={algo}",), name))
            corpus.ops.append(Op(f"mincut/{name}", "mincut", (), name))
            k += 1
    for k in range(SPARSE_NETWORKS):
        name = corpus.add(f"sparse{k:02d}", sparse_network(rng, 80, 320, rational=k % 2 == 1))
        for algo in ("ek", "hoch"):
            corpus.ops.append(Op(f"maxflow-{algo}/{name}", "maxflow", (f"--algo={algo}",), name))
        corpus.ops.append(Op(f"mincut/{name}", "mincut", (), name))


def _exact_lp(corpus, rng):
    k = 0
    for n, count in LP_SIZES.items():
        for _ in range(count):
            net = sparse_network(rng, n, round(2.5 * n), rational=True, st_arc=False)
            name = corpus.add(f"lpnet{k:02d}", net)
            corpus.ops.append(Op(f"lp-dual/{name}", "lp-dual", (), name))
            hname = corpus.add(f"hgraph{k:02d}", graph_complex(net))
            corpus.ops.append(Op(f"hflow-all/{hname}", "hflow", ("--algo=all",), hname))
            corpus.ops.append(Op(f"hflow-lp/{hname}", "hflow", (), hname))
            k += 1
    k = 0
    for facets, count in COMPLEX_FACETS.items():
        for _ in range(count):
            name = corpus.add(f"hcx{k:02d}", random_complex(rng, facets, 6 if facets < 12 else 7))
            corpus.ops.append(Op(f"hflow-all/{name}", "hflow", ("--algo=all",), name))
            corpus.ops.append(Op(f"hflow-lp/{name}", "hflow", (), name))
            k += 1


# one small operation per command, the same for every seed, so that the
# set-up time does not depend on which instances a seed happens to draw
WARMUPS = {
    "reductions": lambda rng: [
        ("segment", ("--penalty", fmt(PENALTY)), blob_image(rng, 6, 6)),
        ("matching", (), bipartite_graph(rng, 40, violate=False)),
        ("chains", (), graded_poset(rng, 4, 5, 8))],
    "maxflow": lambda rng: [
        ("maxflow", ("--algo=ek",), layered_network(rng, 6, 8, rational=True)),
        ("mincut", (), layered_network(rng, 6, 8, rational=False))],
    "exact-lp": lambda rng: [
        ("lp-dual", (), sparse_network(rng, 8, 20, rational=True, st_arc=False)),
        ("hflow", ("--algo=all",), random_complex(rng, 8, 6))],
}


def warmup(workload):
    """The fixed warm-up corpus of a workload."""
    corpus = Corpus(workload, None)
    for k, (command, flags, instance) in enumerate(
            WARMUPS[workload](random.Random(f"flowkit-bench:{workload}:warmup"))):
        name = corpus.add(f"warmup{k}", instance)
        corpus.ops.append(Op(f"{command}/{name}", command, flags, name))
    return corpus


BUILDERS = {"reductions": _reductions, "maxflow": _maxflow, "exact-lp": _exact_lp}


def build(workload, seed):
    """The corpus of one workload for one seed; the operation order inside
    a pass is shuffled by the seed so that commands interleave."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"flowkit-bench:{workload}:{seed}")
    corpus = Corpus(workload, seed)
    BUILDERS[workload](corpus, rng)
    rng.shuffle(corpus.ops)
    return corpus
