"""Independent brute-force implementations used to check the library.

Nothing here calls the code path it is used to verify: minimum cuts come
from raw subset enumeration over the arc list, total unimodularity from
the row-subset signing criterion, ranks from a local Gaussian
elimination, boundary signs from the alternating-sum definition, and so
on; Edmonds-Karp's look-ahead, resumed searches are checked against
fresh textbook ones.  Segmentation scores and costs are summed from
their definitions over the Fraction dicts of an image, and `segment`'s
output is rebuilt from Fraction capacities, without `PixelImage`'s ints.
The enumeration oracles at the end take the library's own objects and
objective (cut capacity) and enumerate every candidate in place of the
solver; a flow file is rendered from Fractions of the flow's ints, apart
from the writer's gcd.  `lp-dual`'s output is rebuilt from a program
whose every cell is a Fraction, written cell by cell with `format_value`.  The
augmentation on complexes is rerun in Fractions; it shares the library's
cycle LP and checks the ints over a growing scale that the library keeps.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from flowkit.apps import Poset, read_pgm
from flowkit.lp import LinearProgram, certify, simplex_solve
from flowkit.network import (
    Cut,
    ResidualGraph,
    ScaledFlow,
    build_network,
    cut_capacity,
    incidence_matrix,
)
from flowkit.simplicial import AUGMENTATION_BUDGET, find_augmenting_cycle
from flowkit.solvers import edmonds_karp
from flowkit.values import exact, format_value, scaled


def capacities(net):
    """The capacities of a network or a flow complex as Fractions, in arc
    or facet order, read off its ints over its scale; a complex's source
    facet reads None."""
    return [None if c is None else Fraction(c, net.scale) for c in net.ints]


def scaled_flow(values):
    """The :class:`ScaledFlow` of ``{arc: value}`` (ints, Fractions or
    `p/q` strings): each nonzero value as an int over the LCM of their
    denominators, in the order given."""
    ints, scale = scaled([exact(x) for x in values.values()])
    return ScaledFlow(tuple([(a, x) for a, x in zip(values, ints) if x]), scale)


def random_network_spec(rng, max_n=8, max_cap=10, density=0.55, allow_st_arc=True):
    """(n, s, t, arc triples) with no antiparallel pairs, nothing into the
    source, nothing out of the sink."""
    n = rng.randint(2, max_n) if allow_st_arc else rng.randint(3, max_n)
    s, t = 1, n
    candidates = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                  if u != v and v != s and u != t
                  and (allow_st_arc or (u, v) != (s, t))]
    rng.shuffle(candidates)
    arcs, used = [], set()
    for (u, v) in candidates:
        if (v, u) in used or rng.random() > density:
            continue
        used.add((u, v))
        arcs.append((u, v, Fraction(rng.randint(0, max_cap))))
    return n, s, t, arcs


def brute_min_cut(n, s, t, arcs):
    """Minimum cut capacity straight from the arc list, over all 2^(n-2)
    source sides.  Handles parallel/antiparallel arc lists as given."""
    middle = [v for v in range(1, n + 1) if v not in (s, t)]
    best = None
    for k in range(len(middle) + 1):
        for extra in combinations(middle, k):
            side = {s, *extra}
            cap = sum((c for (u, v, c) in arcs if u in side and v not in side),
                      Fraction(0))
            if best is None or cap < best:
                best = cap
    return best


def brute_min_cut_sides(n, s, t, arcs):
    """All minimum-cut source sides, as a set of frozensets."""
    best = brute_min_cut(n, s, t, arcs)
    middle = [v for v in range(1, n + 1) if v not in (s, t)]
    sides = set()
    for k in range(len(middle) + 1):
        for extra in combinations(middle, k):
            side = frozenset({s, *extra})
            cap = sum((c for (u, v, c) in arcs if u in side and v not in side),
                      Fraction(0))
            if cap == best:
                sides.add(side)
    return sides


def brute_max_surplus(weights, arcs):
    """Maximum of sum(w) - boundary capacity over every vertex subset;
    returns (value, set of maximizers)."""
    vertices = sorted(weights)
    best = None
    argmax = set()
    for k in range(len(vertices) + 1):
        for chosen in combinations(vertices, k):
            subset = frozenset(chosen)
            val = sum((weights[v] for v in subset), Fraction(0))
            val -= sum((c for (a, b), c in arcs.items()
                        if a in subset and b not in subset), Fraction(0))
            if best is None or val > best:
                best = val
                argmax = {subset}
            elif val == best:
                argmax.add(subset)
    return best, argmax


def ghouila_houri_tu(matrix):
    """Row-subset signing criterion: totally unimodular iff every subset of
    rows admits a +-1 signing whose signed sum has entries in {-1, 0, 1}."""
    rows = [list(map(int, r)) for r in matrix]
    if any(x not in (-1, 0, 1) for r in rows for x in r):
        return False
    ncols = len(rows[0]) if rows else 0
    for k in range(1, len(rows) + 1):
        for chosen in combinations(range(len(rows)), k):
            ok = False
            for signs in product((1, -1), repeat=k - 1):
                signs = (1,) + signs  # the complementary signing is symmetric
                sums = [sum(signs[i] * rows[chosen[i]][j] for i in range(k))
                        for j in range(ncols)]
                if all(-1 <= x <= 1 for x in sums):
                    ok = True
                    break
            if not ok:
                return False
    return True


def determinant_by_permutations(matrix):
    """Leibniz's formula: the signed sum over all permutations."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def dense_pivot(rows, prow, col, d):
    """The fraction-free elimination step by its formula, without changing
    its arguments: every row of `rows` but `prow` becomes (p*e - f*b)/d at
    every entry, with p = prow[col], f the row's entry in `col` and b the
    entry of `prow` above e, and each division must leave no remainder.
    Returns the new rows (`prow` copied as it is) and p."""
    p = prow[col]
    out = []
    for row in rows:
        if row is prow:
            out.append(list(row))
            continue
        f = row[col]
        new = []
        for e, b in zip(row, prow):
            q, remainder = divmod(p * e - f * b, d)
            if remainder:
                raise AssertionError(f"inexact step: {p}*{e} - {f}*{b} over {d}")
            new.append(q)
        out.append(new)
    return out, p


def incidence_by_definition(n, s, t, arcs, order):
    """Entry-by-entry incidence function evaluation."""
    matrix = []
    for v in order:
        row = []
        for (u, w, _c) in arcs:
            row.append(1 if v == u else (-1 if v == w else 0))
        matrix.append(row)
    return matrix


def boundary_by_definition(facets):
    """The boundary matrix of oriented simplices by the definition
    ∂[v0, .., vd] = Σ (-1)^i [v0, .., v̂i, .., vd]: returns the faces (sorted
    tuples, lexicographic) and the rows, one column per facet.  A face
    written in another order than sorted contributes with the sign of the
    permutation that sorts it, counted here by its cycles."""
    def sorting_sign(face):
        position = {v: i for i, v in enumerate(sorted(face))}
        seen, sign = set(), 1
        for start in range(len(face)):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = position[face[i]]
                length += 1
            if length and length % 2 == 0:
                sign = -sign
        return sign

    entries = {}
    for j, facet in enumerate(facets):
        for i in range(len(facet)):
            face = tuple(facet[:i]) + tuple(facet[i + 1:])
            entries[(tuple(sorted(face)), j)] = (-1) ** i * sorting_sign(face)
    faces = sorted({face for face, _ in entries})
    return faces, [[entries.get((face, j), 0) for j in range(len(facets))] for face in faces]


def leaf_by_definition(facets, f_index, fp_index):
    """Literal re-statement of the leaf condition on facet vertex sets."""
    f_set = set(facets[f_index])
    fp_set = set(facets[fp_index])
    for h, other in enumerate(facets):
        if h == f_index:
            continue
        if not (f_set & set(other)) <= fp_set:
            return False
    return True


def chain_is_maximal(p, chain):
    """Definition check: no element of the poset extends the chain."""
    members = set(chain)
    for x in p.elements:
        if x in members:
            continue
        if all((x, y) in p.less or (y, x) in p.less for y in members):
            return False
    return True


def matching_exists_by_enumeration(g):
    """n!-enumeration oracle for small instances."""
    edge_set = set(g.edges)
    indices = list(range(1, g.n + 1))
    return any(all((i, sigma[i - 1]) in edge_set for i in indices)
               for sigma in permutations(indices))


def random_bounded_poset(rng, max_mid=7):
    """bot < m_i < top for up to `max_mid` m_i, and m_i < m_j (i < j) with probability 0.3."""
    k = rng.randint(0, max_mid)
    mids = [f"m{i}" for i in range(k)]
    rel = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.3:
                rel.append((mids[i], mids[j]))
    rel += [("bot", m) for m in mids] + [(m, "top") for m in mids]
    rel.append(("bot", "top"))
    return Poset(["bot"] + mids + ["top"], rel)


def max_disjoint_chains_by_enumeration(p):
    """Exhaustive oracle: largest cover-disjoint subset of all maximal chains."""
    covers = set(p.covers())
    succ = {}
    for (a, b) in covers:
        succ.setdefault(a, []).append(b)
    chains = []

    def walk(path):
        if path[-1] == p.top:
            chains.append(tuple(path))
            return
        for nxt in succ.get(path[-1], ()):
            walk(path + [nxt])

    walk([p.bottom])
    chain_edges = [frozenset(zip(c, c[1:])) for c in chains]
    best = 0

    def extend(i, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(chains) - i) <= best:
            return
        for j in range(i, len(chains)):
            if not (chain_edges[j] & used):
                extend(j + 1, used | chain_edges[j], count + 1)

    extend(0, frozenset(), 0)
    return best


def uniform_penalty(width, height, value):
    """`value` on every 4-neighbour pair of a width x height grid, keyed
    by the frozenset of the pair's two (x, y) pixels, row by row, each
    pixel's pair to the right before its pair below."""
    pairs = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                pairs.append(frozenset({(x, y), (x + 1, y)}))
            if y + 1 < height:
                pairs.append(frozenset({(x, y), (x, y + 1)}))
    return {pair: Fraction(value) for pair in pairs}


def segmentation_score(fg, bg, penalty, foreground):
    """s(A, B) by its definition over Fraction dicts: the probabilities
    each pixel keeps on its side, less the penalty of every pair the
    split separates."""
    chosen = frozenset(foreground)
    kept = sum((fg[p] if p in chosen else bg[p] for p in fg), Fraction(0))
    return kept - sum((c for pair, c in penalty.items() if len(pair & chosen) == 1), Fraction(0))


def segmentation_cost(fg, bg, penalty, foreground):
    """s'(A, B) by its definition: the probabilities each pixel discards,
    plus the penalty of every pair the split separates."""
    chosen = frozenset(foreground)
    lost = sum((bg[p] if p in chosen else fg[p] for p in fg), Fraction(0))
    return lost + sum((c for pair, c in penalty.items() if len(pair & chosen) == 1), Fraction(0))


def best_segmentation_by_enumeration(fg, bg, penalty):
    """2^pixels oracle for desk-scale images, over the Fraction dicts that
    `PixelImage` is built from."""
    pixels = list(fg)
    return max(segmentation_score(fg, bg, penalty, chosen)
               for k in range(len(pixels) + 1) for chosen in combinations(pixels, k))


def segmentation_by_definition(text, penalty):
    """The stdout and stderr of `flowkit segment --penalty <penalty>` on a
    P2 image, from the Fraction construction: fg = g / maxval and
    bg = 1 - fg as Fractions, the pixel network built from Fraction
    capacities, the source side of its Edmonds-Karp minimum cut as the
    foreground, and score, cost and mass summed as Fractions."""
    width, height, maxval, rows = read_pgm(text)
    pixels = [(x, y) for y in range(height) for x in range(width)]
    fg = {(x, y): Fraction(rows[y][x], maxval) for (x, y) in pixels}
    bg = {p: 1 - v for p, v in fg.items()}
    pen = uniform_penalty(width, height, penalty)
    pid = {p: k + 1 for k, p in enumerate(pixels)}
    s, t = len(pixels) + 1, len(pixels) + 2
    arcs = [(s, pid[p], fg[p]) for p in pixels] + [(pid[p], t, bg[p]) for p in pixels]
    for pair, c in pen.items():
        p, q = sorted(pair)
        arcs += [(pid[p], pid[q], c), (pid[q], pid[p], c)]
    cut = edmonds_karp(build_network(t, s, t, arcs, allow_antiparallel=True)).cut
    chosen = frozenset(p for p in pixels if pid[p] in cut.source_side)
    score = segmentation_score(fg, bg, pen, chosen)
    cost = segmentation_cost(fg, bg, pen, chosen)
    mass = sum(fg.values(), Fraction(0)) + sum(bg.values(), Fraction(0))
    mask = [" ".join("1" if (x, y) in chosen else "0" for x in range(width))
            for y in range(height)]
    stdout = "\n".join(["P1", f"{width} {height}"] + mask) + "\n"
    stderr = f"score={format_value(score)} cost={format_value(cost)} mass={format_value(mass)}\n"
    return stdout, stderr


def all_cuts(net):
    """Every cut of the network (2^(n-2) of them); for desk-scale checks."""
    middle = [v for v in net.vertices() if v != net.source and v != net.sink]
    for k in range(len(middle) + 1):
        for extra in combinations(middle, k):
            yield Cut(frozenset((net.source,) + extra))


def min_cut_by_enumeration(net):
    """Brute-force minimum cut over all 2^(n-2) partitions (desk scale)."""
    return min(((cut, cut_capacity(net, cut)) for cut in all_cuts(net)),
               key=lambda pair: pair[1])


def textbook_search(r, origin, target):
    """Lowest-index breadth-first search with the goal test on the target
    itself: rows of `r` are scanned in reach order, each in its own order,
    and the search stops when an admissible step reaches `target`.
    Returns the path (None when the target is unreachable) and the reached
    vertices, the target included when it was found."""
    parent = {origin: None}
    frontier = [origin]
    while frontier:
        ahead = []
        for u in frontier:
            for v, x in r[u].items():
                if v in parent or x <= 0:
                    continue
                parent[v] = u
                if v == target:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1], set(parent)
                ahead.append(v)
        frontier = ahead
    return None, set(parent)


def edmonds_karp_fresh(net):
    """Edmonds-Karp with a fresh textbook search from s every round, which
    the solver's look-ahead, resumed searches must match.  Returns the
    flow, its value, the number of augmentations and the cut of the last
    search.  Like the solver, it fails past n * m augmentations, the
    Edmonds-Karp bound, rather than loop on a broken `augment`."""
    res = ResidualGraph(net)
    s, t = net.source, net.sink
    augmentations = 0
    while True:
        path, reached = textbook_search(res.r, s, t)
        if path is None:
            break
        if augmentations == net.n * net.m:
            raise AssertionError(f"more than n * m = {net.n * net.m} augmentations")
        res.augment(path)
        augmentations += 1
    flow = res.flow()
    value = Fraction(sum(x for (u, _), x in flow.pairs if u == s), flow.scale)
    return flow, value, augmentations, Cut(frozenset(reached))


def flow_text_by_definition(net, flow):
    """The flow file of a :class:`ScaledFlow` by its grammar: `f u v x` for
    each arc with x > 0, in arc order, then `s` and the amount leaving the
    source, each number as `format_value` renders its Fraction."""
    values = {a: Fraction(x, flow.scale) for a, x in flow.pairs}
    lines = [f"f {u} {v} {format_value(values[(u, v)])}" for (u, v) in net.arcs
             if values.get((u, v), 0) > 0]
    value = sum((x for (u, _), x in values.items() if u == net.source), Fraction(0))
    lines.append(f"s {format_value(value)}")
    return "\n".join(lines) + "\n"


def lp_dual_by_fractions(net):
    """`lp-dual`'s stdout for `net` from a flow program of Fraction cells:
    `exact` on every cell of `[A; -A; I] x <= [0; 0; c]` and of its
    transpose, the same solve and certificate, and each cell written by
    `format_value`."""
    phi = incidence_matrix(net)
    balance = phi[1:-1]
    rows = balance + [[-x for x in r] for r in balance]
    rows += [[int(i == j) for i in range(net.m)] for j in range(net.m)]
    bounds = [0] * (len(rows) - net.m) + capacities(net)
    primal = LinearProgram("max", tuple(map(exact, phi[0])),
                           tuple(tuple(map(exact, row)) for row in rows), tuple(map(exact, bounds)))
    dual = LinearProgram("min", primal.bounds,
                         tuple(tuple(row[j] for row in primal.rows) for j in range(net.m)),
                         primal.objective)
    result = simplex_solve(primal)
    dual_value = certify(primal, result)

    def write(program):
        lines = [program.sense, " ".join(format_value(x) for x in program.objective)]
        lines += [" ".join(format_value(x) for x in row) + " | " + format_value(b)
                  for row, b in zip(program.rows, program.bounds)]
        return "\n".join(lines) + "\n"

    return (write(primal) + "\n" + write(dual) + f"primal_opt {format_value(result.value)}\n"
            f"dual_opt {format_value(dual_value)}\n")


def hmaxflow_augment_by_fractions(hnet):
    """The augmentation fixpoint with Fraction weights: the flow values,
    the carried amount and the trace of amounts.  Each step takes the
    library's cycle for the flow as ints over the LCM of its denominators,
    and pushes ``min residual / coefficient`` over its finite residual
    copies, each residual a Fraction off :func:`capacities`."""
    caps = capacities(hnet)
    values = [Fraction(0)] * hnet.facet_count()
    trace = []
    for _ in range(AUGMENTATION_BUDGET):
        cycle = find_augmenting_cycle(hnet, *scaled(values))
        if cycle is None:
            return tuple(values), values[hnet.t_index], trace
        bottlenecks = []
        for (j, direction, coeff) in cycle.terms:
            if direction < 0:
                bottlenecks.append(Fraction(values[j], coeff))
            elif caps[j] is not None:  # the source facet's forward copy has no bound
                bottlenecks.append(Fraction(caps[j] - values[j], coeff))
        amount = min(bottlenecks)
        for (j, direction, coeff) in cycle.terms:
            values[j] += direction * coeff * amount
        trace.append(amount)
    raise AssertionError(f"no fixpoint within {AUGMENTATION_BUDGET} augmentations")
