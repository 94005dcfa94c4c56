"""Independent brute-force implementations used to check the library.

Nothing here calls the code path it is used to verify: minimum cuts come
from raw subset enumeration over the arc list, total unimodularity from
the row-subset signing criterion, ranks from a local Gaussian
elimination, boundary signs from the alternating-sum definition, and so
on.  The enumeration oracles at the end take the library's own objects
and objective (cut capacity, segmentation score) and enumerate every
candidate in place of the solver.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from flowkit.apps import segmentation_score
from flowkit.network import all_cuts, cut_capacity


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


def incidence_by_definition(n, s, t, arcs, order):
    """Entry-by-entry incidence function evaluation."""
    matrix = []
    for v in order:
        row = []
        for (u, w, _c) in arcs:
            row.append(1 if v == u else (-1 if v == w else 0))
        matrix.append(row)
    return matrix


def rational_rank(matrix):
    a = [[Fraction(x) for x in row] for row in matrix]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def signed_permutation_match(a, b):
    """A row/column relabeling with sign flips taking matrix `a` to `b`,
    or None.  Returns (row_map, row_signs, col_map, col_signs) with
    row_signs[i] * col_signs[j] * a[row_map[i]][col_map[j]] == b[i][j].
    """
    nr, nc = len(a), len(a[0])
    if (nr, nc) != (len(b), len(b[0])):
        return None

    def col_profile(m, j):
        return sorted(abs(m[i][j]) for i in range(len(m)))

    def row_profile(m, i):
        return sorted(abs(x) for x in m[i])

    a_colprof = [col_profile(a, j) for j in range(nc)]
    b_colprof = [col_profile(b, j) for j in range(nc)]
    a_rowprof = [row_profile(a, i) for i in range(nr)]
    b_rowprof = [row_profile(b, i) for i in range(nr)]

    col_map = [None] * nc      # b column j comes from a column col_map[j]
    used_cols = set()
    row_map = [None] * nr
    used_rows = set()

    def rows_consistent():
        # partial unsigned support check for assigned rows/columns
        for i in range(nr):
            if row_map[i] is None:
                continue
            for j in range(nc):
                if col_map[j] is None:
                    continue
                if (a[row_map[i]][col_map[j]] == 0) != (b[i][j] == 0):
                    return False
        return True

    def assign_rows(i):
        if i == nr:
            return solve_signs()
        for r in range(nr):
            if r in used_rows or a_rowprof[r] != b_rowprof[i]:
                continue
            row_map[i] = r
            used_rows.add(r)
            if rows_consistent() and assign_rows(i + 1):
                return True
            used_rows.discard(r)
            row_map[i] = None
        return False

    def solve_signs():
        # propagate sign constraints over the nonzero support
        row_sign = [None] * nr
        col_sign = [None] * nc
        for start in range(nr):
            if row_sign[start] is not None or all(x == 0 for x in b[start]):
                continue
            row_sign[start] = 1
            stack = [("r", start)]
            while stack:
                kind, idx = stack.pop()
                if kind == "r":
                    for j in range(nc):
                        if b[idx][j] == 0:
                            continue
                        need = b[idx][j] // (row_sign[idx] * a[row_map[idx]][col_map[j]])
                        if col_sign[j] is None:
                            col_sign[j] = need
                            stack.append(("c", j))
                        elif col_sign[j] != need:
                            return False
                else:
                    for i in range(nr):
                        if b[i][idx] == 0:
                            continue
                        need = b[i][idx] // (col_sign[idx] * a[row_map[i]][col_map[idx]])
                        if row_sign[i] is None:
                            row_sign[i] = need
                            stack.append(("r", i))
                        elif row_sign[i] != need:
                            return False
        nonlocal found_signs
        found_signs = ([s or 1 for s in row_sign], [s or 1 for s in col_sign])
        return True

    found_signs = None

    def assign_cols(j):
        if j == nc:
            return assign_rows(0)
        for c in range(nc):
            if c in used_cols or a_colprof[c] != b_colprof[j]:
                continue
            col_map[j] = c
            used_cols.add(c)
            if assign_cols(j + 1):
                return True
            used_cols.discard(c)
            col_map[j] = None
        return False

    if not assign_cols(0):
        return None
    row_signs, col_signs = found_signs
    return (list(row_map), row_signs, list(col_map), col_signs)


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


def matching_exists_by_enumeration(g):
    """n!-enumeration oracle for small instances."""
    edge_set = set(g.edges)
    indices = list(range(1, g.n + 1))
    return any(all((i, sigma[i - 1]) in edge_set for i in indices)
               for sigma in permutations(indices))


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


def best_segmentation_by_enumeration(img):
    """2^pixels oracle for desk-scale images."""
    pixels = img.pixels()
    best = None
    for k in range(len(pixels) + 1):
        for chosen in combinations(pixels, k):
            score = segmentation_score(img, chosen)
            if best is None or score > best:
                best = score
    return best


def min_cut_by_enumeration(net):
    """Brute-force minimum cut over all 2^(n-2) partitions (desk scale)."""
    return min(((cut, cut_capacity(net, cut)) for cut in all_cuts(net)),
               key=lambda pair: pair[1])
