"""Flows on oriented pure simplicial complexes.

A d-dimensional flow network is a pure complex with oriented facets, one
distinguished source facet T whose neighbors all induce the opposite sign
on every shared (d-1)-face, and finite capacities on the other facets
(the source capacity is unbounded).  A flow is a non-negative weighting of
the facets lying in the kernel of the boundary operator; the objective is
the weight carried by T.

Dimension 1 recovers ordinary graph maxflow: an arc (u, v) is encoded as
the oriented 1-simplex (v, u), which makes the boundary matrix coincide
with the vertex/arc incidence matrix, and T plays the role of a
sink-to-source return arc of unbounded capacity.

The boundary operator has one owner: :class:`OrientedComplex` stores each
facet's signed faces once, and ∂x (:meth:`~OrientedComplex.boundary`),
∂ᵀλ (:meth:`~OrientedComplex.coboundary`) and the dense matrix
(:func:`boundary_matrix`) are all read off that one sign table.  Cycle
checks, cut capacities, dual points, the augmenting-cycle LP and both
max-flow programs are built from it.  :func:`hmaxflow_lp` hands the
simplex the bounded form ∂x = 0, 0 <= x <= c directly.  The block form of
:func:`hmaxflow_linear_program` reaches the simplex as the same program
with the source facet last: its opposite rows are read back as
equalities and its unit rows as bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .lp import BudgetExceeded, flow_program, solve_standard
from .network import InvariantViolation, ParseError
from .values import UNBOUNDED, exact, format_value, is_unbounded, parse_value, scaled


class ComplexError(Exception):
    pass


class SourceConditionViolated(ComplexError):
    def __init__(self, witnesses):
        self.witnesses = list(witnesses)
        super().__init__(f"source condition violated at {self.witnesses}")


class NegativeCapacity(ComplexError):
    pass


def perm_parity(a, b):
    """Sign of the permutation taking tuple `a` to tuple `b` (same elements)."""
    if sorted(a) != sorted(b):
        raise ValueError("tuples are not reorderings of each other")
    pos = {v: i for i, v in enumerate(b)}
    perm = [pos[v] for v in a]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def boundary_terms(simplex):
    """Alternating-sign faces of an oriented simplex: [(face_tuple, sign)]
    with each face written in the orientation produced by deletion."""
    out = []
    for i in range(len(simplex)):
        face = simplex[:i] + simplex[i + 1:]
        out.append((face, -1 if i % 2 else 1))
    return out


class OrientedComplex:
    """Pure d-dimensional complex given by its oriented facets.

    Facets are tuples of d+1 distinct vertices; the tuple order is the
    orientation.  No two facets may coincide as vertex sets.  Lower faces
    are implied; the canonical reference orientation of any face is its
    sorted vertex order.
    """

    __slots__ = ("dimension", "facets", "_facet_sets", "_faces", "_signs")

    def __init__(self, dimension, facets):
        if dimension < 1:
            raise ComplexError("dimension must be at least 1")
        self.dimension = dimension
        self.facets = tuple(tuple(f) for f in facets)
        sets = []
        for f in self.facets:
            if len(f) != dimension + 1 or len(set(f)) != dimension + 1:
                raise ComplexError(f"facet {f} is not a {dimension}-simplex")
            sets.append(frozenset(f))
        if len(set(sets)) != len(sets):
            raise ComplexError("two facets coincide as vertex sets")
        self._facet_sets = tuple(sets)
        face_set = set()
        for f in self.facets:
            for i in range(len(f)):
                face_set.add(tuple(sorted(f[:i] + f[i + 1:])))
        self._faces = tuple(sorted(face_set))
        signs = []
        for f in self.facets:
            per_face = {}
            for face, sign in boundary_terms(f):
                ref = tuple(sorted(face))
                per_face[ref] = sign * perm_parity(face, ref)
            signs.append(per_face)
        self._signs = tuple(signs)

    def faces(self):
        """Canonical (d-1)-faces: sorted tuples in lexicographic order."""
        return self._faces

    def facet_set(self, j):
        return self._facet_sets[j]

    def face_sign(self, face_ref, j):
        """Sign of the canonically-oriented face in the boundary of facet j."""
        return self._signs[j].get(face_ref, 0)

    def boundary(self, values):
        """The boundary operator applied to facet values: {face: (∂x)_face}
        over every canonical face."""
        out = dict.fromkeys(self._faces, Fraction(0))
        for column, x in zip(self._signs, values, strict=True):
            for face, sign in column.items():
                out[face] += sign * x
        return out

    def coboundary(self, lam):
        """Its transpose applied to face values {face: λ_face}: (∂ᵀλ)_j per
        facet j."""
        return [sum((sign * lam[face] for face, sign in column.items()), Fraction(0))
                for column in self._signs]

    def vertices(self):
        out = set()
        for f in self.facets:
            out.update(f)
        return sorted(out)

    def is_connected(self):
        if not self.facets:
            return False
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(len(self.facets)):
                if j not in seen and self._facet_sets[i] & self._facet_sets[j]:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(self.facets)

    def __eq__(self, other):
        if not isinstance(other, OrientedComplex):
            return NotImplemented
        return (self.dimension, self.facets) == (other.dimension, other.facets)

    def __repr__(self):
        return f"OrientedComplex(dim={self.dimension}, facets={list(self.facets)})"


def boundary_matrix(complex_):
    """Boundary operator as an integer matrix, read off the complex's sign
    table: rows are the canonical (d-1)-faces (sorted tuples, lexicographic
    order), columns are facets in their given order."""
    columns = complex_._signs
    return [[column.get(face, 0) for column in columns] for face in complex_._faces]


def check_source_condition(complex_, t_index):
    """Every facet meeting facet `t_index` in a (d-1)-face must carry the
    opposite sign there.  Returns (ok, [(facet_index, face), ...])."""
    t_set = complex_.facet_set(t_index)
    violations = []
    for j in range(len(complex_.facets)):
        if j == t_index:
            continue
        shared = t_set & complex_.facet_set(j)
        if len(shared) != complex_.dimension:
            continue
        face = tuple(sorted(shared))
        if complex_.face_sign(face, j) == complex_.face_sign(face, t_index):
            violations.append((j, face))
    return (not violations, violations)


class HNetwork:
    """Oriented complex with a source facet of unbounded capacity."""

    __slots__ = ("complex", "t_index", "_caps")

    def __init__(self, complex_, t_index, caps):
        self.complex = complex_
        self.t_index = t_index
        self._caps = dict(caps)

    def capacity(self, j):
        return UNBOUNDED if j == self.t_index else self._caps[j]

    def facet_count(self):
        return len(self.complex.facets)

    def __eq__(self, other):
        if not isinstance(other, HNetwork):
            return NotImplemented
        return (self.complex, self.t_index, self._caps) == \
               (other.complex, other.t_index, other._caps)

    def __repr__(self):
        return f"HNetwork(T={self.complex.facets[self.t_index]}, facets={self.facet_count()})"


def build_hnetwork(complex_, t_index, capacities):
    """Validate the source condition and non-negative finite capacities.

    `capacities` maps every facet index except `t_index` to its capacity;
    a sequence of length facet-count is also accepted (the source entry is
    ignored).
    """
    if not (0 <= t_index < len(complex_.facets)):
        raise ComplexError(f"no facet with index {t_index}")
    if not isinstance(capacities, dict):
        capacities = {j: c for j, c in enumerate(capacities) if j != t_index}
    caps = {}
    for j in range(len(complex_.facets)):
        if j == t_index:
            if j in capacities and not is_unbounded(capacities[j]):
                raise ComplexError("the source facet capacity is fixed at UNBOUNDED")
            continue
        if j not in capacities:
            raise ComplexError(f"missing capacity for facet {j}")
        c = exact(capacities[j])
        if c < 0:
            raise NegativeCapacity(f"capacity of facet {j} is negative")
        caps[j] = c
    extra = set(capacities) - set(caps) - {t_index}
    if extra:
        raise ComplexError(f"capacities given for unknown facets {sorted(extra)}")
    ok, witnesses = check_source_condition(complex_, t_index)
    if not ok:
        raise SourceConditionViolated(witnesses)
    return HNetwork(complex_, t_index, caps)


@dataclass(frozen=True)
class HFlow:
    """Non-negative facet weights; the amount carried is the source entry."""

    values: tuple


def is_weighted_cycle(complex_, values):
    """Whether boundary . values = 0; returns (ok, residual per face)."""
    residuals = {face: x for face, x in complex_.boundary(values).items() if x != 0}
    return (not residuals, residuals)


def hflow_violations(hnet, flow):
    values = flow.values if isinstance(flow, HFlow) else tuple(flow)
    bad = []
    if len(values) != hnet.facet_count():
        return [("length", None)]
    for j, x in enumerate(values):
        if x < 0:
            bad.append(("negative", j))
        if x > hnet.capacity(j):
            bad.append(("capacity", j))
    ok, residuals = is_weighted_cycle(hnet.complex, values)
    bad.extend(("cycle", face) for face in sorted(residuals))
    return bad


# -- HMaxflow by LP ---------------------------------------------------------


def hmaxflow_linear_program(hnet):
    """The block formulation `max x_last : [B; -B; I,0] x <= [0; 0; c]`
    with the source facet enumerated last.  Returns (lp, facet_order)."""
    order = [j for j in range(hnet.facet_count()) if j != hnet.t_index] + [hnet.t_index]
    matrix = [[row[j] for j in order] for row in boundary_matrix(hnet.complex)]
    objective = [0] * (len(order) - 1) + [1]
    return flow_program(matrix, [hnet.capacity(j) for j in order], objective), order


@dataclass
class HMaxflowResult:
    status: str               # "optimal" | "unbounded"
    flow: HFlow | None
    value: Fraction | None
    trace: list | None = None


def hmaxflow_lp(hnet):
    """Maximize the amount carried by the source facet, exactly."""
    k = hnet.facet_count()
    eq_rows = boundary_matrix(hnet.complex)
    objective = [0] * k
    objective[hnet.t_index] = 1
    status, point = solve_standard(objective, eq_rows=eq_rows, eq_bounds=[0] * len(eq_rows),
                                   upper=[hnet.capacity(j) for j in range(k)])
    if status == "unbounded":
        return HMaxflowResult("unbounded", None, None)
    if status != "optimal":  # the zero flow is always feasible
        raise InvariantViolation("feasible zero flow", "hmaxflow_lp", [status])
    flow = HFlow(tuple(point))
    return HMaxflowResult("optimal", flow, point[hnet.t_index])


# -- residual complex and augmenting cycles ---------------------------------


@dataclass(frozen=True)
class ResidualFacet:
    """One member of the residual multicomplex: a facet or its reversal
    with strictly positive residual capacity."""

    facet_index: int
    forward: bool
    residual: object          # Fraction or UNBOUNDED


def residual_complex(hnet, values):
    out = []
    for j in range(hnet.facet_count()):
        r = hnet.capacity(j) - values[j]
        if r > 0:
            out.append(ResidualFacet(j, True, r))
        if values[j] > 0:
            out.append(ResidualFacet(j, False, values[j]))
    return out


@dataclass(frozen=True)
class AugmentingCycle:
    """Integer combination of residual facets with zero boundary that
    carries the source facet forward."""

    terms: tuple              # (facet_index, direction +1/-1, coefficient)

    def source_coefficient(self, t_index):
        return sum(c for (j, d, c) in self.terms if j == t_index and d > 0)


def find_augmenting_cycle(hnet, values):
    """Smallest-mass residual cycle through the source facet, or None.

    Solves an exact LP: unit coefficient on the forward source copy,
    boundary balance, non-negative coefficients supported on the residual
    complex; :func:`scaled` turns its vertex into integers.  The reversed source
    copy is excluded: a cycle using both source copies cancels and cannot
    increase the carried amount.
    """
    copies = [rf for rf in residual_complex(hnet, values)
              if not (rf.facet_index == hnet.t_index and not rf.forward)]
    t_col = next(i for i, rf in enumerate(copies)
                 if rf.facet_index == hnet.t_index and rf.forward)
    eq_rows = [[row[rf.facet_index] if rf.forward else -row[rf.facet_index] for rf in copies]
               for row in boundary_matrix(hnet.complex)]
    eq_rows.append([int(i == t_col) for i in range(len(copies))])
    eq_bounds = [0] * (len(eq_rows) - 1) + [1]
    objective = [0 if i == t_col else -1 for i in range(len(copies))]
    status, point = solve_standard(objective, eq_rows=eq_rows, eq_bounds=eq_bounds)
    if status == "infeasible":
        return None
    if status != "optimal":  # objective bounded above by zero
        raise InvariantViolation("bounded cycle LP", "find_augmenting_cycle", [status])
    coefficients, _ = scaled(point)
    terms = [(rf.facet_index, 1 if rf.forward else -1, c)
             for rf, c in zip(copies, coefficients) if c > 0]
    return AugmentingCycle(tuple(terms))


@dataclass(frozen=True)
class AugmentationStep:
    cycle: AugmentingCycle
    amount: Fraction
    gain: Fraction


def hmaxflow_augment(hnet, max_rounds=500, instrumented=False):
    """Iterate augmenting cycles from the zero flow until none remains.

    Every step pushes `amount = min residual(X_i) / coefficient_i` around
    the cycle, which strictly increases the carried amount and saturates
    at least one residual copy.
    """
    values = [Fraction(0)] * hnet.facet_count()
    trace = []
    for _ in range(max_rounds):
        cycle = find_augmenting_cycle(hnet, values)
        if cycle is None:
            flow = HFlow(tuple(values))
            return HMaxflowResult("optimal", flow, values[hnet.t_index], trace)
        where = f"augmentation {len(trace) + 1}"
        bottlenecks = []
        for (j, direction, coeff) in cycle.terms:
            r = hnet.capacity(j) - values[j] if direction > 0 else values[j]
            if not is_unbounded(r):
                bottlenecks.append(Fraction(r, coeff))
        amount = min(bottlenecks, default=None)
        if amount is None or amount <= 0:
            raise InvariantViolation("positive bottleneck", where, [amount])
        before = values[hnet.t_index]
        for (j, direction, coeff) in cycle.terms:
            values[j] += direction * coeff * amount
        gain = values[hnet.t_index] - before
        if gain <= 0:
            raise InvariantViolation("carried amount increases", where, [gain])
        trace.append(AugmentationStep(cycle, amount, gain))
        if instrumented:
            bad = hflow_violations(hnet, HFlow(tuple(values)))
            if bad:
                raise InvariantViolation("hflow", where, bad)
    raise BudgetExceeded(f"no fixpoint within {max_rounds} augmentations")


# -- cuts and the dual construction ------------------------------------------


@dataclass(frozen=True)
class HCut:
    """Partition of the (d-1)-faces, given by the side whose dual
    potential is zero."""

    s_side: frozenset


def make_hcut(complex_, s_side):
    side = frozenset(tuple(sorted(f)) for f in s_side)
    if not side <= set(complex_.faces()):
        raise ComplexError("cut side contains unknown faces")
    return HCut(side)


def all_hcuts(complex_, budget=4096):
    faces = complex_.faces()
    if 2 ** len(faces) > budget:
        raise BudgetExceeded(f"2^{len(faces)} partitions exceed the budget")
    for k in range(len(faces) + 1):
        for chosen in combinations(faces, k):
            yield HCut(frozenset(chosen))


@dataclass(frozen=True)
class HDualPoint:
    lam: dict                 # face -> 0 or 1
    eta: dict                 # facet index -> Fraction (source included)


def hcut_capacity(hnet, hcut):
    """Dual-feasible point of a cut and its capacity.

    Potentials: 0 on the cut side, 1 elsewhere.  Facet variables make each
    dual inequality tight from below.  The capacity is the weighted sum of
    the non-source capacities; a positive source variable prices the
    unbounded source capacity, making the capacity unbounded as well (the
    upper bound on the carried amount is then vacuous).
    """
    lam = {face: Fraction(0) if face in hcut.s_side else Fraction(1)
           for face in hnet.complex.faces()}
    eta = {}
    capacity = Fraction(0)
    for j, g in enumerate(hnet.complex.coboundary(lam)):
        if j == hnet.t_index:
            eta[j] = max(Fraction(0), Fraction(1) - g)
        else:
            eta[j] = max(Fraction(0), -g)
            capacity += eta[j] * hnet.capacity(j)
    if eta[hnet.t_index] > 0:
        capacity = UNBOUNDED
    return capacity, HDualPoint(lam, eta)


def hdual_violations(hnet, point):
    bad = []
    for j, g in enumerate(hnet.complex.coboundary(point.lam)):
        if point.eta[j] < 0:
            bad.append(("negative_eta", j))
        needed = Fraction(1) if j == hnet.t_index else Fraction(0)
        if g + point.eta[j] < needed:
            bad.append(("facet_inequality", j))
    return bad


# -- simplicial trees and the TU certificate ----------------------------------


def is_leaf(complex_, f_index, fp_index):
    """Whether (F, F') is a leaf: every other facet meets F inside F'."""
    f_set = complex_.facet_set(f_index)
    fp_set = complex_.facet_set(fp_index)
    return all(f_set & complex_.facet_set(h) <= fp_set
               for h in range(len(complex_.facets)) if h != f_index)


def _collection_has_leaf(facet_sets, subset):
    if len(subset) == 1:
        return True
    for f in subset:
        others = [h for h in subset if h != f]
        for fp in others:
            if all(facet_sets[f] & facet_sets[h] <= facet_sets[fp] for h in others):
                return True
    return False


def is_simplicial_tree(complex_, max_facets=12):
    """Connected, and every nonempty facet subset contains a leaf.

    Exhaustive over the 2^k facet subsets; refuses complexes with more
    than `max_facets` facets.
    """
    k = len(complex_.facets)
    if k > max_facets:
        raise BudgetExceeded(f"{k} facets exceed the subset budget of {max_facets}")
    if not complex_.is_connected():
        return False
    sets = complex_.facet_set
    facet_sets = {i: sets(i) for i in range(k)}
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            if not _collection_has_leaf(facet_sets, subset):
                return False
    return True


def tu_certificate_via_tree(complex_, max_facets=12):
    """Disjoint facets whose removal leaves a simplicial tree, if any.

    Dimension 2 only.  A returned set certifies that the boundary matrix
    is totally unimodular; absence of a certificate claims nothing.
    """
    if complex_.dimension != 2:
        raise ComplexError("the tree certificate is stated for dimension 2")
    k = len(complex_.facets)
    if k > max_facets:
        raise BudgetExceeded(f"{k} facets exceed the search budget of {max_facets}")
    for size in range(k):
        for removed in combinations(range(k), size):
            if any(complex_.facet_set(a) & complex_.facet_set(b)
                   for a, b in combinations(removed, 2)):
                continue
            remaining = [f for i, f in enumerate(complex_.facets) if i not in removed]
            if not remaining:
                continue
            sub = OrientedComplex(complex_.dimension, remaining)
            if is_simplicial_tree(sub, max_facets=max_facets):
                return tuple(removed)
    return None


# -- dimension-1 encoding of a graph network ----------------------------------


def network_as_hnetwork(net):
    """Encode a graph network as a 1-dimensional flow network.

    Arc (u, v) becomes the oriented 1-simplex (v, u) so the boundary
    matrix coincides with the incidence matrix; the source facet is the
    implicit sink-to-source return arc (s, t), enumerated last.  A direct
    source-to-sink arc would coincide with the return facet as a vertex
    set and is rejected; subdivide it through a fresh vertex first.
    """
    if net.has_arc(net.source, net.sink):
        raise ComplexError("a direct source-to-sink arc collides with the return facet")
    facets = [(v, u) for (u, v) in net.arcs]
    facets.append((net.source, net.sink))
    cx = OrientedComplex(1, facets)
    caps = {j: net.capacities()[j] for j in range(net.m)}
    return build_hnetwork(cx, len(facets) - 1, caps)


def hcut_from_graph_cut(net, cut):
    return HCut(frozenset((v,) for v in cut.source_side))


# -- file formats --------------------------------------------------------------


def write_hnet(hnet):
    lines = [f"hnet dim {hnet.complex.dimension}"]
    for j, facet in enumerate(hnet.complex.facets):
        verts = " ".join(str(v) for v in facet)
        if j == hnet.t_index:
            lines.append(f"t {verts}")
        else:
            lines.append(f"f {verts} {format_value(hnet.capacity(j))}")
    return "\n".join(lines) + "\n"


def read_hnet(text):
    dim = None
    facets = []
    caps = {}
    t_index = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "hnet":
                if dim is not None:
                    raise ParseError("duplicate `hnet dim` header", line_no)
                if len(fields) != 3 or fields[1] != "dim":
                    raise ParseError("expected `hnet dim <d>`", line_no)
                dim = int(fields[2])
            elif fields[0] == "t":
                if dim is None:
                    raise ParseError("facet before header", line_no)
                if t_index is not None:
                    raise ParseError("duplicate source facet", line_no)
                if len(fields) != dim + 2:
                    raise ParseError(f"source facet needs {dim + 1} vertices", line_no)
                t_index = len(facets)
                facets.append(tuple(int(x) for x in fields[1:]))
            elif fields[0] == "f":
                if dim is None:
                    raise ParseError("facet before header", line_no)
                if len(fields) != dim + 3:
                    raise ParseError(f"expected `f <{dim + 1} vertices> <cap>`", line_no)
                caps[len(facets)] = parse_value(fields[-1])
                facets.append(tuple(int(x) for x in fields[1:-1]))
            else:
                raise ParseError(f"unknown record type {fields[0]!r}", line_no)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
    if dim is None:
        raise ParseError("missing `hnet dim` header")
    if t_index is None:
        raise ParseError("missing source facet line")
    try:
        return build_hnetwork(OrientedComplex(dim, facets), t_index, caps)
    except ComplexError as exc:
        raise ParseError(str(exc))


def write_hflow(hnet, flow):
    lines = [f"hf {j} {format_value(flow.values[j])}" for j in range(hnet.facet_count())]
    lines.append(f"s {format_value(flow.values[hnet.t_index])}")
    return "\n".join(lines) + "\n"


def read_hflow(hnet, text):
    values = [Fraction(0)] * hnet.facet_count()
    seen = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "hf":
            if len(fields) != 3:
                raise ParseError("expected `hf <facet-index> <value>`", line_no)
            try:
                j, x = int(fields[1]), parse_value(fields[2])
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            if not 0 <= j < len(values):
                raise ParseError(f"no facet with index {j}", line_no)
            if j in seen:
                raise ParseError(f"duplicate value for facet {j}", line_no)
            seen.add(j)
            values[j] = x
        elif fields[0] == "s":
            continue
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", line_no)
    return HFlow(tuple(values))


# -- randomized probe for the open converse ------------------------------------


@dataclass
class ProbeRecord:
    trial: int
    facet_count: int
    face_count: int
    lp_value: Fraction
    fixpoint_value: Fraction
    augmentations: int
    discrepancy: bool
    hnet_text: str


@dataclass
class ProbeReport:
    seed: int
    trials: int
    max_facets: int
    records: list

    def discrepancies(self):
        return [r for r in self.records if r.discrepancy]


def random_hnetwork(rng, max_facets=8, max_vertices=6, max_cap=5):
    """Random dimension-2 flow network: sampled triangles with random
    orientations, a source facet preferring well-shared edges, neighbor
    orientations flipped where needed to establish the source condition."""
    if min(max_facets, max_vertices) < 4:
        raise ComplexError(f"a random 2-complex needs max_facets and max_vertices of at "
                           f"least 4, got {max_facets} and {max_vertices}")
    nv = rng.randint(4, max_vertices)
    pool = list(combinations(range(1, nv + 1), 3))
    k = rng.randint(min(4, len(pool)), min(max_facets, len(pool)))
    chosen = rng.sample(pool, k)
    facets = []
    for tri in chosen:
        tri = list(tri)
        rng.shuffle(tri)
        facets.append(tuple(tri))
    # prefer a source facet every edge of which lies in another facet,
    # so instances with positive flow are common
    def shared_edges(i):
        edges = {frozenset(e) for e in combinations(chosen[i], 2)}
        return sum(1 for e in edges
                   if any(e <= set(chosen[j]) for j in range(k) if j != i))
    best = max(shared_edges(i) for i in range(k))
    t_index = rng.choice([i for i in range(k) if shared_edges(i) == best])
    cx = OrientedComplex(2, facets)
    t_set = cx.facet_set(t_index)
    for j in range(k):
        if j == t_index:
            continue
        shared = t_set & cx.facet_set(j)
        if len(shared) == 2:
            face = tuple(sorted(shared))
            if cx.face_sign(face, j) == cx.face_sign(face, t_index):
                f = facets[j]
                facets[j] = (f[1], f[0], f[2])
    cx = OrientedComplex(2, facets)
    caps = {j: Fraction(rng.randint(0, max_cap)) for j in range(k) if j != t_index}
    return build_hnetwork(cx, t_index, caps)


def conjecture_probe(seed, trials, max_facets=8):
    """Compare the augmentation fixpoint with the LP optimum on random
    instances and report any instance where the fixpoint falls short.

    :func:`find_augmenting_cycle` admits any non-negative rational
    combination of residual copies.  At a feasible x below the optimum x*,
    (x* - x) / (x*_T - x_T) is therefore feasible for its LP, so the
    fixpoint provably equals the LP optimum and this probe cannot report a
    discrepancy; it is a consistency check of the two solvers.  The open
    question concerns unit-coefficient (+-1) cycles, which this relaxation
    does not model."""
    records = []
    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        hnet = random_hnetwork(rng, max_facets=max_facets)
        lp_res = hmaxflow_lp(hnet)
        aug_res = hmaxflow_augment(hnet)
        disc = aug_res.value < lp_res.value
        records.append(ProbeRecord(
            trial=i,
            facet_count=hnet.facet_count(),
            face_count=len(hnet.complex.faces()),
            lp_value=lp_res.value,
            fixpoint_value=aug_res.value,
            augmentations=len(aug_res.trace),
            discrepancy=disc,
            hnet_text=write_hnet(hnet),
        ))
    return ProbeReport(seed, trials, max_facets, records)


def write_probe_report(report):
    lines = [f"probe seed {report.seed} trials {report.trials} maxfacets {report.max_facets}"]
    for r in report.records:
        lines.append(
            f"trial {r.trial} facets {r.facet_count} faces {r.face_count} "
            f"lp {format_value(r.lp_value)} fixpoint {format_value(r.fixpoint_value)} "
            f"augmentations {r.augmentations} discrepancy {1 if r.discrepancy else 0}")
        if r.discrepancy:
            for inst_line in r.hnet_text.strip().splitlines():
                lines.append(f"inst {r.trial} {inst_line}")
    lines.append(f"end discrepancies {len(report.discrepancies())}")
    return "\n".join(lines) + "\n"


def probe_instances(text):
    """Recover the serialized instances embedded in a probe report."""
    chunks = {}
    for line in text.splitlines():
        if line.startswith("inst "):
            _, trial, rest = line.split(" ", 2)
            chunks.setdefault(int(trial), []).append(rest)
    return {trial: read_hnet("\n".join(body)) for trial, body in chunks.items()}
