"""Flows on oriented pure simplicial complexes.

A d-dimensional flow network is a pure complex with oriented facets, one
distinguished source facet T whose neighbors all induce the opposite sign
on every shared (d-1)-face, and finite capacities on the other facets
(the source capacity is unbounded).  A flow is a non-negative weighting of
the facets lying in the kernel of the boundary operator; the objective is
the weight carried by T.  It always has a maximum, so a result carries no
status: the zero flow is a flow, and every column of ∂ has d + 1 >= 2
entries +-1, so the row of ∂x = 0 at any face of T bounds x_T by the
finite capacities of the other facets there.

Dimension 1 recovers ordinary graph maxflow: an arc (u, v) is encoded as
the oriented 1-simplex (v, u), which makes the boundary matrix coincide
with the vertex/arc incidence matrix, and T plays the role of a
sink-to-source return arc of unbounded capacity.

The boundary operator has one owner and one stored form, the int rows
of ∂, one per face, that :class:`OrientedComplex` builds once.  ∂x, ∂ᵀλ
(:meth:`~OrientedComplex.coboundary`), face signs, cut capacities, the
cycle checks, the max-flow program and the augmenting-cycle LP read
them, so int values give ints, and :func:`boundary_matrix` hands out
copies.  :func:`hmaxflow_lp` hands the simplex the bounded form ∂x = 0,
0 <= x <= c directly.

A flow network keeps its finite capacities as ints over one scale, as a
graph :class:`~flowkit.network.Network` does, and in no other form: a
cut's capacity is an int sum made one Fraction, :func:`write_hnet`
writes each int over the scale, and :func:`hmaxflow_lp` builds its
bounds from the ints.  A flow, an :class:`HFlow`, is int weights over
one scale too: the augmentation's, whose scale grows by each
bottleneck's denominator, or the LP optimum through :func:`scaled`.
Fractions are built only for a result's value and trace.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .lp import BudgetExceeded, solve_standard
from .network import InvariantViolation, ParseError
from .values import UNBOUNDED, exact, format_ratio, format_value, lowest_terms, parse_ratio, scaled


class ComplexError(Exception):
    pass


class SourceConditionViolated(ComplexError):
    def __init__(self, witnesses):
        self.witnesses = list(witnesses)
        super().__init__(f"source condition violated at {self.witnesses}")


class NegativeCapacity(ComplexError):
    pass


class OrientedComplex:
    """Pure d-dimensional complex given by its oriented facets.

    Facets are tuples of d+1 distinct vertices; the tuple order is the
    orientation.  No two facets may coincide as vertex sets.  Lower faces
    are implied; the canonical reference orientation of any face is its
    sorted vertex order.  ∂ is built and stored once, as int rows in face
    order, `_rows`, with `_row_of` giving each face's row.
    """

    __slots__ = ("dimension", "facets", "_facet_sets", "_faces", "_row_of", "_rows")

    def __init__(self, dimension, facets):
        if dimension < 1:
            raise ComplexError("dimension must be at least 1")
        self.dimension = dimension
        self.facets = tuple([tuple(f) for f in facets])
        sets = []
        columns = []
        face_set = set()
        for f in self.facets:
            if len(f) != dimension + 1 or len(set(f)) != dimension + 1:
                raise ComplexError(f"facet {f} is not a {dimension}-simplex")
            sets.append(frozenset(f))
            # f is p times its sorted form ref, where p is the sign of the
            # permutation that sorts f, so ∂f = Σ_k p(-1)^k (ref minus ref[k])
            ref = tuple(sorted(f))
            p = -1 if sum(a > b for a, b in combinations(f, 2)) % 2 else 1
            column = {ref[:k] + ref[k + 1:]: -p if k % 2 else p for k in range(len(ref))}
            columns.append(column)
            face_set.update(column)
        if len(set(sets)) != len(sets):
            raise ComplexError("two facets coincide as vertex sets")
        self._facet_sets = tuple(sets)
        self._faces = tuple(sorted(face_set))
        self._row_of = {face: i for i, face in enumerate(self._faces)}
        self._rows = tuple([tuple([column.get(face, 0) for column in columns])
                            for face in self._faces])

    def faces(self):
        """Canonical (d-1)-faces: sorted tuples in lexicographic order."""
        return self._faces

    def facet_set(self, j):
        return self._facet_sets[j]

    def face_sign(self, face_ref, j):
        """Sign of the canonically-oriented face in the boundary of facet j."""
        i = self._row_of.get(face_ref)
        return 0 if i is None else self._rows[i][j]

    def boundary(self, values):
        """The boundary operator applied to facet values: {face: (∂x)_face}
        over every canonical face, read off the int rows; ints for int
        values."""
        if len(values) != len(self.facets):
            raise ValueError(f"{len(values)} values for {len(self.facets)} facets")
        return {face: sum(map(operator.mul, row, values))
                for face, row in zip(self._faces, self._rows)}

    def coboundary(self, lam):
        """Its transpose applied to face values {face: λ_face}: (∂ᵀλ)_j per
        facet j, read down the int rows; ints for int values."""
        values = [lam[face] for face in self._faces]
        return [sum(map(operator.mul, column, values)) for column in zip(*self._rows)]

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
    """Boundary operator as an integer matrix, a copy of the complex's rows:
    rows are the canonical (d-1)-faces (sorted tuples, lexicographic
    order), columns are facets in their given order."""
    return [list(row) for row in complex_._rows]


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
    """Oriented complex with a source facet of unbounded capacity.

    The finite capacities are stored once, in facet order, as `ints` in
    units of ``1/scale``, and in no other form: facet j's capacity is
    ``ints[j] / scale``, where ``scale`` is the LCM of their reduced
    denominators (1 when there are none), and the source facet's entry is
    None.  The constructor takes the ints over any common scale and
    reduces them by :func:`~flowkit.values.lowest_terms`, which leaves
    that LCM, as :class:`~flowkit.network.Network`'s does.  Build flow
    networks with :func:`build_hnetwork`.
    """

    __slots__ = ("complex", "t_index", "ints", "scale")

    def __init__(self, complex_, t_index, ints, scale):
        self.complex = complex_
        self.t_index = t_index
        self.ints, self.scale = lowest_terms(ints, scale)

    def facet_count(self):
        return len(self.complex.facets)

    def __eq__(self, other):
        if not isinstance(other, HNetwork):
            return NotImplemented
        return (self.complex, self.t_index, self.ints, self.scale) == \
               (other.complex, other.t_index, other.ints, other.scale)

    def __repr__(self):
        return f"HNetwork(T={self.complex.facets[self.t_index]}, facets={self.facet_count()})"


def build_hnetwork(complex_, t_index, capacities, scale=None):
    """Validate the source condition and non-negative finite capacities.

    `capacities` is a dict that maps every facet index except `t_index` to
    its capacity, an int, Fraction or `p/q` string; an entry for `t_index`
    itself must be UNBOUNDED.  With `scale`, every capacity is instead an
    int count of units ``1/scale``, as :func:`read_hnet` passes them.
    """
    if not (0 <= t_index < len(complex_.facets)):
        raise ComplexError(f"no facet with index {t_index}")
    caps = {}
    for j in range(len(complex_.facets)):
        if j == t_index:
            if j in capacities and capacities[j] is not UNBOUNDED:
                raise ComplexError("the source facet capacity is fixed at UNBOUNDED")
            continue
        if j not in capacities:
            raise ComplexError(f"missing capacity for facet {j}")
        c = capacities[j] if scale is not None else exact(capacities[j])
        if c < 0:
            raise NegativeCapacity(f"capacity of facet {j} is negative")
        caps[j] = c
    extra = set(capacities) - set(caps) - {t_index}
    if extra:
        raise ComplexError(f"capacities given for unknown facets {sorted(extra)}")
    ok, witnesses = check_source_condition(complex_, t_index)
    if not ok:
        raise SourceConditionViolated(witnesses)
    ints = list(caps.values())  # facet order, the source facet left out
    if scale is None:
        ints, scale = scaled(ints)
    ints.insert(t_index, None)
    return HNetwork(complex_, t_index, ints, scale)


class HFlow(NamedTuple):
    """Facet weights as ints over one scale, as a graph
    :class:`~flowkit.network.ScaledFlow` is: facet j carries
    ``weights[j] / scale``; the amount carried is the source entry."""

    weights: tuple
    scale: int


def is_weighted_cycle(complex_, values):
    """Whether boundary . values = 0; returns (ok, residual per face)."""
    residuals = {face: x for face, x in complex_.boundary(values).items() if x != 0}
    return (not residuals, residuals)


def hflow_violations(hnet, weights, scale):
    """The bounds 0 <= w and w / scale <= c and the cycle rows ∂w = 0 that
    the flow ``weights[j] / scale`` (ints over any scale > 0) breaks.  The
    capacity bound is checked against `hnet.ints` by cross-multiplying,
    and the cycle rows on the ints; no Fraction is built."""
    ints, base = hnet.ints, hnet.scale
    bad = []
    for j, w in enumerate(weights):
        if w < 0:
            bad.append(("negative", j))
        if ints[j] is not None and w * base > ints[j] * scale:
            bad.append(("capacity", j))
    ok, residuals = is_weighted_cycle(hnet.complex, weights)
    bad.extend(("cycle", face) for face in sorted(residuals))
    return bad


# -- HMaxflow by LP ---------------------------------------------------------


@dataclass
class HMaxflowResult:
    flow: HFlow
    value: Fraction
    trace: list | None = None  # the amount of each augmentation, or None for the LP


def hmaxflow_lp(hnet):
    """Maximize the amount carried by the source facet, exactly; the bounds
    are Fractions of `hnet.ints`, and None (no bound) on the source facet.
    The flow is the optimum through :func:`scaled`."""
    eq_rows = hnet.complex._rows
    objective = [0] * hnet.facet_count()
    objective[hnet.t_index] = 1
    upper = [None if c is None else Fraction(c, hnet.scale) for c in hnet.ints]
    status, point = solve_standard(objective, eq_rows=eq_rows, eq_bounds=[0] * len(eq_rows),
                                   upper=upper)
    if status != "optimal":
        raise InvariantViolation("bounded feasible program", "hmaxflow_lp", [status])
    weights, scale = scaled(point)
    return HMaxflowResult(HFlow(tuple(weights), scale), point[hnet.t_index])


# -- residual complex and augmenting cycles ---------------------------------


def residual_complex(hnet, weights, scale):
    """The residual multicomplex of the flow ``weights[j] / scale`` (ints
    over any scale > 0): ``(j, 1)`` for each facet below its capacity,
    then ``(j, -1)`` for each with positive weight, in facet order.  The
    source facet's forward copy is always there."""
    t, ints, base = hnet.t_index, hnet.ints, hnet.scale
    out = []
    for j, w in enumerate(weights):
        if j == t or ints[j] * scale > w * base:  # c_j > w / scale, cross-multiplied
            out.append((j, 1))
        if w > 0:
            out.append((j, -1))
    return out


@dataclass(frozen=True)
class AugmentingCycle:
    """Integer combination of residual facets with zero boundary that
    carries the source facet forward."""

    terms: tuple              # (facet_index, direction +1/-1, coefficient)


def find_augmenting_cycle(hnet, weights, scale):
    """Smallest-mass residual cycle through the source facet of the flow
    ``weights[j] / scale``, or None.

    Solves an exact LP: unit coefficient on the forward source copy,
    boundary balance, non-negative coefficients supported on the residual
    complex.  Its rows are the complex's int boundary rows, one column per
    residual copy, negated for a reversed one; :func:`scaled` turns its
    vertex into integers.  The reversed source copy is excluded: a cycle
    using both source copies cancels and cannot increase the carried
    amount.
    """
    t = hnet.t_index
    copies = [copy for copy in residual_complex(hnet, weights, scale) if copy != (t, -1)]
    t_col = copies.index((t, 1))
    eq_rows = [[row[j] * direction for j, direction in copies] for row in hnet.complex._rows]
    pin = [0] * len(copies)
    pin[t_col] = 1
    eq_rows.append(pin)
    eq_bounds = [0] * (len(eq_rows) - 1) + [1]
    objective = [-1] * len(copies)
    objective[t_col] = 0
    status, point = solve_standard(objective, eq_rows=eq_rows, eq_bounds=eq_bounds)
    if status == "infeasible":
        return None
    if status != "optimal":  # objective bounded above by zero
        raise InvariantViolation("bounded cycle LP", "find_augmenting_cycle", [status])
    coefficients, _ = scaled(point)
    terms = [(j, direction, c) for (j, direction), c in zip(copies, coefficients) if c > 0]
    return AugmentingCycle(tuple(terms))


AUGMENTATION_BUDGET = 500


def hmaxflow_augment(hnet, instrumented=False):
    """Iterate augmenting cycles from the zero flow until none remains.

    Every step pushes `amount = min residual(X_i) / coefficient_i` around
    the cycle, which strictly increases the carried amount and saturates
    at least one residual copy.  The facet weights are ints over a scale
    that starts at the network's: the bottleneck is found by
    cross-multiplying, and the denominator of amount * scale in lowest
    terms multiplies the scale, so that the amount and every new weight
    are ints over it, and the flow it returns is those ints.  Fractions are
    built only for its value and the trace of amounts.  More than
    :data:`AUGMENTATION_BUDGET` steps raise :class:`BudgetExceeded`.  With
    `instrumented`, every intermediate flow is re-checked on its ints by
    :func:`hflow_violations`, and a broken one raises
    :class:`InvariantViolation` naming its step.
    """
    t, ints = hnet.t_index, hnet.ints
    scale = hnet.scale
    weights = [0] * hnet.facet_count()
    trace = []
    for _ in range(AUGMENTATION_BUDGET):
        cycle = find_augmenting_cycle(hnet, weights, scale)
        if cycle is None:
            return HMaxflowResult(HFlow(tuple(weights), scale), Fraction(weights[t], scale), trace)
        where = f"augmentation {len(trace) + 1}"
        unit = scale // hnet.scale  # a capacity is ints[j] * unit over the scale
        best = None  # the bottleneck as (residual, coefficient): residual / coefficient / scale
        for (j, direction, coeff) in cycle.terms:
            if direction < 0:
                r = weights[j]
            elif j != t:
                r = ints[j] * unit - weights[j]
            else:
                continue
            if best is None or r * best[1] < best[0] * coeff:
                best = (r, coeff)
        if best is None or best[0] <= 0:
            amount = None if best is None else Fraction(best[0], best[1] * scale)
            raise InvariantViolation("positive bottleneck", where, [amount])
        g = math.gcd(*best)
        amount, q = best[0] // g, best[1] // g
        if q > 1:  # amount / q in units of 1/scale: rescale so that it is an int
            scale *= q
            weights = [w * q for w in weights]
        before = weights[t]
        for (j, direction, coeff) in cycle.terms:
            weights[j] += direction * coeff * amount
        gain = weights[t] - before
        if gain <= 0:
            raise InvariantViolation("carried amount increases", where, [Fraction(gain, scale)])
        trace.append(Fraction(amount, scale))
        if instrumented:
            bad = hflow_violations(hnet, weights, scale)
            if bad:
                raise InvariantViolation("hflow", where, bad)
    raise BudgetExceeded(f"no fixpoint within {AUGMENTATION_BUDGET} augmentations")


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


HCUT_PARTITION_BUDGET = 4096  # face partitions the cut sweep enumerates at most


def all_hcuts(complex_, budget=HCUT_PARTITION_BUDGET):
    faces = complex_.faces()
    if 2 ** len(faces) > budget:
        raise BudgetExceeded(f"2^{len(faces)} partitions exceed the budget")
    for k in range(len(faces) + 1):
        for chosen in combinations(faces, k):
            yield HCut(frozenset(chosen))


@dataclass(frozen=True)
class HDualPoint:
    lam: dict                 # face -> int 0 or 1
    eta: dict                 # facet index -> int (source included)


def hcut_capacity(hnet, hcut):
    """Dual-feasible point of a cut and its capacity.

    Int potentials: 0 on the cut side, 1 elsewhere.  Int facet variables
    make each dual inequality tight from below.  The capacity is the
    weighted sum of the non-source capacities, an int sum over
    `hnet.ints` made one Fraction; a positive source variable prices the
    unbounded source capacity, making the capacity UNBOUNDED as well (the
    upper bound on the carried amount is then vacuous).
    """
    t, ints = hnet.t_index, hnet.ints
    lam = {face: int(face not in hcut.s_side) for face in hnet.complex.faces()}
    eta = {}
    total = 0
    for j, g in enumerate(hnet.complex.coboundary(lam)):
        eta[j] = max(0, int(j == t) - g)
        if j != t:
            total += eta[j] * ints[j]
    capacity = UNBOUNDED if eta[t] > 0 else Fraction(total, hnet.scale)
    return capacity, HDualPoint(lam, eta)


def hdual_violations(hnet, point):
    bad = []
    for j, g in enumerate(hnet.complex.coboundary(point.lam)):
        if point.eta[j] < 0:
            bad.append(("negative_eta", j))
        needed = int(j == hnet.t_index)
        if g + point.eta[j] < needed:
            bad.append(("facet_inequality", j))
    return bad


# -- simplicial trees and the TU certificate ----------------------------------


def _is_leaf_of(complex_, members, f_index, fp_index):
    """Whether (F, F') is a leaf of the facets `members`: every one of
    them other than F meets F inside F'."""
    f_set = complex_.facet_set(f_index)
    fp_set = complex_.facet_set(fp_index)
    return all(f_set & complex_.facet_set(h) <= fp_set for h in members if h != f_index)


def is_leaf(complex_, f_index, fp_index):
    """Whether (F, F') is a leaf: every other facet meets F inside F'."""
    return _is_leaf_of(complex_, range(len(complex_.facets)), f_index, fp_index)


TREE_FACET_BUDGET = 12  # the tree tests below are exhaustive over 2^k facet subsets


def is_simplicial_tree(complex_):
    """Connected, and every nonempty facet subset contains a leaf.

    Exhaustive over the 2^k facet subsets; refuses complexes with more
    than :data:`TREE_FACET_BUDGET` facets.
    """
    k = len(complex_.facets)
    if k > TREE_FACET_BUDGET:
        raise BudgetExceeded(f"{k} facets exceed the subset budget of {TREE_FACET_BUDGET}")
    if not complex_.is_connected():
        return False
    for size in range(2, k + 1):  # a single facet is a leaf of itself
        for subset in combinations(range(k), size):
            if not any(_is_leaf_of(complex_, subset, f, fp)
                       for f in subset for fp in subset if fp != f):
                return False
    return True


def tu_certificate_via_tree(complex_):
    """Disjoint facets whose removal leaves a simplicial tree, if any.

    Dimension 2 only, and at most :data:`TREE_FACET_BUDGET` facets.  A
    returned set certifies that the boundary matrix is totally
    unimodular; absence of a certificate claims nothing.
    """
    if complex_.dimension != 2:
        raise ComplexError("the tree certificate is stated for dimension 2")
    k = len(complex_.facets)
    if k > TREE_FACET_BUDGET:
        raise BudgetExceeded(f"{k} facets exceed the search budget of {TREE_FACET_BUDGET}")
    for size in range(k):
        for removed in combinations(range(k), size):
            if any(complex_.facet_set(a) & complex_.facet_set(b)
                   for a, b in combinations(removed, 2)):
                continue
            remaining = [f for i, f in enumerate(complex_.facets) if i not in removed]
            if not remaining:
                continue
            sub = OrientedComplex(complex_.dimension, remaining)
            if is_simplicial_tree(sub):
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
    return build_hnetwork(cx, len(facets) - 1, dict(enumerate(net.ints)), scale=net.scale)


def hcut_from_graph_cut(net, cut):
    return HCut(frozenset((v,) for v in cut.source_side))


# -- file formats --------------------------------------------------------------


def write_hnet(hnet):
    """The flow network in the `hnet` format; each capacity is written from
    its int over the scale by :func:`format_ratio`, as
    :func:`~flowkit.network.write_dimacs` writes an arc's."""
    scale = hnet.scale
    lines = [f"hnet dim {hnet.complex.dimension}"]
    for j, (facet, c) in enumerate(zip(hnet.complex.facets, hnet.ints)):
        verts = " ".join(str(v) for v in facet)
        if j == hnet.t_index:
            lines.append(f"t {verts}")
        else:
            lines.append(f"f {verts} {format_ratio(c, scale)}")
    return "\n".join(lines) + "\n"


def read_hnet(text):
    """Parse the `hnet` format; raises ParseError with a line number.

    Each capacity token is read as ints ``p/q`` (:func:`parse_ratio`), and
    :func:`build_hnetwork` gets them as the ints ``p * (scale // q)`` over
    ``scale``, the LCM of the q's; no capacity becomes a Fraction.
    """
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
                facets.append(tuple([int(x) for x in fields[1:]]))
            elif fields[0] == "f":
                if dim is None:
                    raise ParseError("facet before header", line_no)
                if len(fields) != dim + 3:
                    raise ParseError(f"expected `f <{dim + 1} vertices> <cap>`", line_no)
                caps[len(facets)] = parse_ratio(fields[-1])
                facets.append(tuple([int(x) for x in fields[1:-1]]))
            else:
                raise ParseError(f"unknown record type {fields[0]!r}", line_no)
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
    if dim is None:
        raise ParseError("missing `hnet dim` header")
    if t_index is None:
        raise ParseError("missing source facet line")
    scale = math.lcm(*{q for (_, q) in caps.values()})
    try:
        return build_hnetwork(OrientedComplex(dim, facets), t_index,
                              {j: p * (scale // q) for j, (p, q) in caps.items()}, scale=scale)
    except ComplexError as exc:
        raise ParseError(str(exc))


def write_hflow(hnet, flow):
    """`hf <j> <x>` per facet, then `s` and the source facet's x, each
    written from the :class:`HFlow`'s ints by :func:`format_ratio`."""
    weights, scale = flow
    lines = [f"hf {j} {format_ratio(w, scale)}" for j, w in enumerate(weights)]
    lines.append(f"s {format_ratio(weights[hnet.t_index], scale)}")
    return "\n".join(lines) + "\n"


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


PROBE_MAX_FACETS = 8  # facets of a random probe instance, at most


def random_hnetwork(rng, max_facets=PROBE_MAX_FACETS):
    """Random dimension-2 flow network on 4 to 6 vertices: sampled
    triangles with random orientations, a source facet preferring
    well-shared edges, neighbor orientations flipped where needed to
    establish the source condition, and integer capacities from 0 to 5."""
    if max_facets < 4:
        raise ComplexError(f"a random 2-complex needs max_facets of at least 4, got {max_facets}")
    nv = rng.randint(4, 6)
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
    _, witnesses = check_source_condition(OrientedComplex(2, facets), t_index)
    for j, _ in witnesses:
        f = facets[j]
        facets[j] = (f[1], f[0], f[2])
    cx = OrientedComplex(2, facets)
    caps = {j: Fraction(rng.randint(0, 5)) for j in range(k) if j != t_index}
    return build_hnetwork(cx, t_index, caps)


def conjecture_probe(seed, trials, max_facets=PROBE_MAX_FACETS):
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
