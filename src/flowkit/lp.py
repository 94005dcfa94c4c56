"""Exact-rational linear programming and total unimodularity.

Inequality-form programs only: a ``max`` program reads `max c.x : Ax <= b`,
a ``min`` program reads `min c.x : Ax >= b`; per-variable flags mark which
variables are sign-restricted.  The solver is a dense two-phase tableau
simplex with Bland's anti-cycling rule over `fractions.Fraction`, so every
duality assertion in the test-suite is exact rather than tolerance-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .network import Cut, InvariantViolation, ParseError, all_cuts, cut_capacity, incidence_matrix
from .values import format_value, is_unbounded, parse_value


class Malformed(Exception):
    pass


class Infeasible(Exception):
    pass


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class LinearProgram:
    sense: str                # "max" (rows are <=) or "min" (rows are >=)
    objective: tuple
    rows: tuple               # constraint matrix, one tuple per row
    bounds: tuple             # right-hand sides
    nonneg: tuple             # True where the variable is sign-restricted

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise Malformed(f"unknown sense {self.sense!r}")
        n = len(self.objective)
        if len(self.nonneg) != n:
            raise Malformed("nonneg flags do not match the variable count")
        if len(self.rows) != len(self.bounds):
            raise Malformed("row/bound count mismatch")
        for row in self.rows:
            if len(row) != n:
                raise Malformed("ragged constraint matrix")


@dataclass
class LPResult:
    status: str               # "optimal" | "unbounded" | "infeasible"
    point: tuple | None
    value: Fraction | None


def make_lp(sense, objective, rows, bounds, nonneg=None):
    objective = tuple(Fraction(x) for x in objective)
    if nonneg is None:
        nonneg = (True,) * len(objective)
    rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    bounds = tuple(Fraction(b) for b in bounds)
    return LinearProgram(sense, objective, rows, bounds, tuple(bool(x) for x in nonneg))


# -- simplex core ----------------------------------------------------------


def _pivot(tableau, basis, obj_rows, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    prow = tableau[row]
    for i, trow in enumerate(tableau):
        if i != row and trow[col] != 0:
            factor = trow[col]
            tableau[i] = [a - factor * b for a, b in zip(trow, prow)]
    for k, orow in enumerate(obj_rows):
        if orow[col] != 0:
            factor = orow[col]
            obj_rows[k] = [a - factor * b for a, b in zip(orow, prow)]
    basis[row] = col


def _bland_loop(tableau, basis, obj_rows, active_cols):
    """Pivot until the first objective row has no improving column.

    Returns "optimal" or "unbounded".  Entering column: smallest active
    index with positive reduced cost; leaving row: minimum ratio, ties by
    smallest basis index.
    """
    rhs = len(obj_rows[0]) - 1
    while True:
        obj = obj_rows[0]
        enter = None
        for j in active_cols:
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[rhs] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, obj_rows, leave, enter)


def solve_standard(objective, ub_rows=(), ub_bounds=(), eq_rows=(), eq_bounds=()):
    """maximize objective.x subject to ub_rows.x <= ub_bounds,
    eq_rows.x = eq_bounds, x >= 0.  Returns (status, point)."""
    nvars = len(objective)
    raw = [(list(r), Fraction(b), "le") for r, b in zip(ub_rows, ub_bounds)]
    raw += [(list(r), Fraction(b), "eq") for r, b in zip(eq_rows, eq_bounds)]
    for rec in range(len(raw)):
        row, b, rel = raw[rec]
        if b < 0:
            raw[rec] = ([-x for x in row], -b, {"le": "ge", "ge": "le", "eq": "eq"}[rel])

    nslack = sum(1 for (_, _, rel) in raw if rel in ("le", "ge"))
    nart = sum(1 for (_, _, rel) in raw if rel in ("ge", "eq"))
    total = nvars + nslack + nart
    tableau = []
    basis = []
    slack_at = nvars
    art_at = nvars + nslack
    art_cols = []
    for row, b, rel in raw:
        full = [Fraction(x) for x in row] + [Fraction(0)] * (nslack + nart) + [b]
        if rel == "le":
            full[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == "ge":
            full[slack_at] = Fraction(-1)
            slack_at += 1
            full[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        else:
            full[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        tableau.append(full)

    art_set = set(art_cols)

    def reduced_row(costs):
        row = list(costs) + [Fraction(0)] * (total - len(costs)) + [Fraction(0)]
        for i, b in enumerate(basis):
            cb = row_cost(costs, b)
            if cb != 0:
                row = [a - cb * x for a, x in zip(row, tableau[i] + [])]
        return row

    def row_cost(costs, col):
        return costs[col] if col < len(costs) else Fraction(0)

    obj2 = [Fraction(x) for x in objective]

    if art_cols:
        obj1 = [Fraction(0)] * total
        for c in art_cols:
            obj1[c] = Fraction(-1)
        rows = [reduced_row(obj1), reduced_row(obj2)]
        status = _bland_loop(tableau, basis, rows, range(total))
        if status != "optimal":  # phase 1 is bounded by zero
            raise InvariantViolation("phase 1", "simplex", [status])
        if rows[0][-1] != 0:
            return "infeasible", None
        # drive surviving artificials out of the basis
        i = 0
        while i < len(tableau):
            if basis[i] in art_set:
                pivot_col = next((j for j in range(total)
                                  if j not in art_set and tableau[i][j] != 0), None)
                if pivot_col is None:
                    del tableau[i], basis[i]
                    continue
                _pivot(tableau, basis, rows, i, pivot_col)
            i += 1
        obj_rows = [rows[1]]
    else:
        obj_rows = [reduced_row(obj2)]

    active = [j for j in range(total) if j not in art_set]
    status = _bland_loop(tableau, basis, obj_rows, active)
    if status == "unbounded":
        return "unbounded", None
    point = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            point[b] = tableau[i][-1]
    return "optimal", point


def simplex_solve(lp):
    """Solve an inequality-form program exactly.

    Free variables are split into differences of sign-restricted pairs;
    ``min`` programs are negated into ``max`` form.  The result carries an
    exact optimal point (in the program's own variables) or the correct
    unbounded/infeasible status.
    """
    maximize = lp.sense == "max"
    cols = []
    for j in range(len(lp.objective)):
        cols.append((j, 1))
        if not lp.nonneg[j]:
            cols.append((j, -1))
    obj = [lp.objective[j] * s * (1 if maximize else -1) for (j, s) in cols]
    sign = 1 if maximize else -1
    rows = [[sign * row[j] * s for (j, s) in cols] for row in lp.rows]
    bounds = [sign * b for b in lp.bounds]
    status, xhat = solve_standard(obj, ub_rows=rows, ub_bounds=bounds)
    if status != "optimal":
        return LPResult(status, None, None)
    point = [Fraction(0)] * len(lp.objective)
    for (j, s), x in zip(cols, xhat):
        point[j] += s * x
    value = sum((c * x for c, x in zip(lp.objective, point)), Fraction(0))
    return LPResult("optimal", tuple(point), value)


# -- the maximum-flow program and its dual ---------------------------------


def flow_program(balance, capacities, objective):
    """The flow program `max objective.x : [A; -A; I] x <= [0; 0; c]`.

    `balance` is A, one row per conserved quantity, written as both
    inequality directions of A x = 0; then one row x_j <= c_j per finite
    capacity, in column order (UNBOUNDED capacities get no row).
    """
    rows = [list(r) for r in balance] + [[-x for x in r] for r in balance]
    bounds = [0] * len(rows)
    for j, cap in enumerate(capacities):
        if not is_unbounded(cap):
            rows.append([1 if i == j else 0 for i in range(len(objective))])
            bounds.append(cap)
    return make_lp("max", objective, rows, bounds)


def build_primal(net):
    """LP over one variable per arc whose optimum is the maximum flow value.

    Objective: the source row of the incidence matrix.  Constraints: both
    inequality directions of conservation at every internal vertex, then
    one capacity row per finitely-capacitated arc.
    """
    phi = incidence_matrix(net)
    return flow_program(phi[1:-1], net.capacities(), phi[0])


def build_dual(lp):
    """Mechanical dual of a standard-form max program:
    min b.y : A^T y >= c, y >= 0."""
    if lp.sense != "max" or not all(lp.nonneg):
        raise Malformed("mechanical dual expects `max` with all variables sign-restricted")
    n = len(lp.objective)
    transposed = [tuple(row[j] for row in lp.rows) for j in range(n)]
    return make_lp("min", lp.bounds, transposed, lp.objective)


def build_reduced_dual(net):
    """Dual in its collapsed form: one free variable per internal vertex,
    one sign-restricted variable per arc, with the source pinned at -1 and
    the sink at 0 (folded into the right-hand sides)."""
    if any(is_unbounded(c) for c in net.capacities()):
        raise Malformed("reduced dual requires finite capacities")
    internal = net.vertex_order()[1:-1]
    vcol = {v: i for i, v in enumerate(internal)}
    nv, m = len(internal), net.m
    rows = []
    bounds = []
    for k, (u, w) in enumerate(net.arcs):
        row = [Fraction(0)] * (nv + m)
        if u in vcol:
            row[vcol[u]] = Fraction(1)
        if w in vcol:
            row[vcol[w]] = Fraction(-1)
        row[nv + k] = Fraction(1)
        rows.append(row)
        bounds.append(Fraction(1) if u == net.source else Fraction(0))
    objective = [Fraction(0)] * nv + [Fraction(c) for c in net.capacities()]
    nonneg = [False] * nv + [True] * m
    return make_lp("min", objective, rows, bounds, nonneg)


@dataclass(frozen=True)
class DualPoint:
    """Point of the reduced dual: a potential per vertex (source fixed at
    -1, sink at 0) and a non-negative value per arc."""

    v: dict
    e: tuple


def reduced_dual_point(net, point):
    """Interpret an optimal point of :func:`build_reduced_dual` as a DualPoint."""
    internal = net.vertex_order()[1:-1]
    v = {net.source: Fraction(-1), net.sink: Fraction(0)}
    for i, vertex in enumerate(internal):
        v[vertex] = point[i]
    return DualPoint(v, tuple(point[len(internal):]))


def dual_from_cut(net, cut):
    """Feasible dual point of a cut: e=1 on traversing arcs, potentials -1
    on the source side and 0 elsewhere; its objective is the cut capacity."""
    side = cut.source_side
    v = {vertex: Fraction(-1) if vertex in side else Fraction(0) for vertex in net.vertices()}
    e = tuple(Fraction(1) if (u in side and w not in side) else Fraction(0)
              for (u, w) in net.arcs)
    return DualPoint(v, e)


def dual_violations(net, point):
    bad = []
    if point.v.get(net.source) != Fraction(-1):
        bad.append(("source_potential", net.source))
    if point.v.get(net.sink) != Fraction(0):
        bad.append(("sink_potential", net.sink))
    for k, x in enumerate(point.e):
        if x < 0:
            bad.append(("negative_arc_variable", k))
    for k, (u, w) in enumerate(net.arcs):
        if point.v[u] - point.v[w] + point.e[k] < 0:
            bad.append(("arc_inequality", (u, w)))
    return bad


def dual_objective(net, point):
    return sum((c if is_unbounded(c) else c * x
                for c, x in zip(net.capacities(), point.e) if x != 0), Fraction(0))


def cut_from_dual(net, point):
    """Round a feasible dual point to a cut of no larger capacity.

    Sweeps every threshold where the potential level set changes and keeps
    the cheapest resulting cut; the expectation argument over a uniform
    threshold guarantees some threshold reaches capacity <= the dual
    objective.
    """
    bad = dual_violations(net, point)
    if bad:
        raise Infeasible(f"dual point infeasible: {bad}")
    candidates = {Fraction(-1)}
    for vertex, val in point.v.items():
        if Fraction(-1) < val < Fraction(0):
            candidates.add(val)
    cuts = []
    for chi in sorted(candidates):
        side = frozenset(v for v in net.vertices() if point.v[v] <= chi)
        if net.source in side and net.sink not in side:
            cuts.append(Cut(side))
    if not cuts:  # chi = -1 keeps the source and drops the sink
        raise InvariantViolation("dual rounding", "threshold sweep", ["no cut"])
    return min(cuts, key=lambda cut: cut_capacity(net, cut))


def min_cut_by_enumeration(net):
    """Brute-force minimum cut over all 2^(n-2) partitions (desk scale)."""
    return min(((cut, cut_capacity(net, cut)) for cut in all_cuts(net)),
               key=lambda pair: pair[1])


# -- total unimodularity ----------------------------------------------------


@dataclass(frozen=True)
class TUResult:
    is_tu: bool
    witness_rows: tuple | None = None
    witness_cols: tuple | None = None
    witness_det: int | None = None

    def __bool__(self):
        return self.is_tu


def det_int(matrix):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_totally_unimodular(matrix, budget=200_000):
    """Exhaustive determinant test: every square submatrix must have
    determinant in {-1, 0, 1}.

    Entries outside {-1, 0, 1} short-circuit with a 1x1 witness.  The full
    enumeration refuses to start when the number of square submatrices
    exceeds `budget`.  When the answer is False the witness is a smallest
    violating submatrix.
    """
    rows = [list(map(int, r)) for r in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for i in range(nr):
        if len(rows[i]) != nc:
            raise Malformed("ragged matrix")
        for j in range(nc):
            if rows[i][j] not in (-1, 0, 1):
                return TUResult(False, (i,), (j,), rows[i][j])
    count = sum(math.comb(nr, k) * math.comb(nc, k) for k in range(2, min(nr, nc) + 1))
    if count > budget:
        raise BudgetExceeded(f"{count} submatrices exceed the budget of {budget}")
    for k in range(2, min(nr, nc) + 1):
        for rsel in combinations(range(nr), k):
            sub = [rows[i] for i in rsel]
            for csel in combinations(range(nc), k):
                d = det_int([[sub[i][j] for j in csel] for i in range(k)])
                if d not in (-1, 0, 1):
                    return TUResult(False, rsel, csel, d)
    return TUResult(True)


# -- text formats -----------------------------------------------------------


def write_lp(lp):
    lines = [lp.sense, " ".join(format_value(x) for x in lp.objective)]
    for row, b in zip(lp.rows, lp.bounds):
        lines.append(" ".join(format_value(x) for x in row) + " | " + format_value(b))
    lines.append(" ".join("1" if flag else "0" for flag in lp.nonneg))
    return "\n".join(lines) + "\n"


def read_lp(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ParseError("expected sense, objective, and nonneg lines")
    sense = lines[0]
    if sense not in ("max", "min"):
        raise ParseError(f"unknown sense {sense!r}", 1)
    objective = [parse_value(tok) for tok in lines[1].split()]
    rows = []
    bounds = []
    for ln in lines[2:-1]:
        if "|" not in ln:
            raise ParseError(f"constraint row missing `|`: {ln!r}")
        left, right = ln.split("|")
        rows.append([parse_value(tok) for tok in left.split()])
        bounds.append(parse_value(right.strip()))
    nonneg = [tok == "1" for tok in lines[-1].split()]
    return make_lp(sense, objective, rows, bounds, nonneg)


def read_matrix(text):
    rows = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(str(exc), line_no)
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError("ragged matrix row", line_no)
    return rows


def write_matrix(matrix):
    return "\n".join(" ".join(str(x) for x in row) for row in matrix) + "\n"
