"""Exact-rational linear programming and total unimodularity.

A program reads `max c.x : Ax <= b` (``max``) or `min c.x : Ax >= b`
(``min``); per-variable flags mark which variables are sign-restricted.
:func:`simplex_solve` hands it to :func:`solve_standard`, which solves the
bounded form `max c.x : Ux <= b, Ex = b, 0 <= x <= u` with a dense tableau
simplex and Bland's anti-cycling rule.  Single-variable rows become bounds
kept out of the tableau, and opposite row pairs become equalities, so the
maximum-flow programs `[A; -A; I] x <= [0; 0; cap]` are solved as
`A x = 0, 0 <= x <= cap`.  The tableau is Python ints over one common
denominator, pivoted by the integer-preserving step `det_int` also uses,
and each row enters it through :func:`flowkit.values.scaled`, the one LCM
scaling, shared with the residual graph and the cycle LP.  `Fraction`s
appear only in the inputs and the optimal point, and every duality
assertion in the test-suite is exact rather than tolerance-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .network import Cut, InvariantViolation, ParseError, cut_capacity, incidence_matrix
from .values import exact, format_value, is_unbounded, parse_value, scaled


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
    """A :class:`LinearProgram` of exact values; see :func:`exact`."""
    objective = tuple(map(exact, objective))
    if nonneg is None:
        nonneg = (True,) * len(objective)
    rows = tuple(tuple(map(exact, row)) for row in rows)
    bounds = tuple(map(exact, bounds))
    return LinearProgram(sense, objective, rows, bounds, tuple(bool(x) for x in nonneg))


# -- simplex core ----------------------------------------------------------


def _pivot(rows, prow, col, d):
    """One integer-preserving elimination step on `col`; returns the new
    denominator, the pivot p = prow[col].

    Every row of `rows` other than `prow` becomes (p*e - f*b) / d entrywise,
    where f is its own entry in `col` and b the entry of `prow` above e.
    The rows hold integers over the common denominator d, and the division
    is exact (Edmonds 1967, Bareiss 1968).  Rows are updated in place;
    `prow` is left as it is.
    """
    p = prow[col]
    for row in rows:
        f = row[col]
        if row is prow or (f == 0 and p == d):
            continue
        row[:] = [(p * e - f * b) // d for e, b in zip(row, prow)]
    return p


def _complement(rows, col, bound):
    """Replace the variable of `col` by `bound` minus itself in `rows`: its
    column is negated and `bound` times the column leaves the right-hand
    side.  This is a column operation on the starting matrix, so every entry
    stays an integer minor and later pivots still divide exactly."""
    for row in rows:
        f = row[col]
        if f:
            row[-1] -= f * bound
            row[col] = -f


def _bland_loop(tableau, basis, obj_rows, active_cols, d, limits, flipped):
    """Pivot until the first objective row has no improving column.

    Returns the status, "optimal" or "unbounded", and the denominator.
    Variable j lies in [0, limits[j]] (None: no bound), in the units of the
    right-hand side; `flipped` is the set of variables that stand for their
    bound minus themselves, updated in place.  Entering column: smallest
    active index with positive reduced cost.  The step is the smallest of
    the entering variable reaching its bound (a bound flip, no pivot), a
    basic variable falling to 0, or a basic variable rising to its bound
    (it is complemented and its row negated first); ties go to the smallest
    variable index.  Every pivot is positive, so d stays positive and the
    signs of the integers are the signs of the values.  Bland's rule never
    revisits a basis with the same complemented set, so a repeat raises
    :class:`InvariantViolation` ("anti-cycling") instead of looping forever.
    """
    rhs = len(obj_rows[0]) - 1
    rows = tableau + obj_rows
    bkey = sum(1 << j for j in basis)  # the basic and the complemented columns, one bit each
    fkey = sum(1 << j for j in flipped)
    seen = {(bkey, fkey): 0}
    while True:
        obj = obj_rows[0]
        enter = next((j for j in active_cols if obj[j] > 0), None)
        if enter is None:
            return "optimal", d
        # (step numerator, step denominator, blocking variable, its row or None)
        u = limits[enter]
        step = None if u is None else (u, 1, enter, None)
        for i, row in enumerate(tableau):  # steps compared by cross-multiplying
            a = row[enter]
            if a > 0:
                cand = (row[rhs], a, basis[i], i)
            elif a < 0 and limits[basis[i]] is not None:
                cand = (limits[basis[i]] * d - row[rhs], -a, basis[i], i)
            else:
                continue
            if step is None or (cand[0] * step[1], cand[2]) < (step[0] * cand[1], step[2]):
                step = cand
        if step is None:
            return "unbounded", d
        _, _, var, leave = step
        if leave is None:
            _complement(rows, enter, u)
            flipped ^= {enter}
            fkey ^= 1 << enter
        else:
            row = tableau[leave]
            if row[enter] < 0:  # var leaves at its bound, as its complement at 0
                _complement([row], var, limits[var])
                row[:] = [-x for x in row]  # d stays > 0, as if all rows and d were negated after the step
                flipped ^= {var}
                fkey ^= 1 << var
            d = _pivot(rows, row, enter, d)
            basis[leave] = enter
            bkey ^= (1 << var) ^ (1 << enter)
        if (bkey, fkey) in seen:
            raise InvariantViolation("anti-cycling", f"pivot {len(seen)}",
                                     [f"basis {sorted(basis)} with complemented {sorted(flipped)} "
                                      f"was already reached at pivot {seen[bkey, fkey]}"])
        seen[bkey, fkey] = len(seen)


def solve_standard(objective, ub_rows=(), ub_bounds=(), eq_rows=(), eq_bounds=(), upper=()):
    """maximize objective.x subject to ub_rows.x <= ub_bounds,
    eq_rows.x = eq_bounds, 0 <= x <= upper.  Returns (status, point).

    `upper[j]` bounds variable j (UNBOUNDED or missing: no bound; a
    negative bound makes the program infeasible).  Each row is scaled by
    the LCM of its denominators (:func:`scaled`), and two kinds of ub row
    are read off that int row: a row whose only nonzero is positive, with a
    bound >= 0, is a bound on its variable, and a pair (r, b), (-r, -b) is
    one equality.  Bounds stay out of the tableau: a variable at its bound
    is complemented (:func:`_complement`), and the right-hand side is
    scaled once by the LCM of the bounds' denominators so that
    complementing keeps it integer.  That scales every variable alike, so
    it moves no pivot.

    A row with a negative bound is negated.  Each row starts on a unit
    column: its slack (ub rows with a bound >= 0), else a structural column
    with no bound whose only nonzero is this row's +1, else an artificial.
    Phase 1 runs only if an artificial starts above 0.  After it, every
    artificial is bounded by 0 and stays basic until a step of length 0
    moves it out.  Scaling a row and the columns only it uses moves no
    pivot of the rational tableau, provided phase 1 charges artificial i the
    reciprocal of its row's scale.
    """
    nvars = len(objective)
    bound = [None if is_unbounded(u) else u for u in upper] + [None] * (nvars - len(upper))
    if any(u is not None and u < 0 for u in bound):
        return "infeasible", None
    entries = []   # [scaled row with its bound, scale, is an equality]
    unpaired = {}  # ub rows by their scaled ints, waiting for their opposite
    for row, b in zip(ub_rows, ub_bounds):
        full, lam = scaled(list(row) + [b])
        nonzero = [j for j in range(nvars) if full[j]]
        if len(nonzero) == 1 and full[nonzero[0]] > 0 and full[-1] >= 0:
            j = nonzero[0]
            u = Fraction(full[-1], full[j])
            if bound[j] is None or u < bound[j]:
                bound[j] = u
            continue
        twin = unpaired.pop(tuple(-x for x in full), None)
        if twin is not None:
            twin[2] = True
            continue
        entry = [full, lam, False]
        unpaired.setdefault(tuple(full), entry)
        entries.append(entry)
    for row, b in zip(eq_rows, eq_bounds):
        entries.append([*scaled(list(row) + [b]), True])

    rhs_scale = math.lcm(*(u.denominator for u in bound if u is not None))
    nslack = sum(1 for _, _, eq in entries if not eq)
    free_units = None  # structural unit columns: no bound, one nonzero
    tableau = []
    basis = []
    art_scales = {}
    slacks = nvars
    for full, lam, eq in entries:
        sign = -1 if full[-1] < 0 else 1
        row = [sign * x for x in full[:-1]] + [0] * nslack
        row.append(sign * full[-1] * rhs_scale)
        start = None
        if not eq:
            row[slacks] = sign
            start = slacks if sign > 0 else None
            slacks += 1
        if start is None:
            if free_units is None:
                columns = zip(*(entry[0][:nvars] for entry in entries))
                free_units = [u is None and sum(map(bool, col)) == 1 for u, col in zip(bound, columns)]
            start = next((j for j in range(nvars) if free_units[j] and row[j] == 1), None)
        if start is None:
            start = nvars + nslack + len(art_scales)
            art_scales[start] = lam
        basis.append(start)
        tableau.append(row)
    total = nvars + nslack + len(art_scales)
    for row, col in zip(tableau, basis):  # the artificial columns, now that they are counted
        row[-1:-1] = [int(j == col) for j in range(nvars + nslack, total)]
    limits = [None if u is None else u.numerator * (rhs_scale // u.denominator) for u in bound]
    limits += [None] * (total - nvars)
    flipped = set()

    costs, _ = scaled(objective)
    obj_rows = [costs + [0] * (total - nvars + 1)]
    if any(row[-1] > 0 for row, col in zip(tableau, basis) if col in art_scales):
        unit = math.lcm(*art_scales.values())
        obj_rows.insert(0, [0] * (total + 1))
        for art, lam in art_scales.items():
            obj_rows[0][art] = -(unit // lam)
    for row, col in zip(tableau, basis):  # price out the unit starting basis
        _pivot(obj_rows, row, col, 1)

    d = 1
    if len(obj_rows) == 2:
        status, d = _bland_loop(tableau, basis, obj_rows, range(total), d, limits, flipped)
        if status != "optimal":  # phase 1 is bounded by zero
            raise InvariantViolation("phase 1", "simplex", [status])
        if obj_rows[0][-1] != 0:
            return "infeasible", None
    for art in art_scales:
        limits[art] = 0

    active = range(nvars + nslack)
    status, d = _bland_loop(tableau, basis, obj_rows[-1:], active, d, limits, flipped)
    if status == "unbounded":
        return "unbounded", None
    scale = d * rhs_scale
    point = [Fraction(limits[j], rhs_scale) if j in flipped else Fraction(0) for j in range(nvars)]
    for row, col in zip(tableau, basis):
        if col < nvars:
            x = row[-1]
            point[col] = Fraction(limits[col] * d - x if col in flipped else x, scale)
    return "optimal", point


def simplex_solve(lp):
    """Solve an inequality-form program exactly.

    Free variables are split into differences of sign-restricted pairs;
    ``min`` programs are negated into ``max`` form.  The result carries an
    exact optimal point (in the program's own variables) or the correct
    unbounded/infeasible status.
    """
    maximize = lp.sense == "max"
    # column (j, s) carries s * x_j; a min program is negated as a whole
    cols = [(j, s) for j, nonneg in enumerate(lp.nonneg) for s in ((1,) if nonneg else (1, -1))]
    flips = [(j, (s > 0) != maximize) for (j, s) in cols]

    def signed(row):  # zeros pass through instead of being negated into new Fractions
        return [-row[j] if flip and row[j] else row[j] for (j, flip) in flips]

    bounds = list(lp.bounds) if maximize else [-b if b else b for b in lp.bounds]
    status, xhat = solve_standard(signed(lp.objective), ub_rows=[signed(row) for row in lp.rows],
                                  ub_bounds=bounds)
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
    :func:`solve_standard` reads these rows back as A x = 0, 0 <= x <= c.
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
    """Exact determinant of an integer matrix: Bareiss elimination with the
    simplex tableau's integer-preserving step, pivoting only the rows below
    so that the matrix ends upper triangular."""
    a = [list(map(int, row)) for row in matrix]
    if not a:
        return 1
    sign = 1
    d = 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        d = _pivot(a[k + 1:], a[k], k, d)
    return sign * a[-1][-1]


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
    """Parse the format :func:`write_lp` emits; a ParseError names the line."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if len(lines) < 3:
        raise ParseError("expected sense, objective, and nonneg lines")
    (sense_no, sense), (line_no, obj), *constraints, (flags_no, flags) = lines
    if sense not in ("max", "min"):
        raise ParseError(f"unknown sense {sense!r}", sense_no)
    rows = []
    bounds = []
    try:
        objective = [parse_value(tok) for tok in obj.split()]
        for line_no, ln in constraints:
            if ln.count("|") != 1:
                raise ParseError(f"constraint row needs exactly one `|`: {ln!r}", line_no)
            left, right = ln.split("|")
            rows.append([parse_value(tok) for tok in left.split()])
            bounds.append(parse_value(right.strip()))
    except ValueError as exc:
        raise ParseError(str(exc), line_no)
    if any(tok not in ("0", "1") for tok in flags.split()):
        raise ParseError(f"nonneg flags must be 0 or 1: {flags!r}", flags_no)
    return make_lp(sense, objective, rows, bounds, [tok == "1" for tok in flags.split()])


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
