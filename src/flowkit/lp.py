"""Exact-rational linear programming and total unimodularity.

A program reads `max c.x : Ax <= b` (``max``) or `min c.x : Ax >= b`
(``min``), and every variable is sign-restricted, x >= 0.
:func:`simplex_solve` hands it to the simplex, :func:`_simplex`, which
solves the bounded form `max c.x : Ux <= b, Ex = b, 0 <= x <= u`
with a dense tableau and Bland's anti-cycling rule.  Single-variable rows
become bounds kept out of the tableau, and opposite row pairs become
equalities, so the maximum-flow programs `[A; -A; I] x <= [0; 0; cap]`
are solved as `A x = 0, 0 <= x <= cap`.  The tableau is Python ints over
one common denominator, pivoted by the integer-preserving step `det_int`
also uses.  A unit pivot, one equal to the denominator d (every pivot of
a flow program), reduces the step to the exact integer update e - f*b/d,
which touches only the pivot row's nonzero columns: it costs those, not
the tableau's cells.  Every row goes through
:func:`flowkit.values.scaled`, the one LCM scaling, shared with the
residual graph and the cycle LP; a row of ints comes back as it is.

A program's cells are ints wherever their value is an integer, and
`Fraction`s only where it is not (:func:`make_lp`): in a flow program
every incidence, negated-incidence and identity cell is an int, and only
a non-integral capacity bound is a Fraction.  The cells stay ints from
:func:`build_primal` through the simplex and :func:`certify` to
:func:`write_lp`; the optimal point and its multipliers are Fractions,
and every duality assertion in the test-suite is exact rather than
tolerance-based.

Tuples here are built from lists, never from a generator or `map`: in
CPython 3.11 each such tuple moves one tuple between free lists, which
only a full collection empties, and a program of ints rarely triggers
one (``tests/test_tuple_drift.py`` says more and guards the package).

One solve gives a certified pair: :func:`simplex_solve` also reads one
multiplier per row off the final objective row, and :func:`certify`
checks x, y and b.y = c.x in one pass over the cells.  `lp-dual` prints
that dual value instead of solving :func:`build_dual`'s program again.
:func:`solve_standard`, which the complex layer calls, solves the
bounded form with no ub rows, returns the point only and reads no
multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .network import Cut, InvariantViolation, ParseError, cut_capacity, incidence_matrix
from .values import exact, scaled


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

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise Malformed(f"unknown sense {self.sense!r}")
        n = len(self.objective)
        if len(self.rows) != len(self.bounds):
            raise Malformed("row/bound count mismatch")
        for row in self.rows:
            if len(row) != n:
                raise Malformed("ragged constraint matrix")


@dataclass
class LPResult:
    """A solve's status and, when it is optimal, its point x, the value
    c.x and the multipliers y of the rows (see :func:`certify`)."""

    status: str               # "optimal" | "unbounded" | "infeasible"
    point: tuple | None
    value: Fraction | None
    dual: tuple | None = None


def _cell(x):
    """An exact cell (see :func:`exact`): an int as it is, and any other
    value as its Fraction, or as that Fraction's int when it is integral."""
    if type(x) is int:
        return x
    x = exact(x)
    return x.numerator if x.denominator == 1 else x


def _cells(values):
    """A tuple of exact cells (:func:`_cell`)."""
    cells = list(values)
    if set(map(type, cells)) <= {int}:  # as a flow program's rows: nothing to convert
        return tuple(cells)
    return tuple([_cell(x) for x in cells])


def make_lp(sense, objective, rows, bounds):
    """A :class:`LinearProgram` of exact cells: ints where the value is an
    integer, so that no Fraction is built from an int, and Fractions
    elsewhere; floats are refused (see :func:`exact`)."""
    return LinearProgram(sense, _cells(objective), tuple([_cells(row) for row in rows]),
                         _cells(bounds))


# -- simplex core ----------------------------------------------------------


def _pivot(rows, prow, col, d):
    """One integer-preserving elimination step on `col`; returns the new
    denominator, the pivot p = prow[col].

    Every row of `rows` other than `prow` becomes (p*e - f*b) / d entrywise,
    where f is its own entry in `col` and b the entry of `prow` above e.
    The rows hold integers over the common denominator d, and the division
    is exact (Edmonds 1967, Bareiss 1968).  Rows are updated in place;
    `prow` is left as it is.

    A unit pivot, p = d, makes that e - f*b/d; every pivot of a totally
    unimodular program, such as a flow program, is one.  The quotient is
    an integer and so is e, hence so is f*b/d: a cell changes only where
    f != 0 and b != 0, and only the pivot row's nonzero columns of the
    rows with f != 0 are updated; the list of those columns is built when
    the first such row is met, so a step that changes no row builds none.
    Any other pivot rescales every entry of every row.
    """
    p = prow[col]
    if p == d:
        nonzero = None
        for row in rows:
            f = row[col]
            if f and row is not prow:
                if nonzero is None:
                    nonzero = [(j, b) for j, b in enumerate(prow) if b]
                for j, b in nonzero:
                    row[j] -= f * b // d
        return p
    for row in rows:
        if row is not prow:
            f = row[col]
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


def solve_standard(objective, eq_rows, eq_bounds, upper=()):
    """maximize objective.x subject to eq_rows.x = eq_bounds,
    0 <= x <= upper, the bounded form of the complex layer's programs.
    Returns (status, point); see :func:`_simplex`."""
    status, point, _ = _simplex(objective, (), (), eq_rows, eq_bounds, upper)
    return status, point


def _simplex(objective, ub_rows=(), ub_bounds=(), eq_rows=(), eq_bounds=(), upper=()):
    """maximize objective.x subject to ub_rows.x <= ub_bounds,
    eq_rows.x = eq_bounds, 0 <= x <= upper.  Returns (status, point,
    dual): `dual` is None unless the status is optimal, and otherwise a
    function that reads the final basis's multipliers
    (:func:`_final_dual`), so that a caller who does not ask for them pays
    nothing.

    `upper[j]` bounds variable j (None or missing: no bound; a negative
    bound makes the program infeasible).  Each row is scaled by the LCM of
    its denominators (:func:`~flowkit.values.scaled`), and two kinds of ub row
    are read off that int row: a row whose only nonzero is positive, with a
    bound >= 0, is a bound on its variable, and a pair (r, b), (-r, -b) is
    one equality.  Bounds stay out of the tableau: a variable at its bound
    is complemented (:func:`_complement`), and the right-hand side is
    scaled once by the LCM of the bounds' denominators so that
    complementing keeps it integer.  That scales every variable alike, so
    it moves no pivot.

    A row with a negative bound is negated.  Each row starts on a unit
    column: its slack (ub rows with a bound >= 0), else an artificial.
    The artificials are counted first, so each row is built once in its
    final layout: structural columns, slacks, artificials, right-hand
    side.  The unit starting basis is priced out without a pivot.  Every
    starting column costs 0 in phase 2, so that row needs nothing.  Phase 1
    charges artificial i -(unit // lam_i), where lam_i is its row's scale
    and unit the LCM of those scales; pricing out row i adds unit // lam_i
    times the row, so the phase-1 row is that weighted sum of the
    artificial rows, with 0 on the artificial columns.  Phase 1 runs only
    if an artificial starts above 0.  After it, every artificial is
    bounded by 0 and stays basic until a step of length 0 moves it out.
    Scaling a row and the columns only it uses moves no pivot of the
    rational tableau, provided phase 1 charges artificial i the reciprocal
    of its row's scale, as these weights do.
    """
    nvars = len(objective)
    bound = list(upper) + [None] * (nvars - len(upper))
    if any(u is not None and u < 0 for u in bound):
        return "infeasible", None, None
    # [scaled row with its bound, scale, is an equality, row index, opposite row index]
    entries = []
    unpaired = {}    # ub rows by their scaled ints, waiting for their opposite
    bound_rows = {}  # variable -> index of the ub row its bound came from
    for k, (row, b) in enumerate(zip(ub_rows, ub_bounds)):
        full, lam = scaled([*row, b])
        nonzero = [j for j in range(nvars) if full[j]]
        if len(nonzero) == 1 and full[nonzero[0]] > 0 and full[-1] >= 0:
            j = nonzero[0]
            u = Fraction(full[-1], full[j])
            if bound[j] is None or u < bound[j]:
                bound[j] = u
                bound_rows[j] = k
            continue
        twin = unpaired.pop(tuple([-x for x in full]), None)
        if twin is not None:
            twin[2] = True
            twin[4] = k
            continue
        entry = [full, lam, False, k, None]
        unpaired.setdefault(tuple(full), entry)
        entries.append(entry)
    for k, (row, b) in enumerate(zip(eq_rows, eq_bounds), start=len(ub_rows)):
        entries.append([*scaled([*row, b]), True, k, None])

    rhs_scale = math.lcm(*[u.denominator for u in bound if u is not None])
    nslack = sum(1 for entry in entries if not entry[2])
    first_art = nvars + nslack
    total = first_art + sum(1 for full, _, eq, _, _ in entries if eq or full[-1] < 0)
    pad = [0] * (total - nvars)  # the slack and artificial cells of a row
    tableau = []
    basis = []
    art_scales = {}
    slack, art = nvars, first_art
    for full, lam, eq, _, _ in entries:
        b = full[-1]
        row = (full[:-1] if b >= 0 else [-x for x in full[:-1]]) + pad
        row.append(abs(b) * rhs_scale)
        start = slack
        if not eq:
            row[slack] = 1 if b >= 0 else -1
            slack += 1
        if eq or b < 0:
            start = art
            row[art] = 1
            art_scales[art] = lam
            art += 1
        basis.append(start)
        tableau.append(row)
    limits = [None if u is None else u.numerator * (rhs_scale // u.denominator) for u in bound]
    limits += [None] * (total - nvars)
    flipped = set()

    # the starting basis priced out: nothing in phase 2, and in phase 1 the
    # artificial rows weighted by unit // lam, 0 on their own columns
    costs, cost_scale = scaled([*objective])
    obj_rows = [costs + [0] * (total - nvars + 1)]
    if any(row[-1] > 0 for row, col in zip(tableau, basis) if col >= first_art):
        unit = math.lcm(*art_scales.values())
        weighted = [row if art_scales[col] == unit else [unit // art_scales[col] * x for x in row]
                    for row, col in zip(tableau, basis) if col >= first_art]
        phase1 = list(map(sum, zip(*weighted)))
        phase1[first_art:total] = [0] * (total - first_art)
        obj_rows.insert(0, phase1)
    starts = basis[:]

    d = 1
    if len(obj_rows) == 2:
        status, d = _bland_loop(tableau, basis, obj_rows, range(total), d, limits, flipped)
        if status != "optimal":  # phase 1 is bounded by zero
            raise InvariantViolation("phase 1", "simplex", [status])
        if obj_rows[0][-1] != 0:
            return "infeasible", None, None
    for art in art_scales:
        limits[art] = 0

    active = range(nvars + nslack)
    status, d = _bland_loop(tableau, basis, obj_rows[-1:], active, d, limits, flipped)
    if status == "unbounded":
        return "unbounded", None, None
    scale = d * rhs_scale
    zero = Fraction(0)  # one, shared by every variable at 0
    point = [Fraction(limits[j], rhs_scale) if j in flipped else zero for j in range(nvars)]
    for row, col in zip(tableau, basis):
        if col < nvars:
            x = row[-1]
            point[col] = Fraction(limits[col] * d - x if col in flipped else x, scale)
    nrows = len(ub_rows) + len(eq_rows)
    return "optimal", point, lambda: _final_dual(
        obj_rows[-1], d, cost_scale, nvars, flipped, entries, starts, bound_rows, ub_rows,
        nrows, len(upper))


def _final_dual(obj, d, cost_scale, nvars, flipped, entries, starts, bound_rows, ub_rows,
                nrows, nupper):
    """The multipliers of an optimal basis: one per ub row, then one per eq
    row, then one per entry of `upper`.

    `obj` is the final objective row: d times the reduced costs of the
    scaled tableau, whose costs are the objective times its LCM
    `cost_scale` and whose first `nvars` columns are the structural ones.
    Entry i's multiplier y'_i in that tableau is read off its start column,
    whose reduced cost is -y'_i (its slack or its artificial, cost 0) or
    y'_i (an artificial that left at its bound 0, complemented).  Undoing
    the row's sign flip and its LCM, and dividing by the cost LCM, gives
    the input row's multiplier.  An opposite pair read as one equality
    splits its free multiplier y into max(y, 0) and max(-y, 0).  A variable
    complemented at its bound gives its reduced cost to that bound: to the
    `upper` entry, or divided by the row's coefficient to the singleton row
    the bound was read from.  So y >= 0 except on eq rows, A^T y >= objective with the
    bounds as rows, and b.y is the optimum (Chvatal, *Linear Programming*
    (1983), ch. 10).
    """
    y = [Fraction(0)] * (nrows + nupper)
    denominator = d * cost_scale
    for (full, lam, _, k, twin), col in zip(entries, starts):
        r = -obj[col] if col in flipped else obj[col]
        # r = -d y'_i; the input row's multiplier is y'_i times its sign and
        # LCM over the cost LCM
        sign = -1 if full[-1] < 0 else 1
        value = Fraction(-sign * r * lam, denominator)
        if twin is None or value > 0:
            y[k] = value
        else:
            y[twin] = -value
    for j in flipped:
        if j < nvars:  # a structural column; artificials are complemented at 0
            k = bound_rows.get(j)
            if k is None:
                y[nrows + j] = Fraction(-obj[j], denominator)
            else:
                y[k] = Fraction(-obj[j], denominator) / ub_rows[k][j]
    return y


def simplex_solve(lp):
    """Solve an inequality-form program exactly.

    A ``min`` program is negated as a whole into ``max`` form, which
    leaves its multipliers as they are.  The result carries the correct
    unbounded/infeasible status, or an exact optimal point and one
    multiplier per row read off the same final basis; :func:`certify`
    checks the pair.
    """
    maximize = lp.sense == "max"

    def signed(row):  # zeros pass through instead of being negated into new Fractions
        return row if maximize else [-x if x else x for x in row]

    status, point, dual = _simplex(signed(lp.objective), ub_rows=[signed(row) for row in lp.rows],
                                   ub_bounds=signed(lp.bounds))
    if status != "optimal":
        return LPResult(status, None, None)
    value = sum((c * x for c, x in zip(lp.objective, point)), Fraction(0))
    return LPResult("optimal", tuple(point), value, tuple(dual()))


def certify(lp, result):
    """Check an optimal result of `lp` in one pass over its cells and
    return the dual value b.y.

    The point x must satisfy x >= 0 and the rows (Ax <= b, or Ax >= b for
    ``min``), the multipliers y >= 0 and A^T y >= c (<= c for ``min``), and
    b.y must equal c.x, which proves both optimal.  Anything else raises
    :class:`InvariantViolation` ("lp certificate").
    """
    x, y = result.point, result.dual
    if result.status != "optimal":
        raise InvariantViolation("lp certificate", "status", [result.status])
    if x is None or y is None or len(x) != len(lp.objective) or len(y) != len(lp.rows):
        raise InvariantViolation("lp certificate", "shape", [("point", x), ("dual", y)])
    sense = 1 if lp.sense == "max" else -1
    xs, dx = scaled(x)  # x = xs / dx, and so on for y, b and c, so that the cells multiply ints
    ys, dy = scaled(y)
    bs, db = scaled(lp.bounds)
    cs, dc = scaled(lp.objective)
    bad = [("negative variable", j) for j, v in enumerate(xs) if v < 0]
    bad += [("negative multiplier", i) for i, v in enumerate(ys) if v < 0]
    columns = [0] * len(x)  # dy A^T y
    for i, (row, b, yi) in enumerate(zip(lp.rows, bs, ys)):
        activity = 0  # dx A_i x
        for j, a in enumerate(row):  # an int cell, as in the flow programs, multiplies ints
            if a:
                activity += a * xs[j]
                if yi:
                    columns[j] += a * yi
        if sense * (b * dx - activity * db) < 0:
            bad.append(("row", i))
    bad += [("dual row", j) for j, (col, c) in enumerate(zip(columns, cs))
            if sense * (col * dc - c * dy) < 0]
    dual_value = Fraction(sum(b * v for b, v in zip(bs, ys)), db * dy)
    primal_value = Fraction(sum(c * v for c, v in zip(cs, xs)), dc * dx)
    if not dual_value == primal_value == result.value:
        bad.append(("objectives", dual_value, primal_value, result.value))
    if bad:
        raise InvariantViolation("lp certificate", "certify", bad)
    return dual_value


# -- the maximum-flow program and its dual ---------------------------------


def build_primal(net):
    """LP over one variable per arc whose optimum is the maximum flow value.

    The program `max phi_s.x : [A; -A; I] x <= [0; 0; c]`: the objective is
    the source row phi_s of the incidence matrix, A its internal rows,
    written as both inequality directions of conservation, then one row
    x_j <= c_j per arc, in arc order.
    :func:`simplex_solve` reads these rows back as A x = 0, 0 <= x <= c.
    Every matrix cell is written as an int, and each capacity is read off
    the network's ints: an int where it is integral, a Fraction elsewhere.
    """
    phi = incidence_matrix(net)
    balance = phi[1:-1]
    rows = balance + [[-x for x in r] for r in balance]
    scale = net.scale
    bounds = [0] * len(rows) + [c // scale if c % scale == 0 else Fraction(c, scale)
                                for c in net.ints]
    for j in range(net.m):
        unit = [0] * net.m
        unit[j] = 1
        rows.append(unit)
    return make_lp("max", phi[0], rows, bounds)


def build_dual(lp):
    """Mechanical dual of a standard-form max program:
    min b.y : A^T y >= c, y >= 0.  The cells are the program's own,
    transposed."""
    if lp.sense != "max":
        raise Malformed("mechanical dual expects a `max` program")
    columns = list(zip(*lp.rows)) if lp.rows else [()] * len(lp.objective)
    return LinearProgram("min", lp.bounds, tuple(columns), lp.objective)


@dataclass(frozen=True)
class DualPoint:
    """Dual point in potential form: a potential per vertex (source fixed
    at -1, sink at 0) and a non-negative value per arc."""

    v: dict
    e: tuple


def dual_point(net, point):
    """Read an optimal point of ``build_dual(build_primal(net))``, or the
    multipliers ``simplex_solve(build_primal(net)).dual``, which come in
    the same order, as a :class:`DualPoint`.  Internal vertex i has the
    multipliers y+_i and y-_i of its two conservation rows and gets the
    potential y+_i - y-_i, and each capacity row's multiplier goes to its
    arc."""
    internal = net.vertex_order()[1:-1]
    k = len(internal)
    v = {net.source: Fraction(-1), net.sink: Fraction(0)}
    for i, vertex in enumerate(internal):
        v[vertex] = point[i] - point[k + i]
    return DualPoint(v, tuple(point[2 * k:]))


def dual_from_cut(net, cut):
    """Feasible dual point of a cut: e=1 on traversing arcs, potentials -1
    on the source side and 0 elsewhere; its objective is the cut capacity."""
    side = cut.source_side
    v = {vertex: Fraction(-1) if vertex in side else Fraction(0) for vertex in net.vertices()}
    e = tuple([Fraction(1) if (u in side and w not in side) else Fraction(0)
               for (u, w) in net.arcs])
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
    """The capacities weighted by the arc values: a sum over `net.ints`,
    made one Fraction over the network's scale."""
    return Fraction(sum([c * x for c, x in zip(net.ints, point.e)]), net.scale)


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


TU_SUBMATRIX_BUDGET = 200_000  # square submatrices the exhaustive test enumerates at most


def is_totally_unimodular(matrix, budget=TU_SUBMATRIX_BUDGET):
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
    """The program as text: its sense, its objective, and one line per row
    with its bound after ``|``; every variable is sign-restricted, so no
    line marks them.  Each cell is written with `str`, which gives an int
    and a Fraction the text :func:`flowkit.values.format_value` gives them
    (`7`, `7/3`)."""
    lines = [lp.sense, " ".join(map(str, lp.objective))]
    for row, b in zip(lp.rows, lp.bounds):
        lines.append(f"{' '.join(map(str, row))} | {b}")
    return "\n".join(lines) + "\n"


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
