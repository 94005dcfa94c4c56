"""Exact simplex, the flow LP and its duals, total unimodularity."""

import copy
import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import make_random_network
from flowkit import lp as lp_module
from flowkit.lp import (
    BudgetExceeded,
    Infeasible,
    LinearProgram,
    LPResult,
    Malformed,
    build_dual,
    build_primal,
    certify,
    cut_from_dual,
    det_int,
    dual_from_cut,
    dual_objective,
    dual_point,
    dual_violations,
    is_totally_unimodular,
    make_lp,
    read_matrix,
    simplex_solve,
    write_lp,
)
from flowkit.network import (
    InvariantViolation,
    build_network,
    cut_capacity,
    net_flow,
    validate,
)
from flowkit.solvers import edmonds_karp
from flowkit.values import UNBOUNDED
from oracles import (
    all_cuts,
    dense_pivot,
    determinant_by_permutations,
    ghouila_houri_tu,
    min_cut_by_enumeration,
    scaled_flow,
)


def _solve_by_vertex_enumeration(lp):
    """Max over all basic feasible points of Ax <= b, x >= 0 (bounded LPs)."""
    return _max_over_vertices(lp.objective, lp.rows, lp.bounds)


def _max_over_vertices(objective, rows, bounds):
    """Max of objective.x over the vertices of Ax <= b, x >= 0, or None if
    there is none (the set is empty: x >= 0 makes it pointed)."""
    n = len(objective)
    rows = [list(map(Fraction, r)) for r in rows]
    rows += [[Fraction(-1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    bounds = list(map(Fraction, bounds)) + [Fraction(0)] * n
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        solution = _solve_square([rows[i][:] + [bounds[i]] for i in combo], n)
        if solution is None:
            continue
        if all(sum(r[j] * solution[j] for j in range(n)) <= b
               for r, b in zip(rows, bounds)):
            value = sum(objective[j] * solution[j] for j in range(n))
            if best is None or value > best:
                best = value
    return best


def _bounded_form_by_vertex_enumeration(objective, ub_rows, ub_bounds, eq_rows, eq_bounds, upper):
    """Status and value of `max c.x : ub_rows.x <= ub_bounds, eq_rows.x =
    eq_bounds, 0 <= x <= upper` (None: no bound), from vertices alone.  A
    feasible program is unbounded when some ray r >= 0 of its recession
    cone, normalised by sum(r) <= 1, has c.r > 0."""
    n = len(objective)
    rows = list(ub_rows) + list(eq_rows) + [[-a for a in r] for r in eq_rows]
    bounds = list(ub_bounds) + list(eq_bounds) + [-b for b in eq_bounds]
    for j, u in enumerate(upper):
        if u is not None:
            rows.append([int(i == j) for i in range(n)])
            bounds.append(u)
    best = _max_over_vertices(objective, rows, bounds)
    if best is None:
        return "infeasible", None
    if _max_over_vertices(objective, rows + [[1] * n], [0] * len(rows) + [1]) > 0:
        return "unbounded", None
    return "optimal", best


def _solve_square(m, n):
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def test_simplex_trivia():
    assert simplex_solve(make_lp("max", [1], [[1]], [5])).value == 5
    assert simplex_solve(make_lp("max", [1], [], [])).status == "unbounded"
    assert simplex_solve(make_lp("max", [1], [[1], [-1]], [1, -3])).status == "infeasible"
    res = simplex_solve(make_lp("min", [2, 1], [[1, 1]], [3]))
    assert res.status == "optimal" and res.value == 3 and res.point == (0, 3)


def test_bland_pivots_are_pinned():
    # Bland's tie-break decides these: the optimum has several vertices,
    # and keeping the last of the tied leaving rows returns (1, 1/2, 0, 1, 0)
    F = Fraction
    box = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    status, point = lp_module._simplex(
        [-1, 1, 0, F(1, 2), F(-3, 4)],
        [[F(2, 5), F(-1, 3), F(1, 2), 0, 0]] + box, [F(2, 5), F(8, 5), F(5, 3), 3, 1, F(7, 2)],
        [[F(-3, 2), F(-1, 3), 0, 0, -1], [F(4, 5), 0, 0, 0, 0]], [F(-5, 3), F(4, 5)])[:2]
    assert (status, point) == ("optimal", [1, F(1, 2), F(1, 3), 1, 0])
    # degenerate, with a redundant equality row: breaking ties by the
    # largest basis index cycles here
    status, point = lp_module._simplex(
        [F(-3, 2), F(3, 7), 0, F(3, 7), F(-1, 2), -1],
        [[F(-1, 7), F(-2, 7), 1, F(-3, 5), 0, F(3, 2)], [F(-3, 4), -4, 4, -1, -1, 0],
         [F(2, 3), F(3, 7), F(-3, 4), F(-3, 7), -2, F(-1, 2)]], [F(-3, 35), F(6, 7), F(-3, 49)],
        [[0, F(-4, 5), 1, F(1, 2), F(-4, 5), -4], [-1, 4, 0, F(-1, 2), F(-1, 2), F(-3, 5)],
         [F(-1, 5), F(4, 5), 0, F(-1, 10), F(-1, 10), F(-3, 25)]], [F(1, 14), F(-1, 14), F(-1, 70)]
    )[:2]
    assert (status, point) == ("unbounded", None)


def test_a_repeated_basis_is_a_typed_error(monkeypatch):
    # with a pivot that changes nothing, the same column enters at the same
    # row forever; the loop must notice the basis it already had.  The rows
    # have two nonzeros each, so neither is read as a bound.
    from flowkit import lp
    from flowkit.network import InvariantViolation

    monkeypatch.setattr(lp, "_pivot", lambda rows, prow, col, d: d)
    with pytest.raises(InvariantViolation) as err:
        lp._simplex([1, 1], [[1, 1], [1, -1]], [1, 2])
    assert (err.value.invariant, err.value.step) == ("anti-cycling", "pivot 2")


def test_a_repeated_bound_flip_is_a_typed_error(monkeypatch):
    # with a complement that changes nothing, the variable stays improving
    # and flips back to the complemented set it started from
    from flowkit import lp
    from flowkit.network import InvariantViolation

    monkeypatch.setattr(lp, "_complement", lambda rows, col, bound: None)
    with pytest.raises(InvariantViolation) as err:
        lp._simplex([1], [[2]], [5])
    assert (err.value.invariant, err.value.step) == ("anti-cycling", "pivot 2")


def test_malformed_dimensions():
    with pytest.raises(Malformed):
        LinearProgram("max", (Fraction(1),), ((Fraction(1), Fraction(2)),), (Fraction(1),))


def test_simplex_against_vertex_enumeration(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        bounds = [Fraction(rng.randint(0, 6)) for _ in range(m)]
        rows += [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        bounds += [Fraction(rng.randint(1, 8)) for _ in range(n)]
        lp = make_lp("max", [Fraction(rng.randint(-3, 3)) for _ in range(n)], rows, bounds)
        got = simplex_solve(lp)
        assert got.status == "optimal"
        assert got.value == _solve_by_vertex_enumeration(lp)
    # coprime denominators, negative bounds and equalities written as two
    # opposite rows: phase 1, the row scaling and degenerate artificials
    # left to drive out of the basis
    statuses = set()
    for _ in range(60):
        n = rng.randint(1, 3)
        x0 = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(n)]
        rows, bounds = [], []
        for _ in range(rng.randint(1, 4)):
            row = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]
            slack = Fraction(rng.randint(-2, 3), rng.choice((1, 5, 7)))
            rows.append(row)
            bounds.append(sum(a * x for a, x in zip(row, x0)) + slack)
            if rng.random() < 0.4:
                rows.append([-a for a in row])
                bounds.append(-bounds[-1])
        rows += [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        bounds += [Fraction(rng.randint(1, 8)) for _ in range(n)]
        lp = make_lp("max", [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)],
                     rows, bounds)
        got = simplex_solve(lp)
        want = _solve_by_vertex_enumeration(lp)
        assert got.status == ("infeasible" if want is None else "optimal")
        assert got.value == want
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible"}
    # the bounded form: rational bounds, some negative, given as `upper` or
    # as singleton rows like 2x <= 5 (so the right-hand side is scaled by
    # their LCM), equality rows, opposite rows that are an equality or a
    # slab, an equality written as an opposite pair that is the sum of two
    # others (its artificial stays basic at 0 through phase 2), and a column
    # that appears in one equality only (it starts basic if it is free and
    # its entry is +1)
    statuses = set()
    for _ in range(50):
        n = rng.randint(1, 3)
        x0 = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(n)]
        upper = [None] * n
        ub_rows, ub_bounds = [], []
        for j in range(n):
            if rng.random() < 0.6:
                u = x0[j] + Fraction(rng.randint(-1, 4), rng.choice((1, 2, 3, 5)))
                if u < 0 or rng.random() < 0.5:
                    upper[j] = u
                else:
                    a = rng.randint(1, 3)
                    ub_rows.append([a if i == j else 0 for i in range(n)])
                    ub_bounds.append(a * u)
        for _ in range(rng.randint(0, 2)):
            row = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]
            ub_rows.append(row)
            ub_bounds.append(sum(a * x for a, x in zip(row, x0))
                             + Fraction(rng.randint(-2, 3), rng.choice((1, 5, 7))))
            if rng.random() < 0.6:  # its opposite: an equality, or a slab of width w
                ub_rows.append([-a for a in row])
                ub_bounds.append(rng.choice((0, Fraction(1, 2), 1)) - ub_bounds[-1])
        eq_rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        eq_bounds = [sum(a * x for a, x in zip(row, x0)) for row in eq_rows]
        if len(eq_rows) == 2 and rng.random() < 0.5:
            row = [a + b for a, b in zip(*eq_rows)]
            ub_rows += [row, [-a for a in row]]
            ub_bounds += [sum(eq_bounds), -sum(eq_bounds)]
        objective = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        if eq_rows and rng.random() < 0.5:  # y >= 0 only in the first equality
            objective.append(Fraction(rng.randint(-2, 1)))
            upper.append(rng.choice((None, None, Fraction(1, 2))))
            a = rng.choice((1, 1, 2))  # y starts basic if it is free and a = 1
            ub_rows = [row + [0] for row in ub_rows]
            eq_rows = [row + [a if i == 0 else 0] for i, row in enumerate(eq_rows)]
            eq_bounds[0] = abs(eq_bounds[0])
        status, point, _ = lp_module._simplex(objective, ub_rows, ub_bounds, eq_rows, eq_bounds,
                                              [UNBOUNDED if u is None else u for u in upper])
        want, value = _bounded_form_by_vertex_enumeration(objective, ub_rows, ub_bounds,
                                                          eq_rows, eq_bounds, upper)
        assert status == want
        if status == "optimal":
            assert all(0 <= x and (u is None or x <= u) for x, u in zip(point, upper))
            assert all(sum(a * x for a, x in zip(row, point)) <= b
                       for row, b in zip(ub_rows, ub_bounds))
            assert all(sum(a * x for a, x in zip(row, point)) == b
                       for row, b in zip(eq_rows, eq_bounds))
            assert sum(c * x for c, x in zip(objective, point)) == value
        statuses.add(status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


# -- the certified dual ----------------------------------------------------------


def _random_bounded_program(rng):
    """A random `max c.x : ub_rows.x <= ub_bounds, eq_rows.x = eq_bounds,
    0 <= x <= upper` with every row kind `_simplex` reads: general ub
    rows (some with a negative right-hand side), singleton rows read as
    bounds (a looser duplicate too), opposite pairs read as equalities, eq
    rows, finite and missing `upper` entries, and a column whose one
    nonzero is a +1 in an equality, which starts basic when it is free.
    Most rows pass through a point x0 >= 0 or just miss it, so many
    programs are feasible, and phase 1 runs whenever an artificial starts
    above 0."""
    n = rng.randint(1, 4)
    x0 = [Fraction(rng.randint(0, 5), rng.choice((1, 2, 3))) for _ in range(n)]
    upper = [UNBOUNDED] * n
    ub_rows, ub_bounds = [], []

    def near_x0(row, lo=-2):
        miss = Fraction(rng.randint(lo, 3), rng.choice((1, 2, 5)))
        return sum(a * x for a, x in zip(row, x0)) + miss

    for j in range(n):
        kind = rng.random()
        u = x0[j] + Fraction(rng.randint(-1, 4), rng.choice((1, 2, 3)))
        if kind < 0.3:
            upper[j] = u
        elif kind < 0.7 and u >= 0:
            for a in (rng.randint(1, 3), rng.randint(1, 3)):  # the second is looser or equal
                ub_rows.append([Fraction(a, rng.choice((1, 2))) if i == j else 0 for i in range(n)])
                ub_bounds.append(ub_rows[-1][j] * u)
                u += rng.randint(0, 1)
    for _ in range(rng.randint(0, 3)):
        row = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in range(n)]
        if rng.random() < 0.3:  # a covering row, -r.x <= -b
            row = [-abs(a) for a in row]
        ub_rows.append(row)
        ub_bounds.append(near_x0(row))
        if rng.random() < 0.4:  # its opposite: the pair is one equality
            ub_rows.append([-a for a in row])
            ub_bounds.append(-ub_bounds[-1])
    eq_rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    eq_bounds = [near_x0(row, lo=0) if rng.random() < 0.2 else sum(a * x for a, x in zip(row, x0))
                 for row in eq_rows]
    objective = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    if eq_rows and rng.random() < 0.4:  # a unit column in the first equality
        objective.append(Fraction(rng.randint(-2, 1)))
        upper.append(rng.choice((UNBOUNDED, UNBOUNDED, Fraction(3, 2))))
        ub_rows = [row + [0] for row in ub_rows]
        eq_rows = [row + [int(i == 0)] for i, row in enumerate(eq_rows)]
        eq_bounds[0] = abs(eq_bounds[0])
    while upper and upper[-1] is UNBOUNDED and rng.random() < 0.5:
        upper.pop()  # a missing entry is no bound
    return objective, ub_rows, ub_bounds, eq_rows, eq_bounds, upper


def _as_inequality_form(objective, ub_rows, ub_bounds, eq_rows, eq_bounds, upper, y):
    """The bounded form as a `max` LinearProgram (ub rows, each equality as
    an opposite pair, one row per finite `upper` entry) and `y`, one
    multiplier per ub row, eq row and `upper` entry, spread over its rows:
    an equality's free multiplier v goes to max(v, 0) and max(-v, 0)."""
    n = len(objective)
    finite = [j for j, u in enumerate(upper) if u is not UNBOUNDED]
    rows = ub_rows + eq_rows + [[-a for a in row] for row in eq_rows]
    rows += [[int(i == j) for i in range(n)] for j in finite]
    bounds = ub_bounds + eq_bounds + [-b for b in eq_bounds] + [upper[j] for j in finite]
    k, e = len(ub_rows), len(eq_rows)
    eq_y = y[k:k + e]
    spread = (y[:k] + [max(v, 0) for v in eq_y] + [max(-v, 0) for v in eq_y]
              + [y[k + e + j] for j in finite])
    return make_lp("max", objective, rows, bounds), tuple(spread)


def test_certified_duals_of_random_programs(monkeypatch):
    """The final basis's multipliers pass `certify` on 1,200 optimal random
    programs, and the tally shows that every way of reading a multiplier
    gave nonzero ones many times, so a wrong reading fails here."""
    kinds = Counter()
    real = lp_module._final_dual

    def tally(obj, d, cost_scale, nvars, flipped, entries, starts, bound_rows, ub_rows, nrows,
              nupper):
        y = real(obj, d, cost_scale, nvars, flipped, entries, starts, bound_rows, ub_rows, nrows,
                 nupper)
        for (full, _, eq, k, twin), col in zip(entries, starts):
            if (eq or full[-1] < 0) and full[-1]:
                kinds["phase 1"] += 1
            if not y[k] and (twin is None or not y[twin]):
                continue
            if not eq and full[-1] >= 0:
                kinds["slack"] += 1
            else:
                kinds["complemented artificial" if col in flipped else "artificial"] += 1
            kinds["negated row"] += full[-1] < 0
            kinds["eq row"] += k >= len(ub_rows)
            if twin is not None:
                kinds["pair, first row" if y[k] else "pair, opposite row"] += 1
        for j in flipped:
            if j < nvars and obj[j]:
                kinds["bound row" if j in bound_rows else "upper"] += 1
        return y

    monkeypatch.setattr(lp_module, "_final_dual", tally)
    rng = random.Random(20260417)
    statuses = Counter()
    while statuses["optimal"] < 1200:
        program = _random_bounded_program(rng)
        status, point, dual = lp_module._simplex(*program)
        statuses[status] += 1
        if status != "optimal":
            assert dual is None
            continue
        value = sum(c * x for c, x in zip(program[0], point))
        lp, y = _as_inequality_form(*program, dual())
        assert certify(lp, LPResult("optimal", tuple(point), value, y)) == value
        # the same program through `simplex_solve`, as `max` and negated as `min`
        res = simplex_solve(lp)
        assert res.value == value and certify(lp, res) == value
        negated = make_lp("min", [-c for c in lp.objective], [[-a for a in row] for row in lp.rows],
                          [-b for b in lp.bounds])
        flipped = simplex_solve(negated)
        assert flipped.dual == res.dual and certify(negated, flipped) == -value
    assert statuses["infeasible"] > 100 and statuses["unbounded"] > 100
    assert min(kinds[kind] for kind in (
        "phase 1", "slack", "artificial", "complemented artificial",
        "negated row", "eq row", "pair, first row", "pair, opposite row", "bound row",
        "upper")) >= 20, kinds


def test_pivots_match_the_dense_formula(monkeypatch):
    """Every pivot of seeded random programs and of `det_int` on random
    integer matrices leaves the rows that the dense fraction-free formula
    gives, on deep copies taken before the step.  Unit pivots (p = d) and
    the others each occur at least 100 times with d = 1 and with d != 1,
    so both branches are checked in both regimes."""
    kinds = Counter()
    real = lp_module._pivot

    def checked(rows, prow, col, d):
        before = copy.deepcopy((rows, prow))
        p = real(rows, prow, col, d)
        want, want_p = dense_pivot(*before, col, d)
        assert p == want_p and [list(row) for row in rows] == want
        kinds["unit" if p == d else "general", "d = 1" if d == 1 else "d != 1"] += 1
        return p

    monkeypatch.setattr(lp_module, "_pivot", checked)
    rng = random.Random(20261019)
    for _ in range(600):
        lp_module._simplex(*_random_bounded_program(rng))
    for _ in range(300):
        n = rng.randint(3, 7)
        det_int([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
    assert len(kinds) == 4 and min(kinds.values()) >= 100, kinds


def test_certify_rejects_a_wrong_certificate():
    lp = make_lp("max", [1, 1], [[1, 2], [3, 1], [1, 0]], [4, 6, 3])
    res = simplex_solve(lp)
    assert res.point == (Fraction(8, 5), Fraction(6, 5)) and res.value == Fraction(14, 5)
    assert res.dual == (Fraction(2, 5), Fraction(1, 5), 0)
    assert certify(lp, res) == Fraction(14, 5)

    def broken(lp, **changes):
        with pytest.raises(InvariantViolation) as info:
            certify(lp, dataclasses.replace(res, **changes))
        assert info.value.invariant == "lp certificate"
        return info.value.step, info.value.violations

    optimum = Fraction(14, 5)
    # 1/7 more on one multiplier: b.y moves
    assert broken(lp, dual=(Fraction(2, 5) + Fraction(1, 7), Fraction(1, 5), 0)) == (
        "certify", [("objectives", Fraction(118, 35), optimum, optimum)])
    assert broken(lp, dual=(Fraction(1, 2), Fraction(1, 5), -1)) == ("certify", [
        ("negative multiplier", 2), ("dual row", 0),
        ("objectives", Fraction(1, 5), optimum, optimum)])
    # b.y is right, but A^T y >= c fails in both columns
    assert broken(lp, dual=(Fraction(2, 5), 0, Fraction(2, 5))) == (
        "certify", [("dual row", 0), ("dual row", 1)])
    assert broken(lp, point=(2, 1), value=3) == (
        "certify", [("row", 1), ("objectives", optimum, 3, 3)])
    assert broken(lp, value=3) == ("certify", [("objectives", optimum, optimum, 3)])
    assert broken(lp, point=(0, 0, 0))[0] == "shape"
    assert broken(lp, dual=None)[0] == "shape"
    assert broken(lp, status="unbounded", point=None, value=None, dual=None) == (
        "status", ["unbounded"])
    # a `min` program checks Ax >= b and A^T y <= c
    lp = make_lp("min", [1, 1], [[1, 2], [3, 1]], [4, 6])
    res = simplex_solve(lp)
    assert res.dual == (Fraction(2, 5), Fraction(1, 5)) and certify(lp, res) == optimum
    assert broken(lp, point=(0, 0), value=0) == (
        "certify", [("row", 0), ("row", 1), ("objectives", optimum, 0, 0)])
    assert broken(lp, dual=(1, 1)) == (
        "certify", [("dual row", 0), ("dual row", 1), ("objectives", 10, optimum, optimum)])


def test_multipliers_of_the_dual_program_are_a_maximum_flow(rng):
    """`build_dual`'s program is a `min` program whose rows are the arcs, so
    its certified multipliers are an arc flow of the maximum value."""
    for _ in range(60):
        net, _ = make_random_network(rng, max_n=7)
        program = build_dual(build_primal(net))
        res = simplex_solve(program)
        value = edmonds_karp(net).value
        assert certify(program, res) == res.value == value
        flow = scaled_flow(dict(zip(net.arcs, res.dual)))
        assert validate(net, flow, "flow") == [] and net_flow(net, flow) == value


def test_primal_single_arc(single_arc):
    lp = build_primal(single_arc)
    assert len(lp.objective) == 1
    res = simplex_solve(lp)
    assert res.value == 5


def test_primal_block_structure(g1):
    lp = build_primal(g1)
    # conservation rows for the two internal vertices only, both signs,
    # then one capacity row per arc
    assert len(lp.rows) == 2 * (g1.n - 2) + g1.m
    assert lp.bounds[:4] == (0, 0, 0, 0)
    assert lp.bounds[4:] == (3, 2, 2, 3, 1)


def test_flow_program_cells_are_ints(g1):
    # every incidence, negated-incidence and identity cell is an int, and so
    # is an integral capacity; only a non-integral capacity is a Fraction
    net = build_network(4, 1, 4, [(1, 2, Fraction(7, 3)), (1, 3, 2), (2, 4, Fraction(6, 3)),
                                  (3, 4, 0), (2, 3, Fraction(1, 2))])
    for program in (build_primal(g1), build_primal(net)):
        cells = [*program.objective, *itertools.chain(*program.rows), *program.bounds[:4]]
        assert all(type(x) is int for x in cells)
        assert sorted(set(itertools.chain(*program.rows))) == [-1, 0, 1]
        assert build_dual(program).rows == tuple(zip(*program.rows))
    assert program.bounds[4:] == (Fraction(7, 3), 2, 2, 0, Fraction(1, 2))
    assert [type(b) for b in program.bounds[4:]] == [Fraction, int, int, int, Fraction]


def test_make_lp_keeps_ints_and_only_non_integral_fractions():
    program = make_lp("max", [Fraction(4, 2), "3"], [[1, Fraction(-5, 5)], ["2/3", 0]],
                      [Fraction(1, 2), True])
    assert program == LinearProgram("max", (2, 3), ((1, -1), (Fraction(2, 3), 0)),
                                    (Fraction(1, 2), 1))
    assert [type(x) for x in (*program.objective, *program.rows[0], *program.bounds)] == [
        int, int, int, int, Fraction, int]
    assert write_lp(program) == "max\n2 3\n1 -1 | 1/2\n2/3 0 | 1\n"


def test_primal_matches_solvers(rng):
    for _ in range(15):
        net, _ = make_random_network(rng, max_n=6)
        assert simplex_solve(build_primal(net)).value == edmonds_karp(net).value


def test_dual_single_arc(single_arc):
    dual = build_dual(build_primal(single_arc))
    res = simplex_solve(dual)
    assert res.value == 5


def test_weak_duality(rng):
    # every dual-feasible cut point dominates every feasible flow value
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6)
        flow_values = [Fraction(0), edmonds_karp(net).value]
        for cut in all_cuts(net):
            point = dual_from_cut(net, cut)
            obj = dual_objective(net, point)
            assert all(obj >= v for v in flow_values)


def test_strong_duality(rng):
    for _ in range(15):
        net, _ = make_random_network(rng, max_n=6)
        primal = build_primal(net)
        p = simplex_solve(primal)
        d = simplex_solve(build_dual(primal))
        assert p.status == d.status == "optimal"
        assert p.value == d.value


def test_dual_from_cut_feasible_with_cut_objective(rng):
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6)
        for cut in all_cuts(net):
            point = dual_from_cut(net, cut)
            assert dual_violations(net, point) == []
            assert dual_objective(net, point) == cut_capacity(net, cut)


def test_min_cut_dual_attains_maxflow(rng):
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6)
        cut, cap = min_cut_by_enumeration(net)
        assert dual_objective(net, dual_from_cut(net, cut)) == edmonds_karp(net).value == cap


def test_cut_from_dual_round_trip(rng):
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6)
        for cut in all_cuts(net):
            point = dual_from_cut(net, cut)
            recovered = cut_from_dual(net, point)
            assert cut_capacity(net, recovered) <= cut_capacity(net, cut)


def test_cut_from_dual_on_optimal_point(rng, single_arc):
    optimum = simplex_solve(build_dual(build_primal(single_arc))).point
    assert cut_from_dual(single_arc, dual_point(single_arc, optimum)).source_side == {1}
    for _ in range(15):
        net, _ = make_random_network(rng, max_n=6)
        res = simplex_solve(build_dual(build_primal(net)))
        point = dual_point(net, res.point)
        value = edmonds_karp(net).value
        assert dual_violations(net, point) == [] and dual_objective(net, point) == value
        assert cut_capacity(net, cut_from_dual(net, point)) == value


def test_cut_from_dual_rejects_infeasible(single_arc):
    point = dual_from_cut(single_arc, next(iter(all_cuts(single_arc))))
    broken = type(point)(v=dict(point.v), e=(Fraction(-1),))
    with pytest.raises(Infeasible):
        cut_from_dual(single_arc, broken)


# -- total unimodularity -------------------------------------------------------


def test_tu_identity():
    assert is_totally_unimodular([[1, 0], [0, 1]]).is_tu


def test_tu_two_by_two_witness():
    res = is_totally_unimodular([[1, 1], [-1, 1]])
    assert not res.is_tu
    assert res.witness_rows == (0, 1) and res.witness_cols == (0, 1)
    assert res.witness_det == 2


def test_tu_entry_precheck():
    res = is_totally_unimodular([[1, 2], [0, 1]])
    assert not res.is_tu and res.witness_det == 2 and res.witness_rows == (0,)


def test_tu_incidence_matrices(rng):
    from flowkit.network import incidence_matrix

    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6)
        assert is_totally_unimodular(incidence_matrix(net)).is_tu


def test_tu_budget():
    big = [[0] * 30 for _ in range(30)]
    with pytest.raises(BudgetExceeded):
        is_totally_unimodular(big, budget=1000)


def test_tu_agrees_with_ghouila_houri(rng):
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[rng.choice((-1, 0, 1)) for _ in range(nc)] for _ in range(nr)]
        assert is_totally_unimodular(m).is_tu == ghouila_houri_tu(m)


def test_det_int(rng):
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    kinds = set()
    for _ in range(300):
        n = rng.randint(0, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            m[0][0] = 0  # forces a row swap before the first step
        if n > 1 and rng.random() < 0.2:
            m[-1] = [2 * x for x in m[0]]
        want = determinant_by_permutations(m)
        assert det_int(m) == want, m
        kinds.add((n > 1 and m[0][0] == 0, want == 0))
    assert len(kinds) == 4


# -- serialization ---------------------------------------------------------------


def test_make_lp_refuses_floats():
    with pytest.raises(TypeError):
        make_lp("max", [0.1], [[1]], [1])


def test_matrix_round_trip():
    assert read_matrix("# a comment\n1 -1 0\n\n 0 1  1\n") == [[1, -1, 0], [0, 1, 1]]


def test_cut_from_dual_on_fractional_points(rng):
    # feasible dual points with fractional potentials still round to a
    # cut no more expensive than their objective
    from flowkit.lp import DualPoint

    for _ in range(40):
        net, _ = make_random_network(rng, max_n=7)
        v = {net.source: Fraction(-1), net.sink: Fraction(0)}
        for x in net.vertices():
            if x not in (net.source, net.sink):
                v[x] = Fraction(-rng.randint(0, 12), 12)
        e = tuple(max(Fraction(0), v[w] - v[u]) for (u, w) in net.arcs)
        point = DualPoint(v, e)
        assert dual_violations(net, point) == []
        cut = cut_from_dual(net, point)
        assert cut_capacity(net, cut) <= dual_objective(net, point)
