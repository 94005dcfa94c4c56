"""The three maxflow algorithms and the blocking-cut machinery."""

import math
import random
from fractions import Fraction

import pytest

from conftest import make_random_network
from flowkit import solvers
from flowkit.decompose import min_cut_from_flow
from flowkit.network import (
    NetworkError,
    ResidualGraph,
    Violation,
    build_network,
    cut_capacity,
    validate,
)
from flowkit.solvers import (
    ROOT,
    InvariantViolation,
    WeightedGraph,
    build_gst,
    edmonds_karp,
    hochbaum_maxflow,
    labeling_violations,
    max_blocking_cut,
    normalized_tree_violations,
    push_relabel,
)
from oracles import brute_max_surplus, brute_min_cut, brute_min_cut_sides

SOLVERS = [edmonds_karp, push_relabel, hochbaum_maxflow]


@pytest.mark.parametrize("solver", SOLVERS)
def test_single_arc(solver, single_arc):
    result = solver(single_arc)
    assert result.value == 5
    assert validate(single_arc, result.flow, "flow") == []


def test_single_arc_needs_one_augmentation(single_arc):
    assert edmonds_karp(single_arc).stats["augmentations"] == 1


def test_zero_capacities_need_no_work():
    net = build_network(3, 1, 3, [(1, 2, 0), (2, 3, 0)])
    result = edmonds_karp(net)
    assert result.value == 0 and result.stats["augmentations"] == 0


@pytest.mark.parametrize("solver", SOLVERS)
def test_integrality(solver, rng):
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6)
        flow = solver(net).flow
        assert all(x.denominator == 1 for x in flow.raw.values())


def test_rational_capacities_agree(rng):
    for _ in range(10):
        n, s, t, arcs = 4, 1, 4, []
        for (u, v) in [(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)]:
            arcs.append((u, v, Fraction(rng.randint(0, 20), rng.randint(1, 7))))
        net = build_network(n, s, t, arcs)
        values = {solver(net).value for solver in SOLVERS}
        assert len(values) == 1


def test_cross_solver_agreement_with_oracle(rng):
    for _ in range(60):
        net, arcs = make_random_network(rng)
        want = brute_min_cut(net.n, net.source, net.sink, arcs)
        for solver in SOLVERS:
            result = solver(net)
            assert result.value == want
            assert validate(net, result.flow, "flow") == []


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97]


def test_exact_at_a_huge_common_denominator():
    # 8 vertices, 27 arcs; the first 25 carry the first 25 primes as
    # denominators, so the scale of the residual kernel exceeds 2**100
    rng = random.Random(97)
    pairs = ([(1, v) for v in range(2, 8)] + [(u, 8) for u in range(2, 8)]
             + [(u, v) for u in range(2, 8) for v in range(u + 1, 8)])
    arcs = []
    for (u, v), q in zip(pairs, PRIMES + [1, 1]):
        k = rng.choice([k for k in range(1, 4 * q) if k % q or q == 1])
        arcs.append((u, v, Fraction(k, q)))
    assert math.lcm(*(c.denominator for _, _, c in arcs)) > 2 ** 100
    net = build_network(8, 1, 8, arcs)
    want = brute_min_cut(8, 1, 8, arcs)
    for solver in SOLVERS:
        result = solver(net)
        assert result.value == want, solver.__name__
        assert validate(net, result.flow, "flow") == []
        assert cut_capacity(net, min_cut_from_flow(net, result.flow)) == want


def test_certificate_rejects_a_doctored_flow_and_a_doctored_cut():
    # max flow 11/6; the minimum cut {1, 2} is the reached set, at scale 6
    net = build_network(4, 1, 4, [(1, 2, Fraction(3, 2)), (1, 3, 1), (2, 3, Fraction(1, 3)),
                                  (2, 4, Fraction(1, 2)), (3, 4, 2)])
    result = edmonds_karp(net)
    side = result.cut.source_side
    assert side == {1, 2} and result.value == Fraction(11, 6)
    again = solvers._certified(net, ResidualGraph(net, result.flow), side, {})
    assert (again.flow, again.value, again.cut) == (result.flow, result.value, result.cut)

    res = ResidualGraph(net, result.flow)
    res.push(1, 2, 1)  # one more unit of 1/6 into vertex 2
    with pytest.raises(InvariantViolation) as err:
        solvers._certified(net, res, side, {})
    assert err.value.invariant == "certificate"
    assert ("conservation", 2) in err.value.violations

    with pytest.raises(InvariantViolation) as err:
        solvers._certified(net, ResidualGraph(net, result.flow), side - {2}, {})
    assert err.value.invariant == "certificate"
    assert err.value.violations == [("value_is_not_cut_capacity",
                                     (Fraction(11, 6), Fraction(5, 2)))]


def test_push_relabel_instrumented_invariants(rng):
    # every push/relabel re-checks the preflow and labeling internally
    for _ in range(8):
        net, _ = make_random_network(rng, max_n=6)
        result = push_relabel(net, instrumented=True)
        labels = result.debug["labels"]
        assert labeling_violations(net, result.flow.with_role("preflow"), labels) == []


@pytest.mark.parametrize("solver, invariant, step", [
    (edmonds_karp, "flow", "augmentation 1"),
    (push_relabel, "preflow+labeling", "operation 1"),
    (hochbaum_maxflow, "normalized tree", "iteration 1"),
])
def test_instrumented_check_raises_typed_error(monkeypatch, g1, solver, invariant, step):
    # a raised error, not an assert, so the check survives `python -O`
    fake = [Violation("capacity", (1, 2), Fraction(1))]
    monkeypatch.setattr(solvers, "validate", lambda *args: fake)
    with pytest.raises(InvariantViolation) as err:
        solver(g1, instrumented=True)
    assert (err.value.invariant, err.value.step) == (invariant, step)
    assert err.value.violations and f"{invariant} invariant broken at {step}" in str(err.value)
    assert not isinstance(err.value, NetworkError)  # the CLI maps those to exit 2


def test_push_relabel_operation_bound(rng):
    for _ in range(30):
        net, _ = make_random_network(rng)
        result = push_relabel(net)
        ops = result.stats["pushes"] + result.stats["relabels"]
        assert ops <= 2 * net.n * net.n * max(net.m, 1)
        if net.m == 0:
            assert ops == 0


def test_hochbaum_instrumented_tree_and_initial_state(rng):
    from flowkit.solvers import _reverse_network

    for _ in range(8):
        net, _ = make_random_network(rng, max_n=6)
        result = hochbaum_maxflow(net, instrumented=True)
        initial = result.debug["initial_tree"]
        # the starting point is the simple normalized tree: every internal
        # vertex an independent branch hanging off the root
        assert all(p == ROOT for p in initial.parent.values())
        work = _reverse_network(net) if result.debug["reversed"] else net
        assert normalized_tree_violations(work, result.debug["pseudoflow"],
                                          result.debug["final_tree"]) == []


def test_hochbaum_iteration_bound(rng):
    for _ in range(30):
        net, _ = make_random_network(rng)
        result = hochbaum_maxflow(net)
        m_plus = sum((net.capacity(net.source, v) for v in net.out_neighbors(net.source)),
                     Fraction(0))
        m_minus = sum((net.capacity(v, net.sink) for v in net.in_neighbors(net.sink)),
                      Fraction(0))
        bound = 2 * net.n * min(m_plus, m_minus)
        assert result.stats["iterations"] <= bound


# -- maximum blocking cut ---------------------------------------------------


def test_blocking_cut_all_negative_weights():
    g = WeightedGraph(3, {1: -1, 2: -2, 3: -3}, {(1, 2): 1})
    result = max_blocking_cut(g)
    assert result.subset == frozenset() and result.surplus == 0


def test_blocking_cut_single_positive_vertex():
    g = WeightedGraph(1, {1: 3}, {})
    result = max_blocking_cut(g)
    assert result.subset == {1} and result.surplus == 3


def _random_weighted_graph(rng, max_n=7):
    n = rng.randint(1, max_n)
    weights = {v: Fraction(rng.randint(-6, 6)) for v in range(1, n + 1)}
    arcs = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and (v, u) not in arcs and rng.random() < 0.4:
                arcs[(u, v)] = Fraction(rng.randint(0, 5))
    return WeightedGraph(n, weights, arcs)


def test_blocking_cut_against_subset_enumeration(rng):
    for _ in range(40):
        g = _random_weighted_graph(rng)
        result = max_blocking_cut(g)
        best, argmax = brute_max_surplus(g.weights, g.arcs)
        assert result.surplus == best
        assert result.subset in argmax
        assert g.surplus(result.subset) == result.surplus


def test_build_gst_trivia():
    g = WeightedGraph(2, {1: 0, 2: 0}, {(1, 2): 3})
    net = build_gst(g)
    assert net.out_neighbors(net.source) == () and net.in_neighbors(net.sink) == ()
    g = WeightedGraph(2, {1: 4, 2: -2}, {})
    net = build_gst(g)
    assert net.arcs == ((3, 1), (2, 4))
    assert net.capacity(3, 1) == 4 and net.capacity(2, 4) == 2


def test_gst_min_cuts_are_blocking_cuts(rng):
    # {s} + S is a minimum-cut source side exactly when S maximizes surplus
    for _ in range(25):
        g = _random_weighted_graph(rng, max_n=6)
        net = build_gst(g)
        triples = [(u, v, c) for (u, v), c in zip(net.arcs, net.capacities())]
        sides = brute_min_cut_sides(net.n, net.source, net.sink, triples)
        _, argmax = brute_max_surplus(g.weights, g.arcs)
        assert {frozenset(side - {net.source}) for side in sides} == argmax
        result = max_blocking_cut(g)
        assert frozenset(result.subset | {net.source}) in sides


def test_concurrent_runs_are_independent(rng):
    # solvers keep all state per-call: racing them over distinct and
    # shared instances must reproduce the sequential values
    from concurrent.futures import ThreadPoolExecutor

    nets = [make_random_network(rng, max_n=7)[0] for _ in range(12)]
    expected = [edmonds_karp(net).value for net in nets]
    jobs = [(solver, net) for net in nets for solver in SOLVERS]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda job: job[0](job[1]).value, jobs))
    for i, net in enumerate(nets):
        for k in range(len(SOLVERS)):
            assert results[i * len(SOLVERS) + k] == expected[i]


def test_blocking_cut_tree_is_normalized(rng):
    for _ in range(15):
        g = _random_weighted_graph(rng, max_n=6)
        result = max_blocking_cut(g)
        gst = build_gst(g)
        assert normalized_tree_violations(gst, result.pseudoflow, result.tree) == []
