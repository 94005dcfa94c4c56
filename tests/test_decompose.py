"""Flow decomposition, minimum-cut extraction, pseudoflow recovery."""

from fractions import Fraction

import pytest

from conftest import make_random_network
from flowkit.decompose import (
    NotMaximal,
    NotOptimal,
    decompose,
    min_cut_from_flow,
    read_components,
    recover_flow,
    write_components,
)
from flowkit.network import (
    FlowAssignment,
    ResidualGraph,
    build_network,
    cut_capacity,
    net_flow,
    validate,
    zero_flow,
)
from flowkit.solvers import (
    InvariantViolation,
    NormalizedTree,
    ROOT,
    WeightedGraph,
    _pseudoflow_core,
    build_gst,
    edmonds_karp,
    hochbaum_maxflow,
)


def test_zero_flow_decomposes_to_nothing(g1):
    assert decompose(g1, zero_flow()) == []


def test_single_saturated_arc(single_arc):
    comps = decompose(single_arc, FlowAssignment({(1, 2): Fraction(5)}))
    assert len(comps) == 1
    assert comps[0].kind == "path" and comps[0].vertices == (1, 2) and comps[0].amount == 5


def test_components_resum_to_flow(rng):
    for _ in range(25):
        net, _ = make_random_network(rng)
        flow = edmonds_karp(net).flow
        comps = decompose(net, flow)
        assert len(comps) <= net.m
        total = {}
        for comp in comps:
            assert comp.amount > 0
            if comp.kind == "path":
                assert comp.vertices[0] == net.source and comp.vertices[-1] == net.sink
            else:
                assert comp.vertices[0] == comp.vertices[-1]
                assert len(set(comp.vertices[:-1])) == len(comp.vertices) - 1
            for (u, v) in comp.arcs():
                assert net.has_arc(u, v)
                total[(u, v)] = total.get((u, v), Fraction(0)) + comp.amount
        for (u, v) in net.arcs:
            assert total.get((u, v), Fraction(0)) == flow.value(u, v)


def test_decomposition_with_cycles():
    # a valid flow carrying an explicit circulation around 2 -> 3 -> 4 -> 2
    net = build_network(5, 1, 5, [(1, 2, 1), (2, 5, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)])
    flow = FlowAssignment({(1, 2): 1, (2, 5): 1, (2, 3): 1, (3, 4): 1, (4, 2): 1})
    assert validate(net, flow, "flow") == []
    comps = decompose(net, flow)
    kinds = sorted(c.kind for c in comps)
    assert kinds == ["cycle", "path"]
    assert len(comps) <= net.m


def test_min_cut_from_flow_single_arc(single_arc):
    flow = FlowAssignment({(1, 2): Fraction(5)})
    cut = min_cut_from_flow(single_arc, flow)
    assert cut.source_side == {1}
    assert cut_capacity(single_arc, cut) == 5


def test_min_cut_equals_value(rng):
    for _ in range(25):
        net, _ = make_random_network(rng)
        result = edmonds_karp(net)
        cut = min_cut_from_flow(net, result.flow)
        assert net.sink not in cut.source_side
        assert cut_capacity(net, cut) == result.value


def test_min_cut_rejects_non_maximal(g1):
    with pytest.raises(NotMaximal) as err:
        min_cut_from_flow(g1, zero_flow())
    path = err.value.path
    assert path[0] == g1.source and path[-1] == g1.sink
    res = ResidualGraph(g1, zero_flow())
    assert all(res.capacity(path[i], path[i + 1]) > 0 for i in range(len(path) - 1))


def test_recover_identity_when_already_a_flow():
    g = WeightedGraph(2, {1: 0, 2: 0}, {(1, 2): 3})
    gst = build_gst(g)
    tree, core, _, _ = _pseudoflow_core(gst)
    pf = core.flow("pseudoflow")
    res = ResidualGraph(gst, pf)
    recover_flow(res, tree)
    flow = res.flow()
    assert flow.with_role("pseudoflow") == pf
    assert net_flow(gst, flow) == 0


def test_recover_matches_independent_solver(rng):
    for _ in range(25):
        n = rng.randint(1, 6)
        weights = {v: Fraction(rng.randint(-5, 5)) for v in range(1, n + 1)}
        arcs = {}
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and (v, u) not in arcs and rng.random() < 0.4:
                    arcs[(u, v)] = Fraction(rng.randint(0, 5))
        gst = build_gst(WeightedGraph(n, weights, arcs))
        tree, res, _, _ = _pseudoflow_core(gst)
        recover_flow(res, tree)
        flow = res.flow()
        assert validate(gst, flow, "flow") == []
        value = net_flow(gst, flow)
        assert value == edmonds_karp(gst).value
        # the strong/weak cut is tight for the recovered flow
        side = frozenset({gst.source, *tree.strong_vertices()})
        from flowkit.network import Cut

        assert cut_capacity(gst, Cut(side)) == value


def test_recover_rejects_non_optimal_tree():
    # strong root 2 with residual room toward the weak root 3
    net = build_network(4, 1, 4, [(1, 2, 2), (2, 3, 2), (3, 4, 1)])
    pf = FlowAssignment({(1, 2): Fraction(2), (3, 4): Fraction(1)}, "pseudoflow")
    tree = NormalizedTree(ROOT, {2: ROOT, 3: ROOT}, {2: Fraction(2), 3: Fraction(-1)})
    with pytest.raises(NotOptimal):
        recover_flow(ResidualGraph(net, pf), tree)


def test_recover_refuses_an_excess_it_cannot_scale_exactly():
    # capacities in halves; the hand-made tree claims an excess of 5/3
    gst = build_gst(WeightedGraph(1, {1: Fraction(3, 2)}, {}))
    pf = FlowAssignment({(gst.source, 1): Fraction(3, 2)}, "pseudoflow")
    tree = NormalizedTree(ROOT, {1: ROOT}, {1: Fraction(5, 3)})
    with pytest.raises(InvariantViolation) as err:
        recover_flow(ResidualGraph(gst, pf), tree)
    assert err.value.invariant == "integer scaling"


def test_recover_reports_an_invalid_result(monkeypatch):
    # the certificate is the only check of the recovered flow: skipping
    # recovery leaves the pseudoflow's excesses, which it must reject
    import flowkit.solvers

    cases = [([(1, 2, 2), (2, 3, 1), (3, 4, 3)], False),   # M+ = 2 <= M- = 3
             ([(1, 2, 3), (2, 3, 1), (3, 4, 2)], True)]    # M- = 2 < M+ = 3
    for arcs, reverse in cases:
        net = build_network(4, 1, 4, arcs)
        assert hochbaum_maxflow(net, instrumented=True).debug["reversed"] is reverse
        with monkeypatch.context() as patch:
            patch.setattr(flowkit.solvers, "recover_flow", lambda res, tree: None)
            with pytest.raises(InvariantViolation) as err:
                hochbaum_maxflow(net)
        assert err.value.invariant == "certificate"
        assert "conservation" in {kind for kind, _ in err.value.violations}


def test_component_serialization_round_trip(rng):
    net, _ = make_random_network(rng)
    comps = decompose(net, edmonds_karp(net).flow)
    text = write_components(comps)
    assert read_components(text) == comps
