"""Flow decomposition, minimum-cut extraction, pseudoflow recovery."""

from fractions import Fraction

import pytest

from conftest import make_random_network
from flowkit.decompose import (
    NotMaximal,
    decompose,
    min_cut_from_flow,
    recover_flow,
)
from flowkit.network import (
    FlowAssignment,
    ResidualGraph,
    ScaledFlow,
    build_network,
    cut_capacity,
    net_flow,
    validate,
)
from flowkit.solvers import (
    InvariantViolation,
    WeightedGraph,
    _pseudoflow_core,
    build_gst,
    edmonds_karp,
    hochbaum_maxflow,
)


def test_zero_flow_decomposes_to_nothing(g1):
    assert decompose(g1, ScaledFlow((), g1.scale)) == []


def test_single_saturated_arc(single_arc):
    comps = decompose(single_arc, ScaledFlow((((1, 2), 10),), 2))
    assert len(comps) == 1
    assert comps[0].kind == "path" and comps[0].vertices == (1, 2) and comps[0].amount == 5


def test_components_resum_to_flow(rng):
    for _ in range(25):
        net, _ = make_random_network(rng)
        result = edmonds_karp(net)
        flow = result.flow
        comps = decompose(net, result.scaled)
        assert len(comps) <= net.m
        total = {}
        for comp in comps:
            assert comp.amount > 0
            if comp.kind == "path":
                assert comp.vertices[0] == net.source and comp.vertices[-1] == net.sink
            else:
                assert comp.vertices[0] == comp.vertices[-1]
                assert len(set(comp.vertices[:-1])) == len(comp.vertices) - 1
            for (u, v) in zip(comp.vertices, comp.vertices[1:]):
                assert net.has_arc(u, v)
                total[(u, v)] = total.get((u, v), Fraction(0)) + comp.amount
        for (u, v) in net.arcs:
            assert total.get((u, v), Fraction(0)) == flow.value(u, v)


def test_decomposition_with_cycles():
    # a valid flow carrying an explicit circulation around 2 -> 3 -> 4 -> 2
    net = build_network(5, 1, 5, [(1, 2, 1), (2, 5, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)])
    flow = ScaledFlow(tuple([(a, 1) for a in net.arcs]), 1)
    assert validate(net, flow.assignment(), "flow") == []
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
        min_cut_from_flow(g1, FlowAssignment())
    path = err.value.path
    assert path[0] == g1.source and path[-1] == g1.sink
    r = ResidualGraph(g1, FlowAssignment()).r
    assert all(r[path[i]][path[i + 1]] > 0 for i in range(len(path) - 1))


def test_recover_identity_when_already_a_flow():
    g = WeightedGraph(2, {1: 0, 2: 0}, {(1, 2): 3})
    gst = build_gst(g)
    _, core, _, _ = _pseudoflow_core(gst)
    pf = core.flow()
    res = ResidualGraph(gst, pf)
    recover_flow(res)
    flow = res.flow()
    assert flow == pf
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
        snapshot, res, _, _ = _pseudoflow_core(gst)
        tree = snapshot()
        recover_flow(res)
        flow = res.flow()
        assert validate(gst, flow, "flow") == []
        value = net_flow(gst, flow)
        assert value == edmonds_karp(gst).value
        # the strong/weak cut is tight for the recovered flow
        side = frozenset({gst.source, *tree.strong_vertices()})
        from flowkit.network import Cut

        assert cut_capacity(gst, Cut(side)) == value


def test_the_certificate_rejects_a_non_optimal_pseudoflow(monkeypatch):
    # the strong root 2 keeps residual room toward the weak root 4, so
    # recovery drains 2 back to s and serves 4 from t; the zero flow it
    # leaves is not maximal, and the search from s stops at t before it
    # scans the unsaturated arc (2, 4)
    import flowkit.solvers

    net = build_network(4, 1, 3, [(1, 2, 2), (2, 3, 2), (2, 4, 1), (4, 3, 1)])  # M+ = 2 <= M- = 3
    pf = FlowAssignment({(1, 2): 2, (4, 3): 1})
    cores = []

    def core(work, instrumented=False):
        cores.append(work)
        # a non-instrumented run never builds the tree
        return None, ResidualGraph(work, pf), {"iterations": 0, "relabels": 0}, {}

    monkeypatch.setattr(flowkit.solvers, "_pseudoflow_core", core)
    with pytest.raises(InvariantViolation) as err:
        hochbaum_maxflow(net)
    assert cores == [net]
    assert err.value.invariant == "certificate"
    kinds = {kind for kind, _ in err.value.violations}
    assert kinds == {"cut_sides", "value_is_not_cut_capacity"}


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
            patch.setattr(flowkit.solvers, "recover_flow", lambda res: None)
            with pytest.raises(InvariantViolation) as err:
                hochbaum_maxflow(net)
        assert err.value.invariant == "certificate"
        assert "conservation" in {kind for kind, _ in err.value.violations}
