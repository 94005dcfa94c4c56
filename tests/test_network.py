"""Network model: construction, incidence, flows, cuts, residuals, IO."""

import math
import random
from fractions import Fraction

import pytest

from conftest import make_random_network, seeded_networks
from flowkit.network import (
    Cut,
    DuplicateArc,
    InvalidFlow,
    InvalidVertex,
    InvariantViolation,
    NetworkError,
    ParseError,
    ResidualGraph,
    ScaledFlow,
    SourceSinkViolation,
    Violation,
    build_network,
    cut_capacity,
    flow_across_cut,
    incidence_matrix,
    net_flow,
    read_dimacs,
    read_flow,
    validate,
    write_dimacs,
    write_flow,
    _reached,
)
from flowkit.solvers import ALGORITHMS, edmonds_karp
from flowkit.values import parse_value
from oracles import (
    all_cuts,
    brute_min_cut,
    capacities,
    incidence_by_definition,
    random_network_spec,
    residual_distances,
    scaled_flow,
    textbook_search,
)

TABLE_4X5 = [
    [1, 1, 0, 0, 0],
    [-1, 0, 1, 0, 1],
    [0, -1, 0, 1, -1],
    [0, 0, -1, -1, 0],
]


def test_minimal_network():
    net = build_network(2, 1, 2, [(1, 2, 5)])
    assert net.m == 1 and capacities(net) == [5]


def test_arc_into_source_rejected():
    with pytest.raises(SourceSinkViolation):
        build_network(2, 1, 2, [(2, 1, 5)])


def test_arc_out_of_sink_rejected():
    with pytest.raises(SourceSinkViolation):
        build_network(3, 1, 3, [(3, 2, 1)])


def test_duplicate_arc_rejected():
    with pytest.raises(DuplicateArc):
        build_network(3, 1, 3, [(1, 2, 1), (1, 2, 2)])


def test_antiparallel_rejected_in_simple_mode():
    with pytest.raises(DuplicateArc):
        build_network(4, 1, 4, [(2, 3, 1), (3, 2, 1)])


def test_antiparallel_subdivided():
    net = build_network(4, 1, 4, [(1, 2, 3), (2, 3, 1), (3, 2, 2), (3, 4, 3)],
                        allow_antiparallel=True)
    assert net.n == 6
    assert net.gadget_vertices == {5, 6}
    assert (2, 5) in net.arcs and (5, 3) in net.arcs
    caps = dict(zip(net.arcs, capacities(net)))
    assert caps[(2, 5)] == caps[(5, 3)] == 1
    assert caps[(3, 6)] == caps[(6, 2)] == 2


def test_gadget_preserves_maxflow():
    # multigraph-style instances with antiparallel pairs; the subdivided
    # network must keep the brute-force minimum cut value
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(3, 5)
        s, t = 1, n
        triples = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u == v or v == s or u == t:
                    continue
                if rng.random() < 0.6:
                    triples.append((u, v, Fraction(rng.randint(0, 6))))
        net = build_network(n, s, t, triples, allow_antiparallel=True)
        assert edmonds_karp(net).value == brute_min_cut(n, s, t, triples)


def test_incidence_matrix_fixture(g1):
    assert incidence_matrix(g1) == TABLE_4X5


def test_incidence_single_arc(single_arc):
    assert incidence_matrix(single_arc) == [[1], [-1]]


def test_incidence_against_definition_and_zero_columns(rng):
    for _ in range(20):
        n, s, t, arcs = random_network_spec(rng, max_n=7)
        net = build_network(n, s, t, arcs)
        matrix = incidence_matrix(net)
        assert matrix == incidence_by_definition(n, s, t, arcs, net.vertex_order())
        for j in range(net.m):
            assert sum(matrix[i][j] for i in range(net.n)) == 0


def test_zero_flow_is_valid(g1):
    assert validate(g1, scaled_flow({}), "flow") == []


def test_initial_preflow_is_valid(g1):
    saturated = scaled_flow({(u, v): c for (u, v), c in zip(g1.arcs, capacities(g1)) if u == 1})
    assert validate(g1, saturated, "preflow") == []
    # but it is not a flow: conservation fails downstream of the source
    assert any(v.kind == "conservation" for v in validate(g1, saturated, "flow"))


def test_negative_excess_breaks_a_preflow_not_a_pseudoflow(g1):
    # 3 sends t a unit it never received
    f = scaled_flow({(3, 4): 1})
    assert validate(g1, f, "preflow") == [Violation("negative_excess", 3, Fraction(-1))]
    assert validate(g1, f, "pseudoflow") == []
    with pytest.raises(ValueError, match="unknown role 'circulation'"):
        validate(g1, f, "circulation")


def test_capacity_violation_reported_once(g1):
    flow = edmonds_karp(g1).scaled
    values = {a: Fraction(x, flow.scale) for a, x in flow.pairs}
    values[(2, 4)] = capacities(g1)[g1.arcs.index((2, 4))] + 1
    bad = validate(g1, scaled_flow(values), "flow")
    assert sum(1 for v in bad if v.kind == "capacity") == 1
    assert any(v.kind == "capacity" and v.where == (2, 4) for v in bad)


def test_a_negative_value_breaks_the_capacity_of_its_own_arc(g1):
    assert validate(g1, scaled_flow({(1, 2): -1}), "pseudoflow") == [
        Violation("capacity", (1, 2), Fraction(-1))]


def test_validate_brings_the_flow_and_the_capacities_to_one_scale():
    # the flow is in halves and the capacities are integers: 3/2 <= 2,
    # though its int 3 over the scale 2 exceeds the capacity's int 2
    net = build_network(3, 1, 3, [(1, 2, 2), (2, 3, 2)])
    assert validate(net, scaled_flow({(1, 2): "3/2", (2, 3): "3/2"}), "flow") == []
    assert validate(net, scaled_flow({(1, 2): "5/2", (2, 3): "5/2"}), "flow") == [
        Violation("capacity", (1, 2), Fraction(1, 2)),
        Violation("capacity", (2, 3), Fraction(1, 2))]
    # and the other way round: 1 > 1/2, though the ints are 1 and 1
    halves = build_network(3, 1, 3, [(1, 2, "1/2"), (2, 3, "1/2")])
    assert validate(halves, scaled_flow({(1, 2): 1, (2, 3): 1}), "flow") == [
        Violation("capacity", (1, 2), Fraction(1, 2)),
        Violation("capacity", (2, 3), Fraction(1, 2))]


def test_net_flow_trivia(single_arc):
    assert net_flow(single_arc, scaled_flow({})) == 0
    full = scaled_flow({(1, 2): 5})
    assert net_flow(single_arc, full) == 5


def test_net_flow_requires_valid_flow(g1):
    with pytest.raises(InvalidFlow):
        net_flow(g1, scaled_flow({(1, 2): capacities(g1)[g1.arcs.index((1, 2))] + 1}))


def test_flow_across_every_cut_equals_net_flow(rng):
    for _ in range(15):
        net, _ = make_random_network(rng, max_n=7)
        flow = edmonds_karp(net).scaled
        value = net_flow(net, flow)
        for cut in all_cuts(net):
            assert flow_across_cut(net, flow, cut) == value
            assert flow_across_cut(net, scaled_flow({}), cut) == 0


def test_cut_capacity_dominates_flow(rng):
    for _ in range(15):
        net, arcs = make_random_network(rng, max_n=7)
        value = edmonds_karp(net).value
        caps = [cut_capacity(net, cut) for cut in all_cuts(net)]
        assert min(caps) >= value
        assert min(caps) == brute_min_cut(net.n, net.source, net.sink, arcs)


def test_cut_of_source_alone(single_arc):
    cut = Cut(frozenset({1}))
    assert cut_capacity(single_arc, cut) == 5
    full = scaled_flow({(1, 2): 5})
    assert flow_across_cut(single_arc, full, cut) == 5


def test_residual_of_zero_flow(g1):
    res = ResidualGraph(g1, scaled_flow({}))
    assert {(u, v) for u, row in res.r.items() for v, x in row.items() if x > 0} == set(g1.arcs)
    assert all(res.r[u][v] == c * res.scale for (u, v), c in zip(g1.arcs, capacities(g1)))


def test_residual_of_saturated_arc(single_arc):
    res = ResidualGraph(single_arc, scaled_flow({(1, 2): 5}))
    assert res.r == {1: {2: 0}, 2: {1: 5 * res.scale}}


def test_residual_pair_identity(rng):
    # c_f(u,v) + c_f(v,u) == c(u,v) on every arc, and the flow reads back
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=7)
        flow = edmonds_karp(net).scaled
        res = ResidualGraph(net, flow)
        r = res.r
        for (u, v), c in zip(net.arcs, capacities(net)):
            assert r[u][v] + r[v][u] == c * res.scale
            assert r[u][v] >= 0 and r[v][u] >= 0
        assert res.flow() == flow


def test_residual_of_a_flow_with_a_foreign_denominator():
    # no capacity has a denominator divisible by 3; the flow has thirds
    net = build_network(4, 1, 4, [(1, 2, Fraction(7, 2)), (2, 3, Fraction(6, 5)),
                                  (3, 4, Fraction(9, 2)), (1, 3, Fraction(1, 5)), (2, 4, 1)])
    third = Fraction(1, 3)
    values = {(1, 2): third, (2, 3): third, (3, 4): third}
    flow = scaled_flow(values)
    assert validate(net, flow, "flow") == []
    res = ResidualGraph(net, flow)
    r, scale = res.r, res.scale
    assert scale == 30
    for (u, v), c in zip(net.arcs, capacities(net)):
        x = values.get((u, v), 0)
        assert r[u][v] == (c - x) * scale and r[v][u] == x * scale
    assert Fraction(r[1][2], scale) == Fraction(19, 6) and Fraction(r[2][1], scale) == third


def test_dimacs_round_trip(g1, rng):
    nets = [g1]
    for _ in range(5):
        nets.append(make_random_network(rng)[0])
    for net in nets:
        assert read_dimacs(write_dimacs(net)) == net


def test_dimacs_rational_capacities():
    net = read_dimacs("p max 2 1\nn 1 s\nn 2 t\na 1 2 7/3\n")
    assert net.ints == (7,) and net.scale == 3


@pytest.mark.parametrize("text,line", [
    ("p max x y\n", 1),
    ("a 1 2 3\n", 1),
    ("p max 2 1\nn 1 s\nn 2 t\na 1 2 -4\n", 4),
    ("p max 2 1\nn 1 s\nn 2 t\nq 1 2\n", 4),
])
def test_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_dimacs(text)
    assert err.value.line_no == line


def test_dimacs_negative_capacity_names_its_line():
    with pytest.raises(ParseError, match=r"^line 5: negative capacity$") as err:
        read_dimacs("p max 3 2\nn 1 s\nn 3 t\na 1 2 1\na 2 3 -1\n")
    assert err.value.line_no == 5


HEAD = "p max 3 2\nn 1 s\nn 3 t\n"


@pytest.mark.parametrize("text, message", [
    (HEAD + "a 0 2 5\na 2 3 1\n", "line 4: arc endpoint out of range: (0, 2)"),
    (HEAD + "a 1 2 5\na 2 4 1\n", "line 5: arc endpoint out of range: (2, 4)"),
    (HEAD + "a 1 2 5\na 1 2 1\n", "line 5: duplicate arc (1, 2)"),
    (HEAD + "a 2 2 5\na 2 3 1\n", "line 4: self-loop not allowed: (2, 2)"),
    (HEAD + "a 1 2 5\na 2 1 1\n", "line 5: arc (2, 1) enters the source or leaves the sink"),
    (HEAD + "a 3 2 5\na 2 3 1\n", "line 4: arc (3, 2) enters the source or leaves the sink"),
    ("p max 5 4\nn 1 s\nn 5 t\na 3 4 1\na 1 3 1\nc\na 4 3 2\na 4 5 1\n",
     "line 7: antiparallel pair (3,4)/(4,3) not allowed in simple mode"),
    ("p max 5 4\nn 1 s\nn 5 t\na 4 3 1\na 1 3 1\na 3 4 2\na 4 5 1\n",
     "line 6: antiparallel pair (3,4)/(4,3) not allowed in simple mode"),
    ("p max 3 1\nn 9 s\nn 3 t\na 1 2 1\n", "line 2: source/sink out of range: s=9, t=3"),
    ("p max 3 1\nn 3 t\nc\nn 0 s\na 1 2 1\n", "line 4: source/sink out of range: s=0, t=3"),
    ("p max 3 1\nn 1 s\nn 4 t\na 1 2 1\n", "line 3: source/sink out of range: s=1, t=4"),
    ("p max 3 1\nn 2 s\nn 2 t\na 1 3 1\n", "line 3: source and sink must differ"),
    ("c one vertex\np max 1 0\nn 1 s\nn 1 t\n", "line 2: need at least two vertices, got n=1"),
    ("c\np max 3 2\nn 1 s\nn 3 t\na 1 2 1\n", "line 2: problem line announced 2 arcs, found 1"),
])
def test_dimacs_structural_errors_name_their_line(text, message):
    with pytest.raises(ParseError) as err:
        read_dimacs(text)
    assert str(err.value) == message
    assert err.value.line_no == int(message.split()[1].rstrip(":"))


def _capacity_token(rng, kind):
    """A capacity token of the kind, and its value."""
    if kind == "integer":
        x = rng.randint(0, 30)
        return str(x), Fraction(x)
    if kind in ("rational", "gadget"):  # denominators coprime but for 1
        x = Fraction(rng.randint(0, 60), rng.choice([1, 7, 11, 13, 17]))
        return (str(x.numerator) if x.denominator == 1 and rng.random() < 0.5
                else f"{x.numerator}/{x.denominator}"), x
    x = Fraction(rng.randint(0, 40), rng.randint(1, 9))
    if kind == "unreduced":  # 12/8 for 3/2
        k = rng.randint(2, 6)
        return f"{x.numerator * k}/{x.denominator * k}", x
    zeros = "0" * rng.randint(1, 3)
    if x.denominator == 1 and rng.random() < 0.5:
        return f"{zeros}{x.numerator}", x
    return f"{zeros}{x.numerator}/00{x.denominator}", x


def test_read_dimacs_equals_build_network_over_parse_value():
    """`read_dimacs` keeps capacities as ints over one scale; on seeded
    texts of every token kind it must build the network `build_network`
    builds from `parse_value`'s Fractions, with the scale the LCM of the
    reduced denominators."""
    kinds = ("integer", "rational", "unreduced", "zeros", "gadget")
    gadgets = 0
    for seed in range(250):
        rng = random.Random(seed)
        kind = kinds[seed % len(kinds)]
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(1, n) for v in range(2, n + 1)
                 if u != v and rng.random() < 0.4]
        if kind != "gadget":
            pairs = [(u, v) for (u, v) in pairs if u < v or (v, u) not in pairs]
        rng.shuffle(pairs)
        tokens = [_capacity_token(rng, kind) for _ in pairs]
        text = f"c {kind}\np max {n} {len(pairs)}\nn {n} t\nn 1 s\n" + "".join(
            f"a {u} {v} {token}\n" for (u, v), (token, _) in zip(pairs, tokens))
        net = read_dimacs(text, allow_antiparallel=kind == "gadget")
        want = build_network(n, 1, n, [(u, v, parse_value(token))
                                       for (u, v), (token, _) in zip(pairs, tokens)],
                             allow_antiparallel=kind == "gadget")
        assert [x for _, x in tokens] == [parse_value(token) for token, _ in tokens]
        assert net == want and net.arcs == want.arcs, (seed, text)
        if kind != "gadget":  # arc for arc, the values the tokens stand for
            assert capacities(net) == [x for _, x in tokens], (seed, text)
        assert net.gadget_vertices == want.gadget_vertices
        assert net.scale == math.lcm(*{x.denominator for _, x in tokens}), (seed, text)
        gadgets += len(net.gadget_vertices)
    assert gadgets > 0


def test_dimacs_count_mismatch():
    with pytest.raises(ParseError):
        read_dimacs("p max 2 2\nn 1 s\nn 2 t\na 1 2 1\n")


def test_flow_format_round_trip(g1):
    result = edmonds_karp(g1)
    text = write_flow(result.scaled, result.value)
    assert text.strip().splitlines()[-1] == "s 5"
    assert read_flow(g1, text) == result.scaled


def test_read_flow_gives_back_what_each_solver_certified():
    for label, net in seeded_networks(200):
        for name, solver in ALGORITHMS.items():
            result = solver(net)
            text = write_flow(result.scaled, result.value)
            assert read_flow(net, text) == result.scaled, (label, name)


def test_read_flow_returns_ints_in_arc_order_over_the_lcm(g1):
    # lines out of arc order, a zero value, and a denominator g1's scale lacks
    flow = read_flow(g1, "f 3 4 1/2\nf 1 2 0\nf 1 3 1/2\ns 1/2\n")
    assert flow == ScaledFlow((((1, 3), 1), ((3, 4), 1)), 2)
    # a token not in lowest terms gives the same flow over the same scale
    assert read_flow(g1, "f 3 4 2/4\nf 1 3 3/6\n") == flow


def test_flow_format_rejects_repeated_arc(g1):
    with pytest.raises(ParseError) as err:
        read_flow(g1, "f 1 2 1\nf 1 3 1\nf 1 2 2\n")
    assert err.value.line_no == 3


def test_flow_format_rejects_wrong_total(g1):
    result = edmonds_karp(g1)
    text = write_flow(result.scaled, result.value).replace("s 5", "s 4")
    with pytest.raises(ParseError):
        read_flow(g1, text)


def test_float_capacities_refused():
    with pytest.raises(TypeError):
        build_network(2, 1, 2, [(1, 2, 0.1)])


@pytest.mark.parametrize("arcs, kwargs, error, at", [
    ([(1, 2, Fraction(1, 2)), (2, 3, 1)], {"scale": 1}, NetworkError, 0),
    ([(1, 2, 1), (2, 3, True)], {"scale": 1}, NetworkError, 1),
    ([(1.0, 2, 1), (2, 3, 1)], {}, InvalidVertex, 0),
    ([(1, 2, 1), (2, True, 1)], {}, InvalidVertex, 1),
    ([(1, 2, 1), (2, 3.0, 1)], {"scale": 1}, InvalidVertex, 1),
], ids=["Fraction over a scale", "bool over a scale", "float endpoint", "bool endpoint",
        "float endpoint over a scale"])
def test_build_network_refuses_what_is_not_an_int(arcs, kwargs, error, at):
    with pytest.raises(error) as err:
        build_network(3, 1, 3, arcs, **kwargs)
    assert type(err.value) is error and err.value.at == at


def test_one_search_and_one_labelling_against_the_textbook_ones():
    # at the zero flow and at a maximum one: the reverse labelling gives
    # each vertex its residual distance to t (-1 when it cannot reach t),
    # exactly up to the layer of s when it stops there, and the forward
    # search from s or t finds the textbook path and reached set
    found = failed = 0
    for label, net in seeded_networks():
        n, s, t = net.n, net.source, net.sink
        for flow in (None, edmonds_karp(net).scaled):
            res = ResidualGraph(net, flow)
            want = residual_distances(res.r, t)
            d = [-1] * (n + 1)
            d[t] = 0
            res.distances(d, t)
            assert d[1:] == [want[v] for v in net.vertices()], label
            d = [-1] * (n + 1)
            d[t] = 0
            res.distances(d, t, stop=s)
            last = want[s] if want[s] >= 0 else n
            assert d[1:] == [want[v] if want[v] <= last else -1 for v in net.vertices()], label
            for origin in (s, t):
                for target in net.vertices():
                    if target == origin:
                        continue
                    path, queue = res.search(origin, target)
                    want_path, want_reached = textbook_search(res.r, origin, target)
                    assert path == want_path, (label, origin, target)
                    assert len(queue) == len(want_reached) and set(queue) == want_reached
                    found += path is not None
                    failed += path is None
    assert found > 10_000 and failed > 10_000, (found, failed)


def test_path_walk_is_bounded_by_the_reached_set():
    """A `parent` that cycles, as a broken search can leave it, raises a
    typed error instead of walking forever; a sound one gives the path."""
    # vertices 1..4, origin 1: 1 -> 2 -> 3, and the target 4 reached from 3
    parent, queue = [-1, 0, 1, 2, -1], [1, 2, 3]
    assert _reached(4, 3, parent, queue) == ([1, 2, 3, 4], [1, 2, 3, 4])
    # 2 and 3 point at each other and never lead back to the origin
    parent, queue = [-1, 0, 3, 2, -1], [1, 2, 3]
    with pytest.raises(InvariantViolation) as info:
        _reached(4, 3, parent, queue)
    assert info.value.invariant == "work budget"
    # the target itself on the cycle: reached again from a vertex it reached
    parent, queue = [-1, 0, 4, 2, -1], [1, 4, 2, 3]
    with pytest.raises(InvariantViolation):
        _reached(4, 3, parent, queue)
