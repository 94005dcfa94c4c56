"""Oriented complexes, boundary matrices, higher-dimensional flows."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import make_random_network
from flowkit.lp import is_totally_unimodular
from flowkit.network import (
    InvariantViolation,
    build_network,
    cut_capacity,
    incidence_matrix,
)
from flowkit.simplicial import (
    BudgetExceeded,
    ComplexError,
    NegativeCapacity,
    OrientedComplex,
    SourceConditionViolated,
    all_hcuts,
    boundary_matrix,
    build_hnetwork,
    check_source_condition,
    conjecture_probe,
    find_augmenting_cycle,
    hcut_capacity,
    hcut_from_graph_cut,
    hdual_violations,
    hflow_violations,
    hmaxflow_augment,
    hmaxflow_lp,
    is_leaf,
    is_simplicial_tree,
    is_weighted_cycle,
    make_hcut,
    network_as_hnetwork,
    probe_instances,
    random_hnetwork,
    read_hnet,
    residual_complex,
    tu_certificate_via_tree,
    write_hnet,
    write_probe_report,
)
from flowkit.solvers import edmonds_karp
from flowkit.values import is_unbounded, scaled
from oracles import (
    all_cuts,
    boundary_by_definition,
    hmaxflow_augment_by_fractions,
    leaf_by_definition,
    random_network_spec,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

TETRA_FACETS = [(2, 3, 4), (1, 2, 4), (1, 4, 3), (1, 3, 2)]
TETRA_FACE_ORDER = [(1, 2), (1, 4), (2, 4), (1, 3), (3, 4), (2, 3)]
TETRA_MATRIX = [
    [0, 1, 0, -1],
    [0, -1, 1, 0],
    [-1, 1, 0, 0],
    [0, 0, -1, 1],
    [1, 0, -1, 0],
    [1, 0, 0, -1],
]

# double tetrahedron: two coherently-oriented sphere boundaries over
# {1..5} glued along the shared triangle {1,2,3}, the source facet
DOUBLE_FACETS = [(2, 3, 4), (1, 2, 4), (1, 4, 3),
                 (2, 3, 5), (1, 2, 5), (1, 5, 3), (1, 3, 2)]

# the published 9x7 boundary matrix of the same complex: its rows are the
# faces in this order, and it orients (1, 3) and (2, 3) against sorted order
DOUBLE_FACE_ORDER = [(1, 3), (2, 3), (3, 5), (3, 4), (1, 2), (1, 5), (1, 4), (2, 5), (2, 4)]
DOUBLE_MATRIX = [
    [0, 0, 1, 0, 0, 1, -1],
    [-1, 0, 0, -1, 0, 0, 1],
    [0, 0, 0, 1, 0, -1, 0],
    [1, 0, -1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, -1],
    [0, 0, 0, 0, -1, 1, 0],
    [0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, 1, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0],
]


@pytest.fixture
def tetra():
    return OrientedComplex(2, TETRA_FACETS)


@pytest.fixture
def tetra_net(tetra):
    return build_hnetwork(tetra, 3, {0: 1, 1: 1, 2: 1})


@pytest.fixture
def double():
    return OrientedComplex(2, DOUBLE_FACETS)


@pytest.fixture
def double_net(double):
    return build_hnetwork(double, 6, {j: 1 for j in range(6)})


def test_complex_validation():
    with pytest.raises(ComplexError):
        OrientedComplex(2, [(1, 2)])
    with pytest.raises(ComplexError):
        OrientedComplex(2, [(1, 2, 2)])
    with pytest.raises(ComplexError):
        OrientedComplex(2, [(1, 2, 3), (3, 2, 1)])


def rows_in_order(complex_, order):
    """The rows of the boundary matrix for the faces in `order`."""
    rows = dict(zip(complex_.faces(), boundary_matrix(complex_)))
    return [rows[face] for face in order]


def test_tetrahedron_boundary_matrix(tetra):
    assert rows_in_order(tetra, TETRA_FACE_ORDER) == TETRA_MATRIX


def test_boundary_columns_have_dimension_plus_one_entries(tetra, double):
    for cx in (tetra, double):
        matrix = boundary_matrix(cx)
        for j in range(len(cx.facets)):
            col = [matrix[i][j] for i in range(len(matrix))]
            assert sorted(map(abs, (x for x in col if x))) == [1] * (cx.dimension + 1)


def test_boundary_composes_to_zero(tetra, double):
    for cx in (tetra, double):
        edges = cx.faces()
        skeleton = OrientedComplex(1, edges)
        b1 = boundary_matrix(skeleton)
        b2 = boundary_matrix(cx)
        for i in range(len(b1)):
            for j in range(len(cx.facets)):
                assert sum(b1[i][k] * b2[k][j] for k in range(len(edges))) == 0


def random_complex(rng, dimension, max_facets=8):
    """Distinct random d-simplices over a few vertices, each in a shuffled
    orientation."""
    nv = rng.randint(dimension + 1, dimension + 4)
    pool = list(combinations(range(1, nv + 1), dimension + 1))
    facets = []
    for simplex in rng.sample(pool, rng.randint(1, min(max_facets, len(pool)))):
        simplex = list(simplex)
        rng.shuffle(simplex)
        facets.append(tuple(simplex))
    return OrientedComplex(dimension, facets)


def test_boundary_products_match_the_matrix(tetra, double):
    # the matrix comes from the definition, not from the complex's sign table
    rng = random.Random(41)
    torsion = read_hnet(SAMPLES.joinpath("torsion.hnet").read_text()).complex
    complexes = [tetra, double, torsion] + [random_hnetwork(rng).complex for _ in range(40)]
    complexes += [random_complex(rng, d) for d in (1, 3, 4) for _ in range(40)]
    for cx in complexes:
        faces, matrix = boundary_by_definition(cx.facets)
        assert cx.faces() == tuple(faces)
        assert boundary_matrix(cx) == matrix
        k = len(cx.facets)
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        lam = {face: rng.randint(0, 1) for face in faces}
        assert cx.boundary(x) == {face: sum(a * b for a, b in zip(row, x))
                                  for face, row in zip(faces, matrix)}
        assert cx.coboundary(lam) == [sum(matrix[i][j] * lam[face]
                                          for i, face in enumerate(faces))
                                      for j in range(k)]


def test_dimension_one_matches_incidence(g1):
    hn = network_as_hnetwork(g1)
    b = rows_in_order(hn.complex, [(v,) for v in g1.vertex_order()])
    assert [row[:-1] for row in b] == incidence_matrix(g1)
    # the source facet, enumerated last, is the return arc from t to s
    assert [row[-1] for row in b] == [-1] + [0] * (g1.n - 2) + [1]


def test_source_condition_tetrahedron(tetra):
    ok, witnesses = check_source_condition(tetra, 3)
    assert ok and witnesses == []


def test_source_condition_detects_flip(tetra):
    flipped = list(TETRA_FACETS)
    flipped[0] = (3, 2, 4)
    ok, witnesses = check_source_condition(OrientedComplex(2, flipped), 3)
    assert not ok
    assert witnesses == [(0, (2, 3))]


def test_source_condition_dimension_one():
    net = build_network(4, 1, 4, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)])
    hn = network_as_hnetwork(net)
    ok, _ = check_source_condition(hn.complex, hn.t_index)
    assert ok


def test_build_hnetwork_errors(tetra):
    flipped = list(TETRA_FACETS)
    flipped[0] = (3, 2, 4)
    with pytest.raises(SourceConditionViolated):
        build_hnetwork(OrientedComplex(2, flipped), 3, {0: 1, 1: 1, 2: 1})
    with pytest.raises(NegativeCapacity):
        build_hnetwork(tetra, 3, {0: -1, 1: 1, 2: 1})
    with pytest.raises(ComplexError):
        build_hnetwork(tetra, 3, {0: 1, 1: 1})


def test_weighted_cycle_checks(tetra):
    ok, _ = is_weighted_cycle(tetra, [0, 0, 0, 0])
    assert ok
    ok, _ = is_weighted_cycle(tetra, [1, 1, 1, 1])
    assert ok
    ok, residuals = is_weighted_cycle(tetra, [1, 0, 0, 0])
    assert not ok and len(residuals) == 3


def test_tetra_maxflow(tetra_net):
    res = hmaxflow_lp(tetra_net)
    assert res.value == 1
    assert res.flow.values == (1, 1, 1, 1)
    aug = hmaxflow_augment(tetra_net)
    assert aug.value == 1 and len(aug.trace) == 1


def test_double_tetra_fixture(double):
    assert sorted(DOUBLE_FACE_ORDER) == list(double.faces())
    b = rows_in_order(double, DOUBLE_FACE_ORDER)
    b[0], b[1] = [-x for x in b[0]], [-x for x in b[1]]
    assert b == DOUBLE_MATRIX
    assert is_totally_unimodular(boundary_matrix(double)).is_tu
    assert is_totally_unimodular(DOUBLE_MATRIX).is_tu


def test_double_tetra_flow_values(double_net):
    res = hmaxflow_lp(double_net)
    aug = hmaxflow_augment(double_net)
    assert res.value == aug.value == 2
    assert len(aug.trace) == 2
    assert hflow_violations(double_net, *scaled(aug.flow.values)) == []


def test_augmentation_steps_are_valid_flows(double_net, rng):
    # an instrumented run re-checks the flow after every step, and every
    # step pushes a positive amount
    hmaxflow_augment(double_net, instrumented=True)
    for _ in range(10):
        hnet = random_hnetwork(rng)
        res = hmaxflow_augment(hnet, instrumented=True)
        assert all(amount > 0 for amount in res.trace)


def test_the_hflow_check_reads_ints_over_any_scale(tetra):
    # capacities 1/2, 3/4 and 2/3, ints over the network's scale 12; the
    # weights come over scales of their own
    hnet = build_hnetwork(tetra, 3, {0: "1/2", 1: "3/4", 2: "2/3"})
    assert hnet.scale == 12
    assert hflow_violations(hnet, [1, 1, 1, 1], 2) == []           # 1/2 around the cycle
    assert hflow_violations(hnet, [3, 3, 3, 3], 4) == [             # 3/4 exceeds two
        ("capacity", 0), ("capacity", 2)]
    assert hflow_violations(hnet, [-1] * 4, 7) == [("negative", j) for j in range(4)]
    ok, residuals = is_weighted_cycle(tetra, [0, 1, 0, 0])
    assert not ok and residuals
    assert hflow_violations(hnet, [0, 1, 0, 0], 2) == [("cycle", face)
                                                       for face in sorted(residuals)]


def test_residual_complex_members(tetra_net):
    zero = [0] * 4
    members = residual_complex(tetra_net, zero, 1)
    assert set(members) == {(j, 1) for j in range(4)}
    full = [3] * 4  # every facet at capacity 1, over the scale 3
    members = residual_complex(tetra_net, full, 3)
    kinds = set(members)
    assert (3, 1) in kinds and (0, -1) in kinds and (0, 1) not in kinds


def test_no_augmenting_cycle_at_optimum(tetra_net):
    res = hmaxflow_lp(tetra_net)
    weights, scale = scaled(res.flow.values)
    assert find_augmenting_cycle(tetra_net, weights, scale) is None


def test_int_augmentation_matches_the_fraction_one():
    # the ints over a growing scale give the Fraction loop's trace, flow
    # and value, step for step, and some step grows the scale
    hnets = [read_hnet(SAMPLES.joinpath(name).read_text())
             for name in ("tetra.hnet", "double-tetra.hnet", "torsion.hnet")]
    for seed in range(200):
        hnets.append(random_hnetwork(random.Random(f"int-augment:{seed}")))
    for seed in range(100):
        rng = random.Random(f"int-augment-graph:{seed}")
        n, s, t, arcs = random_network_spec(rng, max_n=7, allow_st_arc=False)
        arcs = [(u, v, Fraction(rng.randint(0, 30), rng.choice([7, 11, 13, 17])))
                for u, v, _ in arcs]
        hnets.append(network_as_hnetwork(build_network(n, s, t, arcs)))
    # the torsion sample's cycles have a coefficient 2, so its bottlenecks can be halves
    torsion = hnets[2]
    for seed in range(30):
        rng = random.Random(f"int-augment-torsion:{seed}")
        caps = {j: Fraction(rng.randint(1, 12), rng.choice([1, 2, 3]))
                for j in range(torsion.facet_count()) if j != torsion.t_index}
        hnets.append(build_hnetwork(torsion.complex, torsion.t_index, caps))
    assert len(hnets) == 333
    rescaled = 0
    for hnet in hnets:
        res = hmaxflow_augment(hnet)
        values, value, trace = hmaxflow_augment_by_fractions(hnet)
        assert (res.trace, res.flow.values, res.value) == (trace, values, value)
        assert all(type(x) is Fraction for x in (*res.trace, *res.flow.values, res.value))
        # some step grows the scale exactly when some amount is not an int
        # count of 1/hnet.scale, the scale the loop starts at
        rescaled += any((amount * hnet.scale).denominator > 1 for amount in res.trace)
    assert rescaled > 0


def test_dimension_one_values_match(rng):
    for _ in range(20):
        net, _ = make_random_network(rng, max_n=6, allow_st_arc=False)
        hn = network_as_hnetwork(net)
        assert hmaxflow_lp(hn).value == edmonds_karp(net).value


def test_hcut_all_faces_on_near_side(tetra_net):
    cut = make_hcut(tetra_net.complex, tetra_net.complex.faces())
    cap, point = hcut_capacity(tetra_net, cut)
    assert point.eta[3] == 1
    assert all(point.eta[j] == 0 for j in range(3))
    assert is_unbounded(cap)
    assert hdual_violations(tetra_net, point) == []


def test_hcut_weak_duality_over_all_partitions(tetra_net):
    best = None
    for cut in all_hcuts(tetra_net.complex):
        cap, point = hcut_capacity(tetra_net, cut)
        assert hdual_violations(tetra_net, point) == []
        if not is_unbounded(cap):
            best = cap if best is None or cap < best else best
    assert best is not None and best >= hmaxflow_lp(tetra_net).value == 1


def test_hcut_matches_graph_cut(rng):
    for _ in range(10):
        net, _ = make_random_network(rng, max_n=6, allow_st_arc=False)
        hn = network_as_hnetwork(net)
        for cut in all_cuts(net):
            cap, point = hcut_capacity(hn, hcut_from_graph_cut(net, cut))
            assert cap == cut_capacity(net, cut)
            assert hdual_violations(hn, point) == []


def test_leaf_trivia():
    single = OrientedComplex(2, [(1, 2, 3)])
    assert is_leaf(single, 0, 0)
    sharing_vertex = OrientedComplex(2, [(1, 2, 3), (3, 4, 5)])
    assert is_leaf(sharing_vertex, 0, 1)


def test_leaf_against_definition(rng):
    for _ in range(30):
        nv = rng.randint(4, 6)
        pool = list(combinations(range(1, nv + 1), 3))
        k = rng.randint(1, min(6, len(pool)))
        facets = rng.sample(pool, k)
        cx = OrientedComplex(2, facets)
        for f in range(k):
            for fp in range(k):
                assert is_leaf(cx, f, fp) == leaf_by_definition(facets, f, fp)


def test_simplicial_tree_fixtures(tetra):
    assert is_simplicial_tree(OrientedComplex(2, [(1, 2, 3)]))
    assert is_simplicial_tree(OrientedComplex(2, [(1, 2, 3), (2, 3, 4)]))
    # the boundary sphere of a 3-simplex has no leaf in its full facet set
    assert not is_simplicial_tree(tetra)


def test_tree_tests_refuse_more_than_twelve_facets():
    triangles = list(combinations(range(1, 7), 3))
    assert not is_simplicial_tree(OrientedComplex(2, triangles[:12]))
    thirteen = OrientedComplex(2, triangles[:13])
    for test in (is_simplicial_tree, tu_certificate_via_tree):
        with pytest.raises(BudgetExceeded, match="^13 facets exceed the .* budget of 12$"):
            test(thirteen)


def test_tree_certificate(tetra, double):
    already_tree = OrientedComplex(2, [(1, 2, 3), (2, 3, 4)])
    assert tu_certificate_via_tree(already_tree) == ()
    ring = OrientedComplex(2, [(1, 2, 3), (3, 4, 5), (5, 6, 1)])
    cert = tu_certificate_via_tree(ring)
    assert cert is not None and len(cert) == 1
    assert is_totally_unimodular(boundary_matrix(ring)).is_tu
    # spheres admit no certificate yet are TU: the test is one-directional
    assert tu_certificate_via_tree(tetra) is None
    assert tu_certificate_via_tree(double) is None


def test_certificate_implies_tu(rng):
    for _ in range(30):
        nv = rng.randint(4, 6)
        pool = list(combinations(range(1, nv + 1), 3))
        facets = rng.sample(pool, rng.randint(1, min(7, len(pool))))
        cx = OrientedComplex(2, facets)
        if tu_certificate_via_tree(cx) is not None:
            assert is_totally_unimodular(boundary_matrix(cx)).is_tu


def test_hnet_round_trip(tetra_net, double_net, rng):
    for hnet in (tetra_net, double_net, random_hnetwork(rng)):
        assert read_hnet(write_hnet(hnet)) == hnet


def test_probe_runs_and_reverifies():
    report = conjecture_probe(99, 40)
    assert len(report.records) == 40
    text = write_probe_report(report)
    assert text.splitlines()[-1].startswith("end discrepancies")
    # every serialized instance reproduces its recorded values
    for record in report.records[:5]:
        hnet = read_hnet(record.hnet_text)
        assert hmaxflow_lp(hnet).value == record.lp_value
        aug = hmaxflow_augment(hnet)
        assert aug.value == record.fixpoint_value
        assert len(aug.trace) == record.augmentations
    embedded = probe_instances(text)
    assert set(embedded) == {r.trial for r in report.discrepancies()}


def test_probe_deterministic():
    a = write_probe_report(conjecture_probe(7, 15))
    b = write_probe_report(conjecture_probe(7, 15))
    assert a == b


def test_probe_report_is_pinned():
    # pins the generator's draws, its source-condition flips and both
    # solvers' values: none of them may move a byte of the report
    text = write_probe_report(conjecture_probe(7, 200))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "987a231a4a31d057e8f49504198cc5765ff9722490792635504ee89d96d49c46"


def test_flow_sums_stay_cycles(rng):
    # the sum of two feasible flows keeps non-negativity and the cycle
    # property (capacity feasibility is not claimed)
    for _ in range(10):
        hnet = random_hnetwork(rng)
        f1 = hmaxflow_lp(hnet).flow.values
        f2 = hmaxflow_augment(hnet).flow.values
        total = [a + b for a, b in zip(f1, f2)]
        assert all(x >= 0 for x in total)
        ok, _ = is_weighted_cycle(hnet.complex, total)
        assert ok


def test_rational_capacities(tetra):
    hnet = build_hnetwork(tetra, 3, {0: Fraction(1, 2), 1: Fraction(3, 4), 2: Fraction(2, 3)})
    lp_res = hmaxflow_lp(hnet)
    aug_res = hmaxflow_augment(hnet)
    assert lp_res.value == aug_res.value == Fraction(1, 2)
    assert hflow_violations(hnet, *scaled(aug_res.flow.values)) == []


def test_augment_with_mixed_rational_capacities(rng):
    for _ in range(10):
        hnet = random_hnetwork(rng)
        caps = {j: Fraction(rng.randint(0, 12), rng.randint(1, 4))
                for j in range(hnet.facet_count()) if j != hnet.t_index}
        hnet = build_hnetwork(hnet.complex, hnet.t_index, caps)
        lp_res = hmaxflow_lp(hnet)
        aug_res = hmaxflow_augment(hnet)
        assert aug_res.value == lp_res.value
        assert hflow_violations(hnet, *scaled(aug_res.flow.values)) == []


def test_triple_glued_spheres():
    # three coherently-oriented sphere boundaries sharing one source
    # triangle: the optimum is the sum of the per-sphere bottlenecks,
    # reached with one augmenting cycle per sphere
    facets = [(2, 3, 4), (1, 2, 4), (1, 4, 3),
              (2, 3, 5), (1, 2, 5), (1, 5, 3),
              (2, 3, 6), (1, 2, 6), (1, 6, 3),
              (1, 3, 2)]
    cx = OrientedComplex(2, facets)
    ok, _ = check_source_condition(cx, 9)
    assert ok
    unit = build_hnetwork(cx, 9, {j: 1 for j in range(9)})
    assert hmaxflow_lp(unit).value == 3
    aug = hmaxflow_augment(unit)
    assert aug.value == 3 and len(aug.trace) == 3
    caps = {0: 2, 1: 2, 2: 2, 3: 5, 4: 1, 5: 3, 6: 3, 7: 3, 8: 3}
    uneven = build_hnetwork(cx, 9, {j: Fraction(c) for j, c in caps.items()})
    assert hmaxflow_lp(uneven).value == 6  # 2 + 1 + 3, one bottleneck per sphere
    aug = hmaxflow_augment(uneven)
    assert aug.value == 6 and len(aug.trace) == 3


def test_min_cut_capacity_attained_on_sphere_fixtures(tetra_net, double_net):
    # full partition enumeration: the cheapest cut meets the optimum on
    # both sphere fixtures (whether that holds in general is open)
    for hnet in (tetra_net, double_net):
        best = None
        for cut in all_hcuts(hnet.complex, budget=1 << 16):
            cap, _ = hcut_capacity(hnet, cut)
            if not is_unbounded(cap) and (best is None or cap < best):
                best = cap
        assert best == hmaxflow_lp(hnet).value


def test_augmentation_fixpoint_is_the_lp_optimum():
    # find_augmenting_cycle admits any non-negative combination of residual
    # copies, so below the optimum x* the direction x* - x is always
    # feasible for its LP: a cycle exists at x*/2 and none at x*
    positive = 0
    for i in range(60):
        hnet = random_hnetwork(random.Random(f"vacuity:{i}"))
        optimum = hmaxflow_lp(hnet)
        if optimum.value == 0:
            continue
        positive += 1
        x_star, scale = scaled(optimum.flow.values)
        cycle = find_augmenting_cycle(hnet, x_star, 2 * scale)  # x*/2
        assert cycle is not None and (hnet.t_index, 1) in {(j, d) for j, d, _ in cycle.terms}
        assert find_augmenting_cycle(hnet, x_star, scale) is None
    assert positive >= 10


def test_instrumented_augmentation_raises_typed_error(monkeypatch, tetra_net):
    import flowkit.simplicial

    monkeypatch.setattr(flowkit.simplicial, "hflow_violations", lambda *args: ["fake"])
    with pytest.raises(InvariantViolation) as err:
        hmaxflow_augment(tetra_net, instrumented=True)
    assert (err.value.invariant, err.value.step) == ("hflow", "augmentation 1")
