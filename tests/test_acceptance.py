"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a `ACCEPTANCE <k> ... PASS` line on success (visible
with `pytest -s`); a failure shows up as an ordinary pytest failure.
Complexity-guard constants are fixed here, before any run:

    C_PUSH_RELABEL = 2      : operations <= 2 * n^2 * m
    C_PSEUDOFLOW   = 2      : iterations <= 2 * n * min(M+, M-)
"""

import random
import time
from fractions import Fraction

import pytest

from flowkit.apps import (
    BipartiteGraph,
    PerfectMatching,
    PixelImage,
    max_disjoint_chains,
    perfect_matching,
    segment_image,
)
from flowkit.decompose import decompose, min_cut_from_flow
from flowkit.lp import (
    build_dual,
    build_primal,
    certify,
    cut_from_dual,
    dual_from_cut,
    dual_objective,
    dual_point,
    dual_violations,
    is_totally_unimodular,
    simplex_solve,
)
from flowkit.network import build_network, cut_capacity
from flowkit.simplicial import (
    OrientedComplex,
    boundary_matrix,
    build_hnetwork,
    check_source_condition,
    conjecture_probe,
    hmaxflow_augment,
    hmaxflow_lp,
    network_as_hnetwork,
    read_hnet,
)
from flowkit.solvers import edmonds_karp, hochbaum_maxflow, push_relabel
from oracles import (
    all_cuts,
    best_segmentation_by_enumeration,
    brute_min_cut,
    chain_is_maximal,
    ghouila_houri_tu,
    matching_exists_by_enumeration,
    max_disjoint_chains_by_enumeration,
    random_bounded_poset,
    uniform_penalty,
    random_network_spec,
)
from test_simplicial import (
    DOUBLE_FACETS,
    DOUBLE_MATRIX,
    TETRA_FACETS,
    TETRA_FACE_ORDER,
    TETRA_MATRIX,
    rows_in_order,
)

C_PUSH_RELABEL = 2
C_PSEUDOFLOW = 2
BATCH_SEED = 20120424
BATCH_SIZE = 200


class Batch:
    """The shared 200-instance corpus with all three solver runs."""

    def __init__(self):
        rng = random.Random(BATCH_SEED)
        self.instances = []
        start = time.monotonic()
        for _ in range(BATCH_SIZE):
            n, s, t, arcs = random_network_spec(rng, max_n=8, max_cap=10)
            net = build_network(n, s, t, arcs)
            record = {
                "net": net,
                "arcs": arcs,
                "brute": brute_min_cut(n, s, t, arcs),
                "ek": edmonds_karp(net),
                "pr": push_relabel(net),
                "hoch": hochbaum_maxflow(net),
            }
            self.instances.append(record)
        self.elapsed = time.monotonic() - start


@pytest.fixture(scope="module")
def batch():
    return Batch()


def test_criterion_1_cross_solver_agreement(batch):
    for rec in batch.instances:
        assert rec["ek"].value == rec["pr"].value == rec["hoch"].value == rec["brute"]
    assert batch.elapsed < 60.0
    print(f"\nACCEPTANCE 1 cross-solver agreement on {BATCH_SIZE} instances "
          f"({batch.elapsed:.1f}s): PASS")


def test_criterion_2_maxflow_equals_mincut(batch):
    for rec in batch.instances:
        cut = min_cut_from_flow(rec["net"], rec["ek"].scaled)
        assert cut_capacity(rec["net"], cut) == rec["ek"].value
    print("\nACCEPTANCE 2 min-cut extraction matches the flow value exactly: PASS")


def test_criterion_3_lp_duality():
    rng = random.Random(BATCH_SEED + 3)
    for _ in range(50):
        n, s, t, arcs = random_network_spec(rng, max_n=6)
        net = build_network(n, s, t, arcs)
        combinatorial = edmonds_karp(net).value
        primal = build_primal(net)
        p = simplex_solve(primal)
        d = simplex_solve(build_dual(primal))
        assert p.status == d.status == "optimal"
        assert p.value == combinatorial == d.value
    print("\nACCEPTANCE 3 primal and dual optima equal the combinatorial value "
          "on 50 instances: PASS")


def test_criterion_4_cut_dual_round_trips():
    rng = random.Random(BATCH_SEED + 4)
    fixtures = [build_network(2, 1, 2, [(1, 2, 5)]),
                build_network(4, 1, 4, [(1, 2, 3), (1, 3, 2), (2, 4, 2),
                                        (3, 4, 3), (2, 3, 1)])]
    for _ in range(8):
        n, s, t, arcs = random_network_spec(rng, max_n=6)
        fixtures.append(build_network(n, s, t, arcs))
    for net in fixtures:
        for cut in all_cuts(net):
            point = dual_from_cut(net, cut)
            assert dual_violations(net, point) == []
            assert dual_objective(net, point) == cut_capacity(net, cut)
        res = simplex_solve(build_dual(build_primal(net)))
        assert res.status == "optimal"
        point = dual_point(net, res.point)
        assert dual_violations(net, point) == []
        assert dual_objective(net, point) == res.value
        cut = cut_from_dual(net, point)
        assert cut_capacity(net, cut) == edmonds_karp(net).value
    # the primal's own multipliers come in build_dual's variable order, so
    # one solve of the primal gives the dual point and the cut
    for _ in range(300):
        n, s, t, arcs = random_network_spec(rng, max_n=7)
        fixtures.append(build_network(n, s, t, arcs))
    for net in fixtures:
        primal = build_primal(net)
        res = simplex_solve(primal)
        value = edmonds_karp(net).value
        assert certify(primal, res) == res.value == value
        point = dual_point(net, res.dual)
        assert dual_violations(net, point) == []
        assert dual_objective(net, point) == value
        assert cut_capacity(net, cut_from_dual(net, point)) == value
    print("\nACCEPTANCE 4 cut->dual feasibility/objective and dual->cut recovery "
          "exact on all fixtures, from the dual program and from the primal's "
          "certified multipliers: PASS")


def test_criterion_5_integrality(batch):
    for rec in batch.instances:
        for key in ("ek", "pr", "hoch"):
            flow = rec[key].scaled
            assert all(x % flow.scale == 0 for _, x in flow.pairs)
    print("\nACCEPTANCE 5 integer capacities give integer flows on every arc, "
          "all solvers: PASS")


def test_criterion_6_flow_decomposition(batch):
    for rec in batch.instances:
        net = rec["net"]
        flow = rec["ek"].scaled
        comps = decompose(net, flow)
        assert len(comps) <= net.m
        total = {}
        for comp in comps:
            for (u, v) in zip(comp.vertices, comp.vertices[1:]):
                total[(u, v)] = total.get((u, v), Fraction(0)) + comp.amount
        assert total == {a: Fraction(x, flow.scale) for a, x in flow.pairs}
    print("\nACCEPTANCE 6 decomposition re-sums exactly with at most m components: PASS")


def test_criterion_7_complexity_guards(batch):
    for rec in batch.instances:
        net = rec["net"]
        ops = rec["pr"].stats["pushes"] + rec["pr"].stats["relabels"]
        assert ops <= C_PUSH_RELABEL * net.n * net.n * net.m
        m_plus = sum((net.capacity(net.source, v)
                      for v in net.out_neighbors(net.source)), Fraction(0))
        m_minus = sum((net.capacity(v, net.sink)
                       for v in net.in_neighbors(net.sink)), Fraction(0))
        assert rec["hoch"].stats["iterations"] <= C_PSEUDOFLOW * net.n * min(m_plus, m_minus)
    print(f"\nACCEPTANCE 7 operation counts within {C_PUSH_RELABEL}*n^2*m and "
          f"{C_PSEUDOFLOW}*n*min(M+,M-): PASS")


def test_criterion_8_hall_matchings():
    rng = random.Random(BATCH_SEED + 8)
    for _ in range(100):
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < 0.45]
        g = BipartiteGraph(n, edges)
        res = perfect_matching(g)
        assert isinstance(res, PerfectMatching) == matching_exists_by_enumeration(g)
        if isinstance(res, PerfectMatching):
            assert sorted(i for i, _ in res.pairs) == list(range(1, n + 1))
            assert sorted(j for _, j in res.pairs) == list(range(1, n + 1))
            assert all(pair in set(g.edges) for pair in res.pairs)
        else:
            assert len({j for (i, j) in g.edges if i in res.subset}) < len(res.subset)
    print("\nACCEPTANCE 8 matching existence matches n! enumeration on 100 graphs, "
          "violations certified: PASS")


def test_criterion_9_poset_chains():
    rng = random.Random(BATCH_SEED + 9)
    for _ in range(50):
        p = random_bounded_poset(rng)
        chains = max_disjoint_chains(p)
        assert len(chains) == max_disjoint_chains_by_enumeration(p)
        used = set()
        for chain in chains:
            assert chain_is_maximal(p, chain)
            for edge in zip(chain, chain[1:]):
                assert edge not in used
                used.add(edge)
    print("\nACCEPTANCE 9 chain counts equal the exhaustive maximum on 50 posets: PASS")


def test_criterion_10_segmentation():
    rng = random.Random(BATCH_SEED + 10)
    for _ in range(50):
        fg = {(x, y): Fraction(rng.randint(0, 10), 10) for y in range(3) for x in range(3)}
        bg = {(x, y): Fraction(rng.randint(0, 10), 10) for y in range(3) for x in range(3)}
        pen = {pair: Fraction(rng.randint(0, 3), 10) for pair in uniform_penalty(3, 3, 0)}
        img = PixelImage(3, 3, fg, bg, pen)
        seg = segment_image(img)
        assert seg.score == best_segmentation_by_enumeration(fg, bg, pen)
        assert seg.score + seg.cost == seg.total_mass
    print("\nACCEPTANCE 10 segmentation optimal over 2^9 partitions with exact "
          "certificate identity on 50 images: PASS")


def test_criterion_11_tetrahedron_fixture():
    tetra = OrientedComplex(2, TETRA_FACETS)
    assert rows_in_order(tetra, TETRA_FACE_ORDER) == TETRA_MATRIX
    ok, _ = check_source_condition(tetra, 3)
    assert ok
    assert is_totally_unimodular(TETRA_MATRIX).is_tu
    print("\nACCEPTANCE 11 tetrahedron boundary matrix bit-exact, source condition "
          "holds, TU: PASS")


def test_criterion_12_double_tetrahedron_fixture():
    double = OrientedComplex(2, DOUBLE_FACETS)
    b = boundary_matrix(double)
    assert len(b) == 9 and len(b[0]) == 7
    assert is_totally_unimodular(b).is_tu
    assert is_totally_unimodular(DOUBLE_MATRIX).is_tu
    hnet = build_hnetwork(double, 6, {j: 1 for j in range(6)})
    lp_res = hmaxflow_lp(hnet)
    aug_res = hmaxflow_augment(hnet)
    assert lp_res.value == aug_res.value == 2
    assert len(aug_res.trace) == 2
    print("\nACCEPTANCE 12 double tetrahedron 9x7, TU, value 2 via two augmenting "
          "cycles: PASS")


def test_criterion_13_dimension_one_reduction():
    rng = random.Random(BATCH_SEED + 13)
    for _ in range(50):
        n, s, t, arcs = random_network_spec(rng, max_n=7, allow_st_arc=False)
        net = build_network(n, s, t, arcs)
        hn = network_as_hnetwork(net)
        assert hmaxflow_lp(hn).value == edmonds_karp(net).value
    print("\nACCEPTANCE 13 one-dimensional encoding reproduces graph maxflow on "
          "50 instances: PASS")


def test_criterion_14_conjecture_probe():
    report = conjecture_probe(BATCH_SEED + 14, 500)
    assert len(report.records) == 500
    for record in report.discrepancies():
        hnet = read_hnet(record.hnet_text)
        assert hmaxflow_lp(hnet).value == record.lp_value
        assert hmaxflow_augment(hnet).value == record.fixpoint_value
    # the probe reports instances; it proves nothing in either direction
    print(f"\nACCEPTANCE 14 probe ran 500 instances to completion, "
          f"{len(report.discrepancies())} discrepancies, all re-verified: PASS")


def test_criterion_15_tu_oracle_agreement():
    rng = random.Random(BATCH_SEED + 15)
    for _ in range(100):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.choice((-1, 0, 1)) for _ in range(nc)] for _ in range(nr)]
        assert is_totally_unimodular(m).is_tu == ghouila_houri_tu(m)
    assert is_totally_unimodular(TETRA_MATRIX).is_tu == ghouila_houri_tu(TETRA_MATRIX)
    assert is_totally_unimodular(DOUBLE_MATRIX).is_tu == ghouila_houri_tu(DOUBLE_MATRIX)
    print("\nACCEPTANCE 15 determinant test agrees with the signing criterion on "
          "100 random matrices and both fixtures: PASS")
