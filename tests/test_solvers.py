"""The three maxflow algorithms and the blocking-cut machinery."""

import hashlib
import inspect
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import make_random_network, seeded_networks
from flowkit import solvers
from flowkit.apps import (
    BipartiteGraph,
    PerfectMatching,
    _greedy_start,
    _matching_network,
    _segment_network,
    _segment_start,
    grid_neighbor_pairs,
    image_from_pgm,
    perfect_matching,
)
from flowkit.decompose import min_cut_from_flow
from flowkit.lp import build_dual, build_primal, simplex_solve
from flowkit.network import (
    InvalidFlow,
    NetworkError,
    ResidualGraph,
    ScaledFlow,
    Violation,
    build_network,
    cut_capacity,
    validate,
)
from flowkit.solvers import (
    ROOT,
    InvariantViolation,
    NormalizedTree,
    WeightedGraph,
    build_gst,
    edmonds_karp,
    hochbaum_maxflow,
    labeling_violations,
    max_blocking_cut,
    normalized_tree_violations,
    pseudoflow_labeling_violations,
    push_relabel,
)
from oracles import (
    brute_max_surplus,
    brute_min_cut,
    brute_min_cut_sides,
    capacities,
    edmonds_karp_fresh,
    scaled_flow,
)

SOLVERS = [edmonds_karp, push_relabel, hochbaum_maxflow]


@pytest.mark.parametrize("solver", SOLVERS)
def test_single_arc(solver, single_arc):
    result = solver(single_arc)
    assert result.value == 5
    assert validate(single_arc, result.scaled, "flow") == []


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
        flow = solver(net).scaled
        assert all(x % flow.scale == 0 for _, x in flow.pairs)


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
            assert validate(net, result.scaled, "flow") == []


def test_cuts_agree_on_rational_networks_with_antiparallel_pairs(rng):
    # every solver must reach Edmonds-Karp's value and its minimum cut, the
    # source side reached in the final residual, on subdivided pairs too
    for _ in range(60):
        n = rng.randint(2, 20)
        arcs = [(u, v, Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 7])))
                for u in range(1, n) for v in range(2, n + 1)
                if u != v and rng.random() < 0.25]
        net = build_network(n, 1, n, arcs, allow_antiparallel=True)
        want = edmonds_karp(net)
        for solver in (push_relabel, hochbaum_maxflow):
            result = solver(net)
            assert (result.value, result.cut) == (want.value, want.cut), solver.__name__


# (label, arcs on 1..n with s = 1 and t = n, the fresh searches' paths)
HAND_BUILT = [
    # the first path's bottleneck is its first arc; the second path
    # crosses (2, 3) backwards to rediscover 2
    ("bottleneck first", 5, [(1, 2, 1), (2, 3, 2), (3, 5, 2), (1, 4, 2), (4, 3, 1)],
     [(1, 2, 3, 5), (1, 4, 3, 5)]),
    # the bottleneck is the arc into t; the next path leaves row 2 later
    ("bottleneck into t", 4, [(1, 2, 3), (2, 3, 3), (2, 4, 1), (3, 4, 2)],
     [(1, 2, 4), (1, 2, 3, 4)]),
    # (2, 3) and (3, 6) tie for the bottleneck; the search must resume at
    # (2, 3), the first of them, and reach 3 again through 4
    ("two tied arcs", 6, [(1, 2, 2), (2, 3, 1), (3, 6, 1), (1, 4, 1), (4, 3, 1),
                          (3, 5, 1), (5, 6, 1)],
     [(1, 2, 3, 6), (1, 4, 3, 5, 6)]),
]


class _Paths(list):
    """Augmenting paths in call order; past `most` of them, augmenting fails,
    so a run that makes more augmentations than it should stops.
    `saturated` holds the index of the first arc each one saturated."""

    most = None

    def __init__(self):
        super().__init__()
        self.saturated = []

    def clear(self):
        super().clear()
        self.saturated.clear()


@pytest.fixture
def augmenting_paths(monkeypatch):
    """The paths `ResidualGraph.augment` is called with, in order."""
    paths = _Paths()
    augment = ResidualGraph.augment

    def recording(self, path, limit=None):
        if paths.most is not None and len(paths) == paths.most:
            raise AssertionError(f"more than {paths.most} augmentations")
        paths.append(tuple(path))
        amount, first = augment(self, path, limit)
        paths.saturated.append(first)
        return amount, first

    monkeypatch.setattr(ResidualGraph, "augment", recording)
    return paths


def _same_run_as_fresh_searches(net, paths):
    """Edmonds-Karp against the oracle that searches afresh every round
    with the textbook search: the same paths, flow, value, augmentations
    and cut.  Returns the paths and the first arc each one saturated."""
    paths.clear()
    paths.most = None
    flow, value, augmentations, cut = edmonds_karp_fresh(net)
    fresh = list(paths)
    paths.clear()
    paths.most = len(fresh)
    result = edmonds_karp(net)
    assert paths == fresh
    assert result.scaled == flow and result.value == value and result.cut == cut
    assert result.stats["augmentations"] == augmentations == len(fresh)
    return fresh, paths.saturated


def _saturation_case(path, i):
    """Which arc of an augmenting path saturated first, as the resume rule
    tells the cases apart."""
    if len(path) == 2:
        return "s-t arc"
    if i == len(path) - 2:
        return "arc into t"
    return "first arc" if i == 0 else "inner arc"


def test_resumed_searches_find_the_paths_of_fresh_ones(augmenting_paths):
    cases = Counter()
    for label, net in seeded_networks():
        try:
            fresh, saturated = _same_run_as_fresh_searches(net, augmenting_paths)
        except AssertionError as exc:
            raise AssertionError(label) from exc
        cases.update(map(_saturation_case, fresh, saturated))
    # the comparison is not vacuous: every case of the resume rule occurs
    assert sum(cases.values()) > 3000
    assert min(cases.values()) > 200 and len(cases) == 4, cases


@pytest.mark.parametrize("label, n, arcs, want", HAND_BUILT, ids=[h[0] for h in HAND_BUILT])
def test_resumed_searches_on_hand_built_bottlenecks(augmenting_paths, label, n, arcs, want):
    assert _same_run_as_fresh_searches(build_network(n, 1, n, arcs),
                                       augmenting_paths)[0] == want


def layered_networks(count=800):
    """`count` seeded layered networks: s, 6 to 12 layers of 4 to 7
    vertices, t.  s feeds every vertex of the first layer and the last
    layer feeds t, at 5 to 30; each vertex has arcs to 2 to 4 vertices of
    the next layer, at 1 to 9.  Every other network has integer
    capacities, the rest coprime-rational ones over 7, 11, ..., 23."""
    for seed in range(count):
        rng = random.Random(seed)
        layers, width = rng.randint(6, 12), rng.randint(4, 7)
        rational = seed % 2 == 1

        def capacity(lo, hi):
            if not rational:
                return rng.randint(lo, hi)
            q = rng.choice([7, 11, 13, 17, 19, 23])
            return Fraction(rng.randint(lo * q, hi * q), q)

        s, t = 1, layers * width + 2
        first, last = range(2, 2 + width), range(t - width, t)
        arcs = [(s, v, capacity(5, 30)) for v in first]
        for u in range(2, t - width):
            base = 2 + (u - 2) // width * width + width
            arcs += [(u, base + k, capacity(1, 9))
                     for k in sorted(rng.sample(range(width), rng.randint(2, 4)))]
        arcs += [(v, t, capacity(5, 30)) for v in last]
        yield f"{'rational' if rational else 'integer'} seed {seed}", build_network(t, s, t, arcs)


def test_phases_find_the_paths_of_fresh_searches_on_layered_networks(augmenting_paths):
    # a phase holds the paths of one length, as lengths only grow; after an
    # augmentation cut back to path[i], i > 0, that vertex died unless the
    # next path of the phase keeps path[: i + 1]
    cases = Counter()
    for label, net in layered_networks():
        try:
            fresh, saturated = _same_run_as_fresh_searches(net, augmenting_paths)
        except AssertionError as exc:
            raise AssertionError(label) from exc
        lengths = Counter(map(len, fresh))
        cases["phases with two or more paths"] += sum(k >= 2 for k in lengths.values())
        cases["runs with three or more phases"] += len(lengths) >= 3
        for path, i, after in zip(fresh, saturated, fresh[1:] + [()]):
            if i:
                cases["walks cut back to an inner vertex"] += 1
                if len(after) != len(path) or after[:i + 1] != path[:i + 1]:
                    cases["dead ends"] += 1
    # the comparison is not vacuous: each case occurs at least 200 times
    assert min(cases.values()) >= 200 and len(cases) == 4, cases


def _first_phase_skipped(net, start, length, paths):
    """Edmonds-Karp from `start` against its run from the zero flow, whose
    paths with `length` arcs come first: the run from `start` makes the
    zero start's later paths, and only those, and ends in the same flow,
    value and cut.  Returns the number of paths it skipped."""
    paths.clear()
    zero = edmonds_karp(net)
    every = list(paths)
    skipped = sum(len(p) == length + 1 for p in every)
    assert all(len(p) == length + 1 for p in every[:skipped])
    paths.clear()
    started = edmonds_karp(net, flow=start)
    assert paths == every[skipped:]
    assert (started.scaled, started.value, started.cut) == (zero.scaled, zero.value, zero.cut)
    assert zero.stats["augmentations"] == started.stats["augmentations"] + skipped
    return skipped


def bipartite_graphs():
    """Two seeded graphs per n = 0, 4, ..., 80, about four edges per left:
    one with a perfect matching planted, and one that violates Hall's
    condition, where k lefts see only k - 1 rights."""
    for n in range(0, 81, 4):
        rng = random.Random(n)
        planted = list(range(1, n + 1))
        rng.shuffle(planted)
        edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if j == planted[i - 1] or rng.random() < 4 / n}
        yield True, BipartiteGraph(n, sorted(edges))
        if n:
            k = rng.randint(1, min(n, 6))
            crowded, few = rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k - 1)
            yield False, BipartiteGraph(n, sorted((i, j) for (i, j) in edges
                                                  if i not in crowded or j in few))


def test_greedy_matching_is_the_first_phase_of_edmonds_karp(augmenting_paths):
    skipped = 0
    for perfect, g in bipartite_graphs():
        net = _matching_network(g)
        skipped += _first_phase_skipped(net, _greedy_start(g), 3, augmenting_paths)
        assert isinstance(perfect_matching(g), PerfectMatching) == perfect, g.n
    assert skipped > 1000


def test_segment_start_is_the_first_phase_of_edmonds_karp(augmenting_paths):
    rng = random.Random(31)
    skipped = 0
    for (width, height) in [(1, 1), (1, 16), (16, 1), (2, 3), (5, 4), (8, 8), (11, 7),
                            (16, 16)]:
        for maxval in (1, 4, 255):
            levels = [rng.choice((0, maxval, rng.randint(0, maxval)))
                      for _ in range(width * height)]
            text = f"P2 {width} {height} {maxval} " + " ".join(map(str, levels))
            img = image_from_pgm(text, rng.choice(("0", "1/10", "1/3", "1")))
            paths = _first_phase_skipped(_segment_network(img), _segment_start(img), 2,
                                         augmenting_paths)
            # a pixel at 0 or at maxval has no room on one of its two arcs
            assert paths == sum(0 < g < maxval for g in levels)
            skipped += paths
    assert skipped > 200


def test_edmonds_karp_from_a_maximum_flow_makes_no_augmentation():
    for label, net in seeded_networks(200):
        for solver in (edmonds_karp, push_relabel):
            best = solver(net)
            again = edmonds_karp(net, instrumented=True, flow=best.scaled)
            assert again.stats["augmentations"] == 0, label
            assert (again.scaled, again.value, again.cut) == (best.scaled, best.value, best.cut)


def test_edmonds_karp_refuses_an_invalid_start(g1):
    # arc (1, 2) has capacity 3, and 2 keeps the 4 units it gets
    start = ScaledFlow((((1, 2), 4),), 1)
    with pytest.raises(InvariantViolation) as err:
        edmonds_karp(g1, instrumented=True, flow=start)
    assert (err.value.invariant, err.value.step) == ("flow", "start")
    with pytest.raises(InvariantViolation) as err:
        edmonds_karp(g1, flow=start)
    assert err.value.invariant == "certificate"


@pytest.mark.parametrize("pair", [(1, 4), (2, 1)], ids=["no arc", "reverse of an arc"])
def test_edmonds_karp_refuses_a_start_off_the_arcs(g1, pair):
    # the violation `validate` reports first, raised before any search
    start = ScaledFlow(((pair, 1),), 2)
    want = [Violation("capacity", pair, Fraction(1, 2))]
    assert validate(g1, start, "flow")[:1] == want
    with pytest.raises(InvalidFlow) as err:
        edmonds_karp(g1, flow=start)
    assert err.value.violations == want


def _pinned(result):
    return (result.value, sorted(result.flow.raw.items()),
            sorted(result.cut.source_side), sorted(result.stats.items()))


# sha256 of the push-relabel and pseudoflow results on `seeded_networks()`:
# flows, counters, and the cuts of the certificate's forward search from s
PINNED_PR_HOCH = "8af9556aa9e550ae5e69484533f7b40cc662e112fc04dc811d82847064b8dc5c"


def test_push_relabel_and_pseudoflow_results_are_unchanged():
    # the value and cut must be Edmonds-Karp's; the flows and counters, the
    # recorded ones
    results = []
    for label, net in seeded_networks():
        want = edmonds_karp(net)
        for solver in (push_relabel, hochbaum_maxflow):
            result = solver(net)
            assert (result.value, result.cut) == (want.value, want.cut), (label, solver)
            results.append(_pinned(result))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == PINNED_PR_HOCH


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
        assert validate(net, result.scaled, "flow") == []
        assert cut_capacity(net, min_cut_from_flow(net, result.scaled)) == want
    primal = build_primal(net)
    assert simplex_solve(primal).value == simplex_solve(build_dual(primal)).value == want


def test_certificate_rejects_a_doctored_flow_and_a_doctored_cut(monkeypatch):
    # max flow 11/6; the minimum cut {1, 2} is the reached set, at scale 6
    net = build_network(4, 1, 4, [(1, 2, Fraction(3, 2)), (1, 3, 1), (2, 3, Fraction(1, 3)),
                                  (2, 4, Fraction(1, 2)), (3, 4, 2)])
    result = edmonds_karp(net)
    side = result.cut.source_side
    assert side == {1, 2} and result.value == Fraction(11, 6)
    again = solvers._certified(net, ResidualGraph(net, result.scaled), {})
    assert (again.scaled, again.value, again.cut) == (result.scaled, result.value, result.cut)

    res = ResidualGraph(net, result.scaled)
    res.push(1, 2, 1)  # one more unit of 1/6 into vertex 2
    with pytest.raises(InvariantViolation) as err:
        solvers._certified(net, res, {})
    assert err.value.invariant == "certificate"
    assert ("conservation", 2) in err.value.violations

    # a search that reaches {1} alone: the cut it gives is not minimal
    monkeypatch.setattr(ResidualGraph, "search", lambda self, origin, target: (None, [1]))
    with pytest.raises(InvariantViolation) as err:
        solvers._certified(net, ResidualGraph(net, result.scaled), {})
    assert err.value.invariant == "certificate"
    assert err.value.violations == [("value_is_not_cut_capacity",
                                     (Fraction(11, 6), Fraction(5, 2)))]


def test_push_relabel_instrumented_invariants(rng):
    # every push/relabel re-checks the preflow and labeling internally
    for _ in range(8):
        net, _ = make_random_network(rng, max_n=6)
        result = push_relabel(net, instrumented=True)
        labels = result.debug["labels"]
        assert labeling_violations(ResidualGraph(net, result.scaled), labels) == []


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


def segmentation_network(side):
    """The network of a side x side segmentation: fg(p) = k/20 with k drawn
    from Random(side), bg(p) = 1 - fg(p), penalty 1/10 on every
    4-neighbour pair, each antiparallel pair subdivided."""
    rng = random.Random(side)
    s, t = side * side + 1, side * side + 2
    arcs = []
    for v in range(1, side * side + 1):
        fg = Fraction(rng.randint(0, 20), 20)
        arcs += [(s, v, fg), (v, t, 1 - fg)]
    for (i, j) in grid_neighbor_pairs(side, side):
        arcs += [(i + 1, j + 1, Fraction(1, 10)), (j + 1, i + 1, Fraction(1, 10))]
    return build_network(t, s, t, arcs, allow_antiparallel=True)


def test_heuristics_bound_the_work_on_a_segmentation_network():
    # n = 1218, m = 2432.  Push-relabel without the gap and global-relabel
    # heuristics spends about 315,000 pushes and relabels here; with them,
    # about 4,000.  The lowest-label pseudoflow makes about 800 mergers and
    # 1,200 label increments.
    net = segmentation_network(16)
    pr, hoch = push_relabel(net), hochbaum_maxflow(net)
    assert pr.value == hoch.value == edmonds_karp(net).value
    assert pr.stats["pushes"] + pr.stats["relabels"] <= 10_000
    assert hoch.stats["iterations"] + hoch.stats["relabels"] <= 5_000


def test_edmonds_karp_stops_at_its_work_budget(monkeypatch):
    # an augmentation that pushes nothing leaves the same path forever;
    # n * m = 6 augmentations are allowed, the 7th path raises
    def stuck(self, path, limit=None):
        return 1, 0

    monkeypatch.setattr(ResidualGraph, "augment", stuck)
    net = build_network(3, 1, 3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(InvariantViolation) as info:
        edmonds_karp(net)
    assert info.value.invariant == "work budget" and info.value.step == "augmentation 7"


def test_edmonds_karp_refuses_a_phase_that_finds_no_path(monkeypatch):
    # labels that put s next to t on a path of two arcs admit no s-t walk;
    # without the refusal every phase would find the same labels again
    def too_low(self, d, root, stop=None):
        d[stop] = 1

    monkeypatch.setattr(ResidualGraph, "distances", too_low)
    net = build_network(3, 1, 3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(InvariantViolation) as info:
        edmonds_karp(net)
    assert (info.value.invariant, info.value.step) == ("work budget", "augmentation 1")
    assert info.value.violations == ["a phase found no augmenting path"]


def test_edmonds_karp_stops_at_its_walk_budget():
    # the walk's steps cannot outrun its bound unless the walk itself is
    # broken, so break a copy: a dead end left unmarked is walked into
    # again and again.  The path 1, 2, 4 saturates (2, 4), 2 is a dead end,
    # and 1 re-enters it; 2m + n(k + 2) = 20 steps are allowed with k = 1
    dead = "                d[u] = -1           # dead for the rest of the phase\n"
    source = inspect.getsource(solvers.edmonds_karp)
    assert source.count(dead) == 1
    namespace = dict(vars(solvers))
    exec(compile(source.replace(dead, ""), solvers.__file__, "exec"), namespace)
    net = build_network(4, 1, 4, [(1, 2, 2), (2, 4, 1), (1, 3, 1), (3, 4, 1)])
    assert edmonds_karp(net).stats["augmentations"] == 2
    with pytest.raises(InvariantViolation) as info:
        namespace["edmonds_karp"](net)
    assert (info.value.invariant, info.value.step) == ("work budget", "augmentation 2")
    assert info.value.violations == [
        "more than 20 walk steps in a phase, 2m + n(k + 2) for its k augmentations"]


def test_push_relabel_stops_at_its_work_budget(monkeypatch):
    # a preflow that leaves the source arcs unsaturated: vertex 2 holds 2
    # units it cannot send home, pushes 1 to t and relabels forever;
    # 2n^2 + 2nm + 4n^2m = 102 operations are allowed, the 103rd raises
    monkeypatch.setattr(ResidualGraph, "push", lambda self, u, v, delta: None)
    net = build_network(3, 1, 3, [(1, 2, 2), (2, 3, 1)])
    with pytest.raises(InvariantViolation) as info:
        push_relabel(net)
    assert info.value.invariant == "work budget" and info.value.step == "operation 103"


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
        res = ResidualGraph(work, result.debug["pseudoflow"])
        assert normalized_tree_violations(res, result.debug["final_tree"]) == []
        assert pseudoflow_labeling_violations(res, result.debug["final_tree"],
                                              result.debug["labels"]) == []


def test_instrumented_labels_on_larger_networks(rng):
    # up to 12 vertices, half of the networks in sevenths: large enough for
    # gaps, global relabels and pseudoflow parts of several vertices
    from flowkit.solvers import _reverse_network

    for i in range(20):
        net, arcs = make_random_network(rng, max_n=12)
        if i % 2:
            net = build_network(net.n, net.source, net.sink,
                                [(u, v, Fraction(c, 7)) for (u, v, c) in arcs])
        pr = push_relabel(net, instrumented=True)
        assert labeling_violations(ResidualGraph(net, pr.scaled), pr.debug["labels"]) == []
        hoch = hochbaum_maxflow(net, instrumented=True)
        work = _reverse_network(net) if hoch.debug["reversed"] else net
        assert pseudoflow_labeling_violations(ResidualGraph(work, hoch.debug["pseudoflow"]),
                                              hoch.debug["final_tree"],
                                              hoch.debug["labels"]) == []
        assert pr.value == hoch.value == edmonds_karp(net).value


def test_pseudoflow_labeling_check_can_fail(g1):
    # one merger: 2 hangs under 3 and saturates (2, 3), so the only
    # residual arc between internal vertices is (3, 2)
    result = hochbaum_maxflow(g1, instrumented=True)
    tree, res = result.debug["final_tree"], ResidualGraph(g1, result.debug["pseudoflow"])
    assert tree.parent == {2: 3, 3: ROOT} and result.debug["labels"] == {2: 1, 3: 0}
    assert pseudoflow_labeling_violations(res, tree, {2: 1, 3: 1}) == []
    assert pseudoflow_labeling_violations(res, tree, {2: 0, 3: 1}) == [
        ("branch_order", (3, 2))]
    assert pseudoflow_labeling_violations(res, tree, {2: 0, 3: 2}) == [
        ("residual_edge", (3, 2)), ("branch_order", (3, 2))]


def test_normalized_tree_check_can_fail(g1):
    # the zero flow saturates no source or sink arc, and leaves no residual
    # room down the tree edge from 3 to 2
    tree = NormalizedTree({2: 3, 3: ROOT}, {2: Fraction(0), 3: Fraction(0)})
    assert normalized_tree_violations(ResidualGraph(g1), tree) == [
        ("source_arc_not_saturated", (1, 2)), ("source_arc_not_saturated", (1, 3)),
        ("sink_arc_not_saturated", (2, 4)), ("sink_arc_not_saturated", (3, 4)),
        ("downward_residual", (3, 2))]
    # half a unit on (2, 3): partial off the tree, and excesses of 1/2 and
    # -1/2 that only roots may hold, and only as the tree records them
    outer = {(1, 2): 3, (1, 3): 2, (2, 4): 2, (3, 4): 3}
    half = ResidualGraph(g1, scaled_flow({**outer, (2, 3): "1/2"}))
    apart = NormalizedTree({2: ROOT, 3: ROOT}, {2: Fraction(1, 2), 3: Fraction(-1, 2)})
    assert normalized_tree_violations(half, apart) == [("nontree_arc_partial", (2, 3))]
    assert normalized_tree_violations(half, tree) == [
        ("interior_excess", 2), ("root_excess_mismatch", 3)]
    over = ResidualGraph(g1, scaled_flow({**outer, (2, 3): 2}))
    assert ("pseudoflow", "capacity", (2, 3)) in normalized_tree_violations(over, tree)


def test_hochbaum_iteration_bound(rng):
    for _ in range(30):
        net, _ = make_random_network(rng)
        result = hochbaum_maxflow(net)
        caps = list(zip(net.arcs, capacities(net)))
        m_plus = sum(c for (u, _), c in caps if u == net.source)
        m_minus = sum(c for (_, v), c in caps if v == net.sink)
        bound = 2 * net.n * min(m_plus, m_minus)
        assert result.stats["iterations"] <= bound


# -- maximum blocking cut ---------------------------------------------------


@pytest.mark.parametrize("arcs, message", [
    ([((1, 2), 3), ((2, 1), 4)], "antiparallel pair (1,2)/(2,1)"),
    ([((1, 2), 3), ((1, 2), 4)], "repeated arc (1, 2)"),
])
def test_weighted_graph_rejects_arc_lists_it_cannot_keep(arcs, message):
    with pytest.raises(NetworkError, match=re.escape(message)):
        WeightedGraph(2, {1: 1, 2: -1}, arcs)


def test_strong_and_weak_vertices_on_a_deep_tree():
    rng = random.Random(91)
    n = 2000
    label = list(range(1, n + 1))
    rng.shuffle(label)
    parent = {}
    for k in range(n):  # a parent among the last three vertices: long branches
        start = k == 0 or rng.random() < 0.003
        parent[label[k]] = ROOT if start else label[rng.randint(max(0, k - 3), k - 1)]
    excess = {v: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if p == ROOT else Fraction(0)
              for v, p in parent.items()}
    tree = NormalizedTree(parent, excess)

    def branch_root(v):
        depth = 0
        while parent[v] != ROOT:
            v, depth = parent[v], depth + 1
        return v, depth

    assert max(branch_root(v)[1] for v in parent) > 100
    strong = sorted(v for v in parent if excess[branch_root(v)[0]] > 0)
    weak = sorted(v for v in parent if excess[branch_root(v)[0]] <= 0)
    assert strong and weak
    assert tree.strong_vertices() == strong


def test_blocking_cut_all_negative_weights():
    g = WeightedGraph(3, {1: -1, 2: -2, 3: -3}, {(1, 2): 1})
    subset = max_blocking_cut(g)
    assert subset == frozenset() and g.surplus(subset) == 0


def test_blocking_cut_single_positive_vertex():
    g = WeightedGraph(1, {1: 3}, {})
    subset = max_blocking_cut(g)
    assert subset == {1} and g.surplus(subset) == 3


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
        subset = max_blocking_cut(g)
        best, argmax = brute_max_surplus(g.weights, g.arcs)
        assert type(subset) is frozenset
        assert subset in argmax and g.surplus(subset) == best


def test_build_gst_trivia():
    g = WeightedGraph(2, {1: 0, 2: 0}, {(1, 2): 3})
    net = build_gst(g)
    assert [v for (u, v) in net.arcs if u == net.source] == []
    assert [u for (u, v) in net.arcs if v == net.sink] == []
    g = WeightedGraph(2, {1: 4, 2: -2}, {})
    net = build_gst(g)
    assert net.arcs == ((3, 1), (2, 4))
    assert capacities(net) == [4, 2]


def test_gst_min_cuts_are_blocking_cuts(rng):
    # {s} + S is a minimum-cut source side exactly when S maximizes surplus
    for _ in range(25):
        g = _random_weighted_graph(rng, max_n=6)
        net = build_gst(g)
        triples = [(u, v, c) for (u, v), c in zip(net.arcs, capacities(net))]
        sides = brute_min_cut_sides(net.n, net.source, net.sink, triples)
        _, argmax = brute_max_surplus(g.weights, g.arcs)
        assert {frozenset(side - {net.source}) for side in sides} == argmax
        assert max_blocking_cut(g) | {net.source} in sides


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
    # the tree whose strong vertices max_blocking_cut returns, checked
    # after every step of the run and at its end
    for _ in range(15):
        g = _random_weighted_graph(rng, max_n=6)
        gst = build_gst(g)
        snapshot, res, _, _ = solvers._pseudoflow_core(gst, instrumented=True)
        tree = snapshot()
        assert normalized_tree_violations(res, tree) == []
        assert max_blocking_cut(g) == frozenset(tree.strong_vertices())
