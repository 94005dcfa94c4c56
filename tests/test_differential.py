"""Differential check against networkx on networks with a few hundred vertices.

networkx is an optional test dependency (the ``test`` extra); the module is
skipped when it is missing.  networkx is given integer capacities only
(rational networks are scaled by the LCM of their denominators), so its
maximum flow value is exact.
"""

import math
import random
from fractions import Fraction

import pytest

from flowkit.decompose import min_cut_from_flow
from flowkit.network import build_network, cut_capacity, validate
from flowkit.solvers import ALGORITHMS
from oracles import scaled_flow

nx = pytest.importorskip("networkx")


def network_spec(seed):
    """n in 150..250, s = 1, t = n: the source feeds and the sink drains an
    eighth of the inner vertices, a path 2 -> 3 -> ... -> n runs through
    every inner vertex, and each inner vertex has two more random out-arcs.
    No antiparallel pairs."""
    rng = random.Random(f"differential:{seed}")
    n = rng.randint(150, 250)
    inner = range(2, n)
    arcs = {}
    for v in rng.sample(inner, n // 8):
        arcs[(1, v)] = rng.randint(1, 30)
    for v in rng.sample(inner, n // 8):
        arcs[(v, n)] = rng.randint(1, 30)
    for u in inner:
        arcs[(u, u + 1)] = rng.randint(1, 30)
        for _ in range(2):
            v = rng.randint(2, n - 1)
            if v != u and (u, v) not in arcs and (v, u) not in arcs:
                arcs[(u, v)] = rng.randint(1, 30)
    return n, arcs


def nx_graph(n, arcs):
    g = nx.DiGraph()
    g.add_nodes_from(range(1, n + 1))
    for (u, v), c in arcs.items():
        g.add_edge(u, v, capacity=c)
    return g


def as_network(n, arcs):
    return build_network(n, 1, n, [(u, v, c) for (u, v), c in arcs.items()])


@pytest.mark.parametrize("seed", range(8))
def test_every_solver_matches_networkx(seed):
    n, arcs = network_spec(seed)
    net = as_network(n, arcs)
    want = nx.maximum_flow_value(nx_graph(n, arcs), 1, n)
    assert want > 0
    for name, solve in ALGORITHMS.items():
        result = solve(net)
        assert result.value == want, name
        assert result.cut == min_cut_from_flow(net, result.scaled), name
        assert cut_capacity(net, result.cut) == want, name


def test_heuristics_bound_the_work():
    # summed over the 8 networks: push-relabel without the gap and
    # global-relabel heuristics spends about 386,000 pushes and relabels,
    # with them about 7,400; the lowest-label pseudoflow about 2,200
    # mergers and 4,200 label increments
    pr_ops = hoch_work = 0
    for seed in range(8):
        net = as_network(*network_spec(seed))
        stats = ALGORITHMS["pr"](net).stats
        pr_ops += stats["pushes"] + stats["relabels"]
        stats = ALGORITHMS["hoch"](net).stats
        hoch_work += stats["iterations"] + stats["relabels"]
    assert pr_ops <= 15_000
    assert hoch_work <= 15_000


DENOMINATORS = (7, 11, 13, 17, 19, 23)


@pytest.mark.parametrize("seed", range(4))
def test_rational_networks_match_networkx_after_scaling(seed):
    # each capacity of network_spec(seed) becomes k/q, q drawn from coprime
    # denominators; networkx sees the capacities times their LCM
    n, arcs = network_spec(seed)
    rng = random.Random(f"differential-rational:{seed}")
    for a, c in arcs.items():
        q = rng.choice(DENOMINATORS)
        arcs[a] = Fraction(c * rng.randint(1, q), q)
    lcm = math.lcm(*(c.denominator for c in arcs.values()))
    net = as_network(n, arcs)
    want = nx.maximum_flow_value(nx_graph(n, {a: int(c * lcm) for a, c in arcs.items()}), 1, n)
    assert want > 0
    for name, solve in ALGORITHMS.items():
        result = solve(net)
        assert result.value * lcm == want, name
        assert result.cut == min_cut_from_flow(net, result.scaled), name
        assert cut_capacity(net, result.cut) * lcm == want, name


def test_min_cut_of_a_networkx_flow():
    n, arcs = network_spec(0)
    net = as_network(n, arcs)
    value, flow_dict = nx.maximum_flow(nx_graph(n, arcs), 1, n)
    flow = scaled_flow({(u, v): x for u, out in flow_dict.items() for v, x in out.items() if x})
    assert validate(net, flow, "flow") == []
    cut = min_cut_from_flow(net, flow)
    assert cut_capacity(net, cut) == value
