import random
from fractions import Fraction

import pytest

from flowkit.network import build_network
from oracles import random_network_spec


@pytest.fixture
def g1():
    """Four-vertex network whose incidence matrix is the 4x5 fixture."""
    return build_network(4, 1, 4, [(1, 2, 3), (1, 3, 2), (2, 4, 2), (3, 4, 3), (2, 3, 1)])


@pytest.fixture
def single_arc():
    return build_network(2, 1, 2, [(1, 2, 5)])


def make_random_network(rng, max_n=8, max_cap=10, allow_st_arc=True):
    n, s, t, arcs = random_network_spec(rng, max_n=max_n, max_cap=max_cap,
                                        allow_st_arc=allow_st_arc)
    return build_network(n, s, t, arcs), arcs


@pytest.fixture
def rng():
    return random.Random(1729)


def seeded_networks(count=1000):
    """`count` seeded networks, a quarter of each kind: integer, coprime
    rational and 0/1 capacities, and rational ones with antiparallel pairs
    (subdivided through gadget vertices).  Every kind draws zero
    capacities, and every other network of each kind has a direct s -> t
    arc (the rest draw it like any other)."""
    kinds = ("integer", "rational", "unit", "gadget")
    for seed in range(count):
        rng = random.Random(seed)
        kind = kinds[seed % 4]
        n = rng.randint(4, 16)
        pairs = [(u, v) for u in range(1, n) for v in range(2, n + 1)
                 if u != v and rng.random() < 0.35]
        if kind != "gadget":   # keep one arc of each antiparallel pair
            pairs = [(u, v) for (u, v) in pairs if u < v or (v, u) not in pairs]
        if seed // 4 % 2 == 0 and (1, n) not in pairs:
            pairs.append((1, n))
        if kind == "integer":
            caps = [Fraction(rng.randint(0, 12)) for _ in pairs]
        elif kind == "unit":
            caps = [Fraction(rng.randint(0, 1)) for _ in pairs]
        else:
            caps = [Fraction(rng.randint(0, 40), rng.choice([7, 11, 13, 17, 19, 23]))
                    for _ in pairs]
        arcs = [(u, v, c) for (u, v), c in zip(pairs, caps)]
        yield f"{kind} seed {seed}", build_network(n, 1, n, arcs,
                                                    allow_antiparallel=kind == "gadget")
