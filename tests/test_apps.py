"""Matchings, cover-disjoint chains, segmentation."""

from fractions import Fraction

import pytest

from flowkit.apps import (
    BipartiteGraph,
    HallViolation,
    NotBounded,
    NotPartialOrder,
    PerfectMatching,
    PixelImage,
    Poset,
    chain_is_maximal,
    image_from_pgm,
    max_disjoint_chains,
    perfect_matching,
    read_bipartite,
    read_pgm,
    read_poset,
    segment_image,
    segmentation_score,
    uniform_penalty,
    write_pbm,
    write_poset,
    _matching_network,
)
from flowkit.network import ParseError, cut_capacity, make_cut
from oracles import (
    best_segmentation_by_enumeration,
    matching_exists_by_enumeration,
    max_disjoint_chains_by_enumeration,
)


def test_complete_bipartite_has_matching():
    g = BipartiteGraph(4, [(i, j) for i in range(1, 5) for j in range(1, 5)])
    res = perfect_matching(g)
    assert isinstance(res, PerfectMatching)
    assert sorted(i for i, _ in res.pairs) == [1, 2, 3, 4]
    assert sorted(j for _, j in res.pairs) == [1, 2, 3, 4]
    assert all(pair in set(g.edges) for pair in res.pairs)


def test_isolated_vertex_is_the_witness():
    g = BipartiteGraph(3, [(2, j) for j in (1, 2, 3)] + [(3, j) for j in (1, 2, 3)])
    res = perfect_matching(g)
    assert isinstance(res, HallViolation)
    assert res.subset == {1}


def test_matching_source_cut_capacity_is_n():
    g = BipartiteGraph(5, [(i, i) for i in range(1, 6)])
    net = _matching_network(g)
    assert cut_capacity(net, make_cut(net, {net.source})) == 5


def test_matching_against_permutation_oracle(rng):
    for _ in range(60):
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
            assert len(g.neighborhood(res.subset)) < len(res.subset)


def test_chain_poset():
    p = Poset(["bot", "a", "top"], [("bot", "a"), ("a", "top")])
    assert max_disjoint_chains(p) == [("bot", "a", "top")]


def test_antichain_poset():
    mids = [f"x{i}" for i in range(5)]
    rel = [("0", m) for m in mids] + [(m, "1") for m in mids]
    p = Poset(["0"] + mids + ["1"], rel)
    chains = max_disjoint_chains(p)
    assert len(chains) == 5


def test_unbounded_poset_rejected():
    with pytest.raises(NotBounded):
        max_disjoint_chains(Poset(["a", "b"], []))
    with pytest.raises(NotBounded):
        max_disjoint_chains(Poset(["a"], []))


def test_cyclic_relation_rejected():
    with pytest.raises(NotPartialOrder):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])


def _random_bounded_poset(rng, max_mid=7):
    k = rng.randint(0, max_mid)
    mids = [f"m{i}" for i in range(k)]
    rel = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.3:
                rel.append((mids[i], mids[j]))
    rel += [("bot", m) for m in mids] + [(m, "top") for m in mids]
    rel.append(("bot", "top"))
    return Poset(["bot"] + mids + ["top"], rel)


def test_chains_against_exhaustive_oracle(rng):
    for _ in range(30):
        p = _random_bounded_poset(rng)
        chains = max_disjoint_chains(p)
        assert len(chains) == max_disjoint_chains_by_enumeration(p)
        covers = set(p.covers())
        used = set()
        for chain in chains:
            assert chain_is_maximal(p, chain)
            for edge in zip(chain, chain[1:]):
                assert edge in covers
                assert edge not in used
                used.add(edge)


def test_single_pixel_goes_to_likelier_side():
    img = PixelImage(1, 1, {(0, 0): Fraction(9, 10)}, {(0, 0): Fraction(1, 10)}, {})
    assert segment_image(img).foreground == {(0, 0)}


def test_zero_penalty_is_pointwise_argmax_with_background_ties():
    fg = {(0, 0): Fraction(3, 4), (1, 0): Fraction(1, 4), (2, 0): Fraction(1, 2)}
    bg = {(0, 0): Fraction(1, 4), (1, 0): Fraction(3, 4), (2, 0): Fraction(1, 2)}
    img = PixelImage(3, 1, fg, bg, {})
    assert segment_image(img).foreground == {(0, 0)}


def test_segmentation_against_enumeration(rng):
    for _ in range(25):
        w, h = 3, 3
        fg = {(x, y): Fraction(rng.randint(0, 10), 10) for y in range(h) for x in range(w)}
        bg = {(x, y): Fraction(rng.randint(0, 10), 10) for y in range(h) for x in range(w)}
        pen = {pair: Fraction(rng.randint(0, 3), 10)
               for pair in uniform_penalty(w, h, 0)}
        img = PixelImage(w, h, fg, bg, pen)
        seg = segment_image(img)
        assert seg.score == best_segmentation_by_enumeration(img)
        assert seg.score == segmentation_score(img, seg.foreground)
        assert seg.score + seg.cost == seg.total_mass


def test_pgm_parsing_and_mask_output():
    text = "P2\n# comment\n2 2\n255\n0 255\n128 64\n"
    width, height, maxval, rows = read_pgm(text)
    assert (width, height, maxval) == (2, 2, 255)
    assert rows == [[0, 255], [128, 64]]
    img = image_from_pgm(text, Fraction(1, 10))
    assert img.fg[(1, 0)] == 1 and img.bg[(1, 0)] == 0
    assert write_pbm(2, 2, {(1, 0)}) == "P1\n2 2\n0 1\n0 0\n"


def test_pgm_errors():
    with pytest.raises(ParseError):
        read_pgm("P5\n1 1\n255\n0\n")
    with pytest.raises(ParseError):
        read_pgm("P2\n2 1\n255\n0\n")


def test_poset_format_round_trip(rng):
    p = _random_bounded_poset(rng, max_mid=5)
    again = read_poset(write_poset(p))
    assert set(again.covers()) == set(p.covers())
    assert again.bottom == p.bottom and again.top == p.top


def test_bipartite_format():
    g = read_bipartite("c note\np matching 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.edges == ((1, 2), (2, 3))
    with pytest.raises(ParseError):
        read_bipartite("p matching 2 1\n")


def test_poset_from_full_relation():
    # covers derived from the closed relation, not taken verbatim
    full = [("a", "b"), ("b", "c"), ("a", "c")]
    p = Poset(["a", "b", "c"], full)
    assert p.covers() == [("a", "b"), ("b", "c")]
    assert p.bottom == "a" and p.top == "c"
    assert max_disjoint_chains(p) == [("a", "b", "c")]
