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
    image_from_pgm,
    max_disjoint_chains,
    perfect_matching,
    read_bipartite,
    read_pgm,
    read_poset,
    segment_image,
    write_pbm,
    _matching_network,
)
from flowkit.network import Cut, NetworkError, ParseError, cut_capacity
from oracles import (
    best_segmentation_by_enumeration,
    chain_is_maximal,
    matching_exists_by_enumeration,
    max_disjoint_chains_by_enumeration,
    random_bounded_poset,
    segmentation_cost,
    segmentation_score,
    uniform_penalty,
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
    assert cut_capacity(net, Cut(frozenset({net.source}))) == 5


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
            assert len({j for (i, j) in g.edges if i in res.subset}) < len(res.subset)


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


def test_chains_against_exhaustive_oracle(rng):
    for _ in range(30):
        p = random_bounded_poset(rng)
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


def test_chain_is_maximal_sees_a_chain_that_can_be_extended():
    p = Poset(["bot", "a", "b", "top"], [("bot", "a"), ("a", "b"), ("b", "top")])
    assert chain_is_maximal(p, ("bot", "a", "b", "top"))
    assert not chain_is_maximal(p, ("bot", "a", "top"))  # b lies between a and top


def test_single_pixel_goes_to_likelier_side():
    img = PixelImage(1, 1, {(0, 0): Fraction(9, 10)}, {(0, 0): Fraction(1, 10)}, {})
    assert segment_image(img).foreground == {(0, 0)}


def test_zero_penalty_is_pointwise_argmax_with_background_ties():
    fg = {(0, 0): Fraction(3, 4), (1, 0): Fraction(1, 4), (2, 0): Fraction(1, 2)}
    bg = {(0, 0): Fraction(1, 4), (1, 0): Fraction(3, 4), (2, 0): Fraction(1, 2)}
    img = PixelImage(3, 1, fg, bg, {})
    assert segment_image(img).foreground == {(0, 0)}


def test_segmentation_against_enumeration(rng):
    def draw():
        d = rng.randint(1, 12)
        return Fraction(rng.randint(0, d), d)

    for _ in range(25):
        w, h = rng.choice([(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 4), (3, 3)])
        fg = {(x, y): draw() for y in range(h) for x in range(w)}
        bg = {(x, y): draw() for y in range(h) for x in range(w)}
        # a pair left out has penalty 0
        pen = {pair: draw() / 3 for pair in uniform_penalty(w, h, 0) if rng.random() < 0.8}
        img = PixelImage(w, h, fg, bg, pen)
        seg = segment_image(img)
        assert seg.score == best_segmentation_by_enumeration(fg, bg, pen)
        assert seg.score == segmentation_score(fg, bg, pen, seg.foreground)
        assert seg.cost == segmentation_cost(fg, bg, pen, seg.foreground)
        assert seg.score + seg.cost == seg.total_mass == sum(fg.values()) + sum(bg.values())


def test_pgm_parsing_and_mask_output():
    text = "P2\n# comment\n2 2\n255\n0 255\n128 64\n"
    width, height, maxval, rows = read_pgm(text)
    assert (width, height, maxval) == (2, 2, 255)
    assert rows == [[0, 255], [128, 64]]
    img = image_from_pgm(text, Fraction(1, 10))
    # scale = lcm(255, 10); pixel (1, 0) is number 1
    assert img.scale == 510 and img.fg[1] == 510 and img.bg[1] == 0
    assert write_pbm(2, 2, {(1, 0)}) == "P1\n2 2\n0 1\n0 0\n"


def test_pgm_image_equals_its_fraction_construction(rng):
    # (6, 1/3) on even samples: lcm(6, 3) = 6 and every int is even, so
    # the image keeps scale 3, as the Fractions' reduced denominators give
    for maxval, penalty, step in [(1, 0, 1), (2, 3, 1), (7, Fraction(2, 7), 1),
                                  (255, Fraction(1, 10), 1), (65535, Fraction(13, 11), 1),
                                  (6, Fraction(1, 3), 2), (4, Fraction(0), 2)]:
        w, h = rng.randint(1, 5), rng.randint(1, 4)
        rows = [[rng.randrange(0, maxval + 1, step) for _ in range(w)] for _ in range(h)]
        text = f"P2\n{w} {h}\n{maxval}\n" + "\n".join(" ".join(map(str, r)) for r in rows)
        img = image_from_pgm(text, penalty)
        fg = {(x, y): Fraction(rows[y][x], maxval) for y in range(h) for x in range(w)}
        ref = PixelImage(w, h, fg, {p: 1 - v for p, v in fg.items()},
                         uniform_penalty(w, h, penalty))
        assert (img.scale, img.fg, img.bg, img.penalty) == (ref.scale, ref.fg, ref.bg, ref.penalty)
        assert segment_image(img) == segment_image(ref)



def test_a_negative_penalty_is_refused_by_value_or_by_its_pair():
    # once, before any pair, so that a 1 x 1 image with no pair refuses it too
    for text in ["P2\n1 1\n10\n9\n", "P2\n2 1\n10\n9 1\n"]:
        with pytest.raises(NetworkError, match=r"^negative penalty -1/10$"):
            image_from_pgm(text, Fraction(-1, 10))
    # a pair is named by its two pixels in row-major order
    for w, h, far in [(2, 1, (1, 0)), (1, 2, (0, 1))]:
        with pytest.raises(NetworkError, match=rf"^negative penalty between \(0, 0\) and "
                                               rf"\({far[0]}, {far[1]}\)$"):
            PixelImage(w, h, {(0, 0): 1, far: 0}, {(0, 0): 0, far: 1},
                       {frozenset({far, (0, 0)}): -1})


def test_pgm_errors():
    with pytest.raises(ParseError):
        read_pgm("P5\n1 1\n255\n0\n")
    with pytest.raises(ParseError):
        read_pgm("P2\n2 1\n255\n0\n")


def test_poset_format_round_trip():
    # `cover bot c` is implied by bot < a < c, so it is no cover
    p = read_poset("# a diamond\nel bot\nel a\nel b\n\nel c\nbottom bot\ntop c\n"
                   "cover bot a\ncover bot b\ncover a c\ncover b c\ncover bot c\n")
    assert p.covers() == [("bot", "a"), ("bot", "b"), ("a", "c"), ("b", "c")]
    assert p.bottom == "bot" and p.top == "c"


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
