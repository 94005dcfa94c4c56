"""UNBOUNDED, the source facet's capacity, behaves as +infinity for
ordering and for subtracting a rational, and refuses everything else,
addition included; `build_network` refuses it on a graph arc, so no
solver is handed one; `scaled` turns rationals into ints over the LCM of
their denominators; `lowest_terms` reduces ints over a scale and keeps
None; `parse_value` reads every token the way `Fraction(str)` does, and `read_dimacs`'s int reading as `parse_value`
does; `format_value` writes `7`, `7/3` or `inf` and refuses what `exact`
refuses, and `format_ratio` writes what it writes for a Fraction."""

import random
import re
from fractions import Fraction

import pytest

from flowkit.apps import PixelImage
from flowkit.network import NetworkError, ParseError, build_network, read_dimacs
from flowkit.simplicial import OrientedComplex, build_hnetwork
from flowkit.solvers import ALGORITHMS
from flowkit.values import (
    UNBOUNDED,
    exact,
    format_ratio,
    format_value,
    lowest_terms,
    parse_value,
    scaled,
)

FINITE = [0, 7, -3, Fraction(0), Fraction(10**30, 7), Fraction(-5, 2)]


@pytest.mark.parametrize("x", FINITE)
def test_unbounded_is_above_every_rational(x):
    assert UNBOUNDED > x and UNBOUNDED >= x and x < UNBOUNDED and x <= UNBOUNDED
    assert not (UNBOUNDED < x or UNBOUNDED <= x or x > UNBOUNDED or x >= UNBOUNDED)
    assert UNBOUNDED != x and x != UNBOUNDED


@pytest.mark.parametrize("x", FINITE)
def test_unbounded_absorbs_subtraction(x):
    assert UNBOUNDED - x is UNBOUNDED


def test_unbounded_equals_only_itself():
    assert UNBOUNDED == UNBOUNDED and UNBOUNDED <= UNBOUNDED and UNBOUNDED >= UNBOUNDED
    assert not (UNBOUNDED < UNBOUNDED or UNBOUNDED > UNBOUNDED)
    assert min(Fraction(3), UNBOUNDED) == 3 and max(UNBOUNDED, 9) is UNBOUNDED
    assert sorted([UNBOUNDED, Fraction(1, 2), 0]) == [0, Fraction(1, 2), UNBOUNDED]


@pytest.mark.parametrize("op", [
    lambda: Fraction(1) - UNBOUNDED,
    lambda: 1 - UNBOUNDED,
    lambda: UNBOUNDED - UNBOUNDED,
    lambda: -UNBOUNDED,
    lambda: UNBOUNDED * 2,
    lambda: Fraction(2) * UNBOUNDED,
    lambda: UNBOUNDED / 2,
    lambda: UNBOUNDED < 1.5,
    lambda: UNBOUNDED + 1.5,
    lambda: exact(UNBOUNDED),
    lambda: UNBOUNDED + 1,
])
def test_every_other_operation_is_refused(op):
    with pytest.raises(TypeError):
        op()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_solvers_refuse_unbounded(algo):
    # UNBOUNDED is the source facet's capacity, never a graph arc's: the
    # network is refused with the arc's index before any solver runs, given
    # as a value or among the ints over a scale
    for scale in (None, 1):
        with pytest.raises(NetworkError, match=r"^unbounded capacity on \(2, 3\)$") as err:
            ALGORITHMS[algo](build_network(3, 1, 3, [(1, 2, 4), (2, 3, UNBOUNDED)], scale=scale))
        assert err.value.at == 1


@pytest.mark.parametrize("values, ints, lcm", [
    ([3, -4, 0], [3, -4, 0], 1),
    ([Fraction(1, 6), Fraction(-3, 4), 0, 5], [2, -9, 0, 60], 12),
    ([Fraction(0), Fraction(-2, 7), Fraction(5, 14), -1], [0, -4, 5, -14], 14),
])
def test_scaled_is_the_values_times_the_lcm_of_their_denominators(values, ints, lcm):
    assert scaled(values) == (ints, lcm)
    assert ints == [x * lcm for x in values]
    assert all(type(x) is int for x in scaled(values)[0])


def test_scaled_of_nothing():
    assert scaled([]) == ([], 1)


@pytest.mark.parametrize("ints, scale, reduced, lowest", [
    ([], 12, (), 1),
    ([0, 0], 5, (0, 0), 1),
    ([3, 9], 1, (3, 9), 1),
    ([4, -6, 0], 8, (2, -3, 0), 4),
    ([None, 6, 10], 4, (None, 3, 5), 2),
    ([7, 14], 3, (7, 14), 3),
    ([None], 6, (None,), 1),
    ([10**30 * 6, 9], 3 * 10**30, (2 * 10**30, 3), 10**30),
])
def test_lowest_terms_divides_out_the_gcd_of_the_scale_and_the_ints(ints, scale, reduced, lowest):
    assert lowest_terms(ints, scale) == (reduced, lowest)
    assert lowest_terms(reduced, lowest) == (reduced, lowest)


# five values in lowest terms over 12: arc capacities, finite facet
# capacities, or an image's two fg, two bg and one penalty
LOWEST = (6, 9, 6, 3, 2)
ARCS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def _network(ints, scale):
    net = build_network(4, 1, 4, [(u, v, c) for (u, v), c in zip(ARCS, ints)], scale=scale)
    return net.ints, net.scale


def _hnetwork(ints, scale):
    # the network above as a 1-complex, its return facet (1, 4) last
    cx = OrientedComplex(1, [(v, u) for (u, v) in ARCS] + [(1, 4)])
    hnet = build_hnetwork(cx, len(ARCS), dict(enumerate(ints)), scale=scale)
    return hnet.ints, hnet.scale


def _image(ints, scale):
    img = PixelImage(2, 1, ints[:2], ints[2:4], ints[4:], scale=scale)
    return img.fg + img.bg + img.penalty, img.scale


@pytest.mark.parametrize("build, lowest", [
    (_network, LOWEST), (_hnetwork, LOWEST + (None,)), (_image, LOWEST)])
def test_every_store_of_ints_over_a_scale_keeps_them_in_lowest_terms(build, lowest):
    """The same values over 12 and over k * 12 give equal stored ints and
    scale, the ones `lowest_terms` gives."""
    for k in (1, 2, 5, 12, 10**20):
        assert build([c * k for c in LOWEST], 12 * k) == (lowest, 12), k


def _through_fraction_str(token):
    """`parse_value` as it reads a token without its fast path."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational value: {token!r}") from exc


def _outcome(parse, token):
    try:
        x = parse(token)
    except ValueError as exc:
        return "error", str(exc)
    return "value", x, type(x), type(x.numerator), type(x.denominator)


TOKENS = [
    "0", "007", "12/8", "0/5", "3/0", "3/00", "+3", "-0", "-3/4", "1_000", "1e3", "1.5",
    "\u0663", "\u00b2", "", "/", "3/", "/4", "3//4",
]


@pytest.mark.parametrize("token", TOKENS)
def test_parse_value_reads_every_token_as_fraction_str_does(token):
    assert _outcome(parse_value, token) == _outcome(_through_fraction_str, token)


@pytest.mark.parametrize("token", TOKENS)
def test_read_dimacs_reads_every_capacity_token_as_parse_value_does(token):
    """`read_dimacs` reads its capacities as ints, without `parse_value`'s
    Fraction; it must give the same capacity or the same error."""
    text = f"p max 2 1\nn 1 s\nn 2 t\na 1 2 {token}\n"
    if not token:  # no fourth field on the line
        want = "line 4: expected `a <u> <v> <cap>`"
    else:
        try:
            x = parse_value(token)
        except ValueError as exc:
            want = f"line 4: {exc}"
        else:
            want = "line 4: negative capacity" if x < 0 else x
    try:
        net = read_dimacs(text)
    except ParseError as exc:
        assert (str(exc), exc.line_no) == (want, 4)
    else:
        assert net.ints == (want.numerator,) and net.scale == want.denominator


def _ratios(seed):
    """Seeded (x, scale) pairs: x = 0, x = scale, x sharing factors with
    scale, coprime ones and large ones."""
    rng = random.Random(seed)
    pairs = [(0, 1), (0, 12), (1, 1), (12, 12), (7, 1), (12, 8), (-12, 8), (6, 4), (10**30, 7)]
    for _ in range(400):
        scale = rng.choice([1, 2, 6, 12, 35, 210, 2 ** 40, rng.randint(1, 10**6)])
        k = rng.choice([0, 1, scale, rng.randint(0, 5 * scale), rng.randint(-scale, 0)])
        g = rng.choice([1, 2, 3, 5, 7])
        pairs.append((k * g, scale * g))
    return pairs


def test_format_ratio_writes_what_format_value_writes_for_the_fraction():
    for x, scale in _ratios(19):
        assert format_ratio(x, scale) == format_value(Fraction(x, scale)), (x, scale)


@pytest.mark.parametrize("x, text", [
    (Fraction(7), "7"), (Fraction(-7, 3), "-7/3"), (Fraction(0), "0"),
    (Fraction(10**30, 7), f"{10**30}/7"),
    (UNBOUNDED, "inf"), (7, "7"), (-3, "-3"), (0, "0"), (True, "1"),
    ("14/6", "7/3"), ("-2", "-2"), (" 5 ", "5"),
])
def test_format_value(x, text):
    assert format_value(x) == text


@pytest.mark.parametrize("x, error, message", [
    (1.5, TypeError, "refusing float 1.5"),
    (0.0, TypeError, "refusing float 0.0"),
    ("abc", ValueError, "Invalid literal for Fraction"),
    ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
    (None, TypeError, None),  # Fraction's own message, which varies across Python versions
])
def test_format_value_refuses_what_exact_refuses(x, error, message):
    with pytest.raises(error, match=message and re.escape(message)):
        format_value(x)
