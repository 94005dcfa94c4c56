"""Exact value helpers shared across the toolkit.

All quantities (capacities, flow values, LP points) are
`fractions.Fraction` at the library's surface.  Inside, a capacity and
a graph flow (`network.ScaledFlow`) are ints over a scale, and an LP
cell is an int where its value is an integer.  :func:`scaled` is the one
LCM scaling of values to ints, shared by network and flow-complex
construction, the simplex tableau and the cycle LP of `simplicial`;
:func:`lowest_terms` is the one rule that reduces the ints that
`Network`, `HNetwork` and `PixelImage` store; :func:`parse_ratio` and
:func:`format_ratio` read and write a value as ints.  A scale only
grows: the residual graph takes the LCM with a starting flow's scale,
and the augmentation on complexes multiplies its scale by each
bottleneck's reduced denominator.

A single distinguished UNBOUNDED value stands in for an infinite capacity:
the capacity of a flow complex's source facet as ``build_hnetwork`` takes
it and as a cut that prices it reports it (inside, that capacity is
None).  It is read in four places: ``build_hnetwork``'s source entry,
``build_network``'s refusal (a graph arc's capacity is finite),
``format_value``, which writes it as ``inf``, and the comparisons that
pick the cheapest cut (``cmd_hcut``'s ``min``).  So it supports exactly
``<``, ``<=``, ``>``, ``>=`` against ints, Fractions and itself: it lies
above every rational and equals only itself, so ``min``, ``max`` and
``sorted`` treat it as +infinity; and ``UNBOUNDED - x`` is UNBOUNDED for
a finite x, as a residual capacity of +infinity would be.

Everything else raises ``TypeError``: ``+``, ``x - UNBOUNDED``,
``UNBOUNDED - UNBOUNDED``, negation, multiplication, division,
comparison with floats, and ``exact(UNBOUNDED)``.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Unbounded:
    """Singleton marker for an infinite capacity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"

    def __lt__(self, other):
        return False if _operand(other) else NotImplemented

    def __le__(self, other):
        return other is self if _operand(other) else NotImplemented

    def __gt__(self, other):
        return other is not self if _operand(other) else NotImplemented

    def __ge__(self, other):
        return True if _operand(other) else NotImplemented

    def __sub__(self, other):
        return self if isinstance(other, (int, Fraction)) else NotImplemented


UNBOUNDED = Unbounded()


def _operand(x) -> bool:
    """An int, a Fraction or UNBOUNDED itself."""
    return x is UNBOUNDED or isinstance(x, (int, Fraction))


def exact(x) -> Fraction:
    """Fraction from an int, string, or Fraction (returned as it is); floats
    are refused because binary rounding would silently change the instance."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass a Fraction, int, or 'p/q' string")
    return Fraction(x)


def scaled(values):
    """A sequence of ints and Fractions times the LCM of their denominators,
    as ints, and that LCM; reads each value as it is and builds no Fraction.
    Values that are all ints come back as they are, over 1."""
    if set(map(type, values)) <= {int}:
        return values, 1
    lcm = math.lcm(*{x.denominator for x in values})
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


def lowest_terms(ints, scale):
    """Ints over a scale > 0 as a tuple of ints over the smallest scale:
    both divided by the gcd of the scale and the ints, so that equal values
    over different scales give equal ints.  A None entry (the unbounded
    source facet of a flow complex) stays None and does not count."""
    ints = tuple(ints)
    if scale > 1:
        found = set(ints)
        found.discard(None)
        g = math.gcd(scale, *found)
        if g > 1:
            return tuple([c if c is None else c // g for c in ints]), scale // g
    return ints, scale


def parse_ratio(token: str) -> tuple[int, int]:
    """Parse an integer or `p/q` rational token into ints ``(p, q)`` with
    ``q > 0`` and value p/q, not necessarily in lowest terms.

    ASCII-digit tokens ``n`` and ``p/q`` with q != 0 are read as their ints
    and build no Fraction; every other token (signs, ``_``, decimals,
    exponents, non-ASCII digits, zero denominators) goes through
    ``Fraction(str)``, so the value and the error are the same either way.
    """
    try:
        if token.isascii():
            if token.isdigit():
                return int(token), 1
            p, _, q = token.partition("/")
            if p.isdigit() and q.isdigit() and q.strip("0"):
                return int(p), int(q)
        x = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational value: {token!r}") from exc
    return x.numerator, x.denominator


def parse_value(token: str) -> Fraction:
    """The Fraction of an integer or `p/q` token; see :func:`parse_ratio`."""
    p, q = parse_ratio(token)
    return Fraction(p) if q == 1 else Fraction(p, q)


def format_value(x) -> str:
    """Render a value the way the file formats expect (`7` or `7/3`);
    UNBOUNDED is `inf`, and anything else goes through :func:`exact`."""
    if type(x) is not Fraction:  # Fractions, nearly every call, skip the other tests
        if x is UNBOUNDED:
            return "inf"
        x = exact(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_ratio(x: int, scale: int) -> str:
    """The text ``format_value(Fraction(x, scale))`` gives, for an int x and
    an int scale > 0, from one gcd and no Fraction."""
    g = math.gcd(x, scale)
    if g == scale:
        return str(x // scale)
    return f"{x // g}/{scale // g}"
