"""Exact value helpers shared across the toolkit.

All quantities (capacities, flows, LP points) are `fractions.Fraction`
at the library's surface; an LP cell is an int where its value is an
integer.  :func:`scaled` is the one LCM scaling of them
to ints, shared by network and flow-complex construction, the simplex
tableau and the cycle LP of `simplicial`; :func:`parse_ratio` and
:func:`format_ratio` read and write a value as ints, for the paths that
keep it as an int over a scale.  A scale only grows: the residual graph
takes the LCM with a starting flow's denominators, and the augmentation
on complexes multiplies its scale by each bottleneck's reduced
denominator.
A single distinguished UNBOUNDED value stands in for an infinite capacity:
the capacity of a flow complex's source facet, its one use (a graph arc's
capacity is finite; ``build_network`` refuses UNBOUNDED).  It supports
exactly what the source facet's bound, its bottlenecks and the capacity
of a cut that prices it need:

* ``<``, ``<=``, ``>``, ``>=`` against ints, Fractions and itself: it lies
  above every rational and equals only itself, so ``min``, ``max`` and
  ``sorted`` treat it as +infinity;
* ``UNBOUNDED - x`` is UNBOUNDED for a finite x, which makes the residual
  capacity of the source facet unbounded.

Everything else raises ``TypeError``: ``+``, ``x - UNBOUNDED``,
``UNBOUNDED - UNBOUNDED``, negation, multiplication, division, comparison
with floats, and ``exact(UNBOUNDED)``.
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


def is_unbounded(x) -> bool:
    return x is UNBOUNDED


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
    as ints, and that LCM; reads each value as it is and builds no Fraction."""
    lcm = math.lcm(*{x.denominator for x in values})
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


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
