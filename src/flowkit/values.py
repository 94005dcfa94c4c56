"""Exact value helpers shared across the toolkit.

All quantities (capacities, flows, LP entries) are `fractions.Fraction`.
A single distinguished UNBOUNDED value stands in for an infinite capacity.
It supports exactly what a capacity sum or comparison needs:

* ``<``, ``<=``, ``>``, ``>=`` against ints, Fractions and itself: it lies
  above every rational and equals only itself, so ``min``, ``max`` and
  ``sorted`` treat it as +infinity;
* ``+`` with an int, a Fraction or itself is UNBOUNDED (so ``sum`` works);
* ``UNBOUNDED - x`` is UNBOUNDED for a finite x, which makes the residual
  capacity of an unbounded arc unbounded.

Everything else raises ``TypeError``: ``x - UNBOUNDED``,
``UNBOUNDED - UNBOUNDED``, negation, multiplication, division, comparison
with floats, and ``exact(UNBOUNDED)``.
"""

from __future__ import annotations

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

    def __add__(self, other):
        return self if _operand(other) else NotImplemented

    __radd__ = __add__

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


def parse_value(token: str) -> Fraction:
    """Parse an integer or `p/q` rational token."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational value: {token!r}") from exc


def format_value(x) -> str:
    """Render a value the way the file formats expect (`7` or `7/3`)."""
    if is_unbounded(x):
        return "inf"
    x = exact(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
