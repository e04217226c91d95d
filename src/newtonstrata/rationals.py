"""Exact rational scalars, extended by a -infinity element for valuations."""

import math
from fractions import Fraction as Q


class _NegInf:
    """Singleton for val(0): below every rational, absorbing under addition."""

    __slots__ = ()

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return other is not NEG_INF

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is NEG_INF

    def __eq__(self, other):
        return other is NEG_INF

    def __hash__(self):
        return hash("-inf")


NEG_INF = _NegInf()


def qfloor(x):
    """Greatest integer <= x, exact."""
    return x.numerator // x.denominator


def qceil(x):
    return -((-x.numerator) // x.denominator)


def scale_to_ints(xs):
    """(L, ints): L is the lcm of the denominators of the rationals xs,
    and ints is the tuple of the L*x, each an int."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, tuple([x.numerator * (den // x.denominator) for x in xs])


def frac_part(x):
    """Fractional part of x in [0, 1)."""
    return x - qfloor(x)


def parse_scalar(s):
    """Parse "p/q", "p" or "-inf"."""
    s = s.strip()
    if s == "-inf":
        return NEG_INF
    try:
        return Q(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}") from exc


def fmt_scalar(x):
    """Serialize a scalar as "p/q", "p" or "-inf"."""
    if x is NEG_INF:
        return "-inf"
    return str(x)


def parse_point(s):
    """Parse a comma-separated coordinate tuple."""
    return tuple(parse_scalar(tok) for tok in s.split(","))


def fmt_point(x):
    return [fmt_scalar(c) for c in x]
