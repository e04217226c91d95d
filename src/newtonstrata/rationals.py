"""Exact rational scalars, extended by a -infinity element for valuations."""

import math
import re
from fractions import Fraction as Q


class _NegInf:
    """Singleton for val(0): below every rational.  It only compares; it
    defines no arithmetic, so NEG_INF + 1 raises TypeError."""

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
    dens = [x.denominator for x in xs]
    den = math.lcm(*dens)
    if den == 1:
        return 1, tuple([x.numerator for x in xs])
    return den, tuple([x.numerator * (den // d) for x, d in zip(xs, dens)])


_SCALAR = re.compile(r"\s*(-inf|-?\d+(?:/0*[1-9]\d*)?)\s*", re.ASCII)


def parse_scalar(s):
    """Parse "p/q", "p" or "-inf": ASCII, q > 0, whitespace around."""
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise ValueError("bad rational " + repr(s.strip(" \t\n\r\f\v")))
    return NEG_INF if m[1] == "-inf" else Q(m[1])


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
