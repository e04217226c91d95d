"""Symbolic valued-field arithmetic and torus-point evaluation.

Elements are finite sums of monomials c * pi^v with rational v and c; the
valuation convention is val(pi) = -1, val(0) = -inf, so the valuation of
a sum is the negated minimum exponent.
"""

import re
from dataclasses import dataclass

from .chamber import retract
from .rationals import NEG_INF, Q, fmt_scalar
from .strata import index_set


class LaurentPoly:
    """Finite exponent -> coefficient map over a valued field with pi^(1/N)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        t = {}
        for v, c in dict(terms).items():
            if c != 0:
                t[Q(v)] = Q(c)
        self.terms = t

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls({Q(exponent): Q(coeff)})

    @classmethod
    def one(cls):
        return cls.monomial(1, 0)

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def val(self):
        """-min exponent, or -inf for zero."""
        if not self.terms:
            return NEG_INF
        return -min(self.terms)

    def __add__(self, other):
        t = dict(self.terms)
        for v, c in other.terms.items():
            t[v] = t.get(v, Q(0)) + c
        return LaurentPoly(t)

    def __neg__(self):
        return LaurentPoly({v: -c for v, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        t = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                v = v1 + v2
                t[v] = t.get(v, Q(0)) + c1 * c2
        return LaurentPoly(t)

    def invert(self):
        if not self.is_monomial():
            raise ValueError("only monomials are invertible here")
        ((v, c),) = self.terms.items()
        return LaurentPoly.monomial(1 / c, -v)

    def power(self, k):
        if not self.is_monomial():
            raise ValueError("only monomial powers are supported")
        ((v, c),) = self.terms.items()
        return LaurentPoly.monomial(c**k, k * v)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def to_json(self):
        return [
            {"coeff": fmt_scalar(c), "exp": fmt_scalar(v)}
            for v, c in sorted(self.terms.items())
        ]

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*pi^({v})" for v, c in sorted(self.terms.items())
        )


@dataclass(frozen=True)
class TorusPoint:
    """Point of the torus given by its tuple of omega-character values,
    each an invertible monomial."""

    values: tuple  # of LaurentPoly monomials

    def __post_init__(self):
        for v in self.values:
            if not v.is_monomial():
                raise ValueError("torus coordinates must be monomials")


_TOKEN = re.compile(
    r"^\s*(?P<c>-?\d+(?:/\d+)?)\s*\*\s*pi\^\(?(?P<v>-?\d+(?:/\d+)?)\)?\s*$"
)


def parse_torus_point(s):
    """Parse comma-separated "c*pi^(p/q)" tokens."""
    vals = []
    for tok in s.split(","):
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad torus coordinate {tok!r}")
        try:
            c, v = Q(m.group("c")), Q(m.group("v"))
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in torus coordinate {tok!r}") from None
        vals.append(LaurentPoly.monomial(c, v))
    return TorusPoint(tuple(vals))


def eval_char(datum, lam, a):
    """Value of the character with omega-coordinates lam at a: the monomial
    prod_i c_i^lam_i * pi^(sum_i lam_i v_i) for a_i = c_i * pi^v_i."""
    coeff, exp = Q(1), Q(0)
    for k, x in zip(lam, a.values):
        if k:
            ((v, c),) = x.terms.items()
            coeff *= c ** int(k)
            exp += k * v
    return LaurentPoly.monomial(coeff, exp)


def nu_a(datum, a):
    """The rational cocharacter tracking all valuations of character values."""
    return tuple(-next(iter(v.terms)) for v in a.values)


def _orbit_sums(datum, a, guard):
    """The orbit-sum coordinates at a, each orbit walked once, and for each
    coordinate whether a single orbit term has the least exponent before
    cancellation (the torus coordinates count as single terms)."""
    if len(a.values) != datum.n:
        raise ValueError("torus point has wrong length")
    values, unique = list(a.values), [True] * datum.n
    for i in range(datum.l):
        omega = tuple(int(i == k) for k in range(datum.n))
        terms, exps = {}, []
        for lam in datum.weyl_orbit(omega, guard=guard):
            ((v, c),) = eval_char(datum, lam, a).terms.items()
            terms[v] = terms.get(v, 0) + c
            exps.append(v)
        values[i] = LaurentPoly(terms)
        unique[i] = exps.count(min(exps)) == 1
    return values, tuple(v.val() for v in values), unique


def eval_c(datum, a, guard=10**6):
    """Values of the symmetric-orbit coordinates and their valuation vector."""
    values, d_c, _unique = _orbit_sums(datum, a, guard)
    return values, d_c


def check_thm_rnu(datum, a, guard=10**6):
    """End-to-end check: the retraction of the valuation vector of the orbit
    sums equals the dominant representative of nu_a, with the expected
    inequalities and strictness pattern."""
    _values, d_c, unique = _orbit_sums(datum, a, guard)
    y, _face = retract(datum, d_c)
    dom, _word = datum.dominant_rep(nu_a(datum, a))
    imu = index_set(datum, dom)
    # d_c <= dom, with equality off the face (imu holds indices < l only)
    ineq_ok = all(
        (v is NEG_INF or v <= dom[i]) and (i in imu or v == dom[i])
        for i, v in enumerate(d_c)
    )
    # strictness: away from the face, a unique orbit term attains the max
    # of <lam, nu_a>, i.e. the least exponent
    strict_ok = all(unique[i] for i in range(datum.l) if i not in imu)
    ok = y == dom and ineq_ok and strict_ok
    return {
        "d_c": d_c,
        "retract": y,
        "nu_dominant": dom,
        "inequalities": ineq_ok,
        "strict_max_unique": strict_ok,
        "pass": ok,
    }


def classical_newton_slopes(d):
    """Slopes of the Newton polygon of an n-tuple of coefficient valuations.

    d has -inf allowed everywhere except the last slot.  Returns the
    decreasing slope tuple read off the least concave majorant through
    (0,0) and (n, d_n).
    """
    n = len(d)
    if n == 0 or d[-1] is NEG_INF:
        raise ValueError("the last coefficient valuation must be finite")
    pts = [(0, Q(0))]
    for i, v in enumerate(d):
        if v is not NEG_INF:
            pts.append((i + 1, Q(v)))
    # upper convex hull, left to right (Andrew's monotone chain)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or below the chord
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = (y2 - y1) / (x2 - x1)
        slopes.extend([s] * (x2 - x1))
    if len(slopes) != n:
        raise RuntimeError("Newton polygon does not span all n slots")
    if any(a < b for a, b in zip(slopes, slopes[1:])):
        raise RuntimeError("Newton polygon slopes are not decreasing")
    return tuple(slopes)


def slopes_to_coords(slopes):
    """Partial sums: slope tuple -> omega-coordinates for the GL_n datum."""
    out = []
    acc = Q(0)
    for s in slopes:
        acc += s
        out.append(acc)
    return tuple(out)


def coords_to_slopes(coords):
    out = []
    prev = Q(0)
    for c in coords:
        out.append(Q(c) - prev)
        prev = Q(c)
    return tuple(out)


def random_torus_point(datum, rng, denominator=1, exp_range=3):
    """Seeded monomial torus point with collision-prone coefficients."""
    coeffs = [Q(c) for c in (1, -1, 2, -2)]
    vals = []
    for _ in range(datum.n):
        c = rng.choice(coeffs)
        num = rng.randint(-exp_range * denominator, exp_range * denominator)
        vals.append(LaurentPoly.monomial(c, Q(num, denominator)))
    return TorusPoint(tuple(vals))
