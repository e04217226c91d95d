"""Symbolic valued-field arithmetic and torus-point evaluation.

Elements are finite sums of monomials c * pi^v with rational v and c; the
valuation convention is val(pi) = -1, val(0) = -inf, so the valuation of
a sum is the negated minimum exponent.
"""

import math
import re
from dataclasses import dataclass

from .chamber import retract
from .rationals import NEG_INF, Q, fmt_scalar, scale_to_ints
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


def nu_a(datum, a):
    """The rational cocharacter tracking all valuations of character values."""
    return tuple(-next(iter(v.terms)) for v in a.values)


def _coordinate_bounds(datum):
    """b[k][i] >= |mu_i| on the W-orbit of omega_k, k < l: on that orbit
    the largest <mu, +-e_i> is <omega_k, dominant_rep(+-e_i)>."""
    doms = [
        [datum.dominant_rep([s * int(i == t) for t in range(datum.n)])[0]
         for s in (1, -1)]
        for i in range(datum.n)
    ]
    return [[max(plus[k], minus[k]) for plus, minus in doms]
            for k in range(datum.l)]


def _orbit_sums(datum, a):
    """The orbit-sum coordinates at a, each orbit walked once, and for each
    coordinate whether a single orbit term has the least exponent before
    cancellation (the torus coordinates count as single terms).

    With a_i = c_i * pi^v_i the term of mu is prod_i c_i^mu_i *
    pi^<mu, v>.  Both parts are carried down `orbit_tree` as ints: the
    exponent times the common denominator D of the v_i, by
    E(s_j mu) = E(mu) - mu_j <alpha_j, D v>, and the coefficient times a
    scale K that makes it integral on the whole orbit, multiplied by
    r_j^(-mu_j) with r_j = prod_i c_i^(alpha_j)_i.
    """
    n, l = datum.n, datum.l
    if len(a.values) != n:
        raise ValueError("torus point has wrong length")
    monos = [next(iter(x.terms.items())) for x in a.values]
    den, exps = scale_to_ints([v for v, _c in monos])
    coeffs = [c for _v, c in monos]
    steps = [datum.root_pairing(j, exps) for j in range(l)]
    ratios = [math.prod(c ** e for c, e in zip(coeffs, datum.root_coords(j))
                        if e) for j in range(l)]
    bounds = datum.memo("orbit_coordinate_bounds", None,
                        _coordinate_bounds)
    powers = {}  # (j, m) -> r_j^m as (numerator, denominator)
    values, unique = list(a.values), [True] * n
    for k in range(l):
        scale = math.prod((abs(c.numerator) * c.denominator) ** b
                          for c, b in zip(coeffs, bounds[k]))
        state, sums = {}, {}
        least, hits = math.inf, 0
        omega = tuple(int(i == k) for i in range(n))
        for mu, j, depth in datum.orbit_tree(omega):
            if depth:
                m = mu[j]
                e, c = state[depth - 1]
                e += m * steps[j]
                frac = powers.get((j, m))
                if frac is None:
                    r = ratios[j] ** m
                    frac = powers[(j, m)] = (r.numerator, r.denominator)
                c, rem = divmod(c * frac[0], frac[1])
            else:  # the root: omega_k is dominant
                q = scale * coeffs[k]
                e, c, rem = exps[k], q.numerator, q.denominator != 1
            if rem:
                raise RuntimeError("scaled orbit coefficient is not integral")
            state[depth] = e, c
            sums[e] = sums.get(e, 0) + c
            if e < least:
                least, hits = e, 1
            elif e == least:
                hits += 1
        values[k] = LaurentPoly(
            {Q(e, den): Q(c, scale) for e, c in sums.items()})
        unique[k] = hits == 1
    return values, tuple(v.val() for v in values), unique


def eval_c(datum, a):
    """Values of the symmetric-orbit coordinates and their valuation vector."""
    values, d_c, _unique = _orbit_sums(datum, a)
    return values, d_c


def check_thm_rnu(datum, a):
    """End-to-end check: the retraction of the valuation vector of the orbit
    sums equals the dominant representative of nu_a, with the expected
    inequalities and strictness pattern."""
    _values, d_c, unique = _orbit_sums(datum, a)
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


def coords_to_slopes(coords):
    out = []
    prev = Q(0)
    for c in coords:
        out.append(Q(c) - prev)
        prev = Q(c)
    return tuple(out)


def random_torus_point(datum, rng, denominator=1):
    """Seeded monomial torus point with collision-prone coefficients."""
    coeffs = [Q(c) for c in (1, -1, 2, -2)]
    vals = []
    for _ in range(datum.n):
        c = rng.choice(coeffs)
        num = rng.randint(-3 * denominator, 3 * denominator)
        vals.append(LaurentPoly.monomial(c, Q(num, denominator)))
    return TorusPoint(tuple(vals))
