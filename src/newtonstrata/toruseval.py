"""Torus-point evaluation: W-orbit sums at a monomial torus point.

Values are finite sums of monomials c * pi^v with rational v and c; the
valuation convention is val(pi) = -1, val(0) = -inf, so the valuation of
a sum is the negated minimum exponent.
"""

import math
import re
from array import array
from heapq import heappop, heappush

from .chamber import face_of, retract
from .rationals import NEG_INF, Q, fmt_scalar, scale_to_ints
from .rootdata import record


class LaurentPoly:
    """Finite exponent -> coefficient map over a valued field with pi^(1/N),
    each an int or a `Fraction`: a float or a string is a ValueError."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        t = {}
        for v, c in dict(terms).items():
            if not (isinstance(v, (int, Q)) and isinstance(c, (int, Q))):
                raise ValueError(f"term {c!r}*pi^({v!r}) is not over ints"
                                 " or Fractions")
            if c != 0:
                t[Q(v)] = Q(c)
        self.terms = t

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls({exponent: coeff})

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

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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


@record()
class TorusPoint:
    """Point of the torus given by its tuple of omega-character values,
    each an invertible monomial."""

    values: tuple  # of LaurentPoly monomials

    def __post_init__(self):
        for v in self.values:
            if not v.is_monomial():
                raise ValueError("torus coordinates must be monomials")


_TOKEN = re.compile(
    r"\s*(?P<c>-?\d+(?:/\d+)?)\s*\*\s*pi\^"
    r"(?P<open>\()?(?P<v>-?\d+(?:/\d+)?)(?(open)\))\s*",
    re.ASCII,
)


def parse_torus_point(s):
    """Parse comma-separated "c*pi^(p/q)" tokens."""
    vals = []
    for tok in s.split(","):
        m = _TOKEN.fullmatch(tok)
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
    """The rational cocharacter tracking all valuations of character values.
    ValueError unless a has n coordinates."""
    if len(a.values) != datum.n:
        raise ValueError("torus point has wrong length")
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


def _orbit_skeleton(datum, k):
    """The walk `orbit_tree(omega_k)` less its root omega_k, as three
    byte columns, one column of subtree ends and the greatest depth:
    (js, ps, depths, ends, height).  Node i is s_j of the last node of
    depth d - 1 before it (the root has depth 0), with j = js[i],
    d = depths[i] and ps[i] = -mu_j > 0 for its coordinate mu_j.  Its
    subtree is the nodes i to ends[i] - 1, so its children are i + 1,
    ends[i + 1], ... up to ends[i], and those of the root 0, ends[0], ...
    up to the node count.  The walk depends only on the datum and k, so
    it runs once per datum, under the memo table "orbit_skeleton"; an
    OrbitGuardError from it leaves no entry.
    """
    return datum.memo("orbit_skeleton", k, _build_orbit_skeleton, k)


def _build_orbit_skeleton(datum, k, column=bytearray):
    js, ps, depths = column(), column(), column()
    walk = datum.orbit_tree(tuple(int(i == k) for i in range(datum.n)))
    next(walk)  # the root
    try:
        for mu, j, depth in walk:
            js.append(j)
            ps.append(-mu[j])
            depths.append(depth)
    except ValueError:  # a value past a byte: more than 256 simple roots
        return _build_orbit_skeleton(datum, k, list)
    return js, ps, depths, _subtree_ends(depths), max(depths, default=0)


def _subtree_ends(depths):
    """ends[i], for the nodes of a preorder walk with these depths, all
    >= 1: the index past the subtree of node i, that is of the first
    later node no deeper than it, or the node count.  4 bytes a node."""
    ends = array("I", [0]) * len(depths)
    path = []  # the nodes whose subtrees are open, path[d - 1] at depth d
    for i, depth in enumerate(depths):
        while len(path) >= depth:
            ends[path.pop()] = i
        path.append(i)
    for i in path:
        ends[i] = len(depths)
    return ends


def _root_ratio(support, nums, dens):
    """r_j = prod_i c_i^(alpha_j)_i over the support of alpha_j, for
    c_i = nums[i] / dens[i], as the reduced int pair (over, under) with
    r_j = over / under and over > 0."""
    over, under = 1, 1
    for i, e in support:
        if e > 0:
            over *= nums[i] ** e
            under *= dens[i] ** e
        else:
            over *= dens[i] ** -e
            under *= nums[i] ** -e
    g = math.gcd(over, under)
    if over < 0:
        g = -g
    return over // g, under // g


def _move_table(datum, nums, dens, exps, top):
    """moves[j][p] for 0 < p <= top: the exponent step -p <alpha_j, E>
    at the int exponents E, and r_j^-p as the int pair (numerator,
    denominator), from powers of `_root_ratio`, which stay reduced."""
    moves = []
    for step, support in zip(datum.pairings(exps), datum._root_support):
        over, under = _root_ratio(support, nums, dens)  # r_j^-1 = under/over
        row = [None]
        num, rden = 1, 1
        for p in range(1, top + 1):
            num *= under
            rden *= over
            row.append((-p * step, num, rden))
        moves.append(row)
    return moves


def _scaled_root(nums, dens, bound, k):
    """(K, K c_k): the scale K = prod_i (|n_i| d_i)^b_i, for c_i =
    n_i / d_i and b_i >= |mu_i| on the W-orbit of omega_k, which makes
    the coefficient prod_i c_i^mu_i of every orbit term integral, and
    the coefficient of omega_k times K, read by a `divmod`."""
    scale = math.prod((abs(c) * d) ** b for c, d, b in zip(nums, dens, bound))
    c, rem = divmod(scale * nums[k], dens[k])
    if rem:
        raise RuntimeError("scaled orbit coefficient is not integral")
    return scale, c


def _orbit_sums(datum, a):
    """The orbit sums at a of the fundamental weights, on ints: (D, orbits)
    with orbits[k] = (K, sums) for k < l.  The sum over the W-orbit of
    omega_k is the sum of (C / K) * pi^(E / D) over the items E: C of
    `sums`.

    With a_i = c_i * pi^v_i the term of mu is prod_i c_i^mu_i *
    pi^<mu, v>.  Each orbit replays its `_orbit_skeleton` from omega_k
    and carries both parts down it as ints: the exponent times the
    common denominator D of the v_i, by E(s_j mu) = E(mu) -
    mu_j <alpha_j, D v>, and the coefficient times the scale K of
    `_scaled_root`, multiplied by r_j^(-mu_j) with r_j =
    prod_i c_i^(alpha_j)_i.

    No `Fraction` is built: each c_i is read once as its int pair
    (numerator, denominator), and `_move_table` holds the steps and the
    powers r_j^-p as int pairs.  A step divides by the denominator of
    r_j^-p, and checks the remainder, only where that denominator is not
    1: an integral r_j^-p keeps the coefficient integral by construction.
    """
    n, l = datum.n, datum.l
    if len(a.values) != n:
        raise ValueError("torus point has wrong length")
    monos = [next(iter(x.terms.items())) for x in a.values]
    den, exps = scale_to_ints([v for v, _c in monos])
    nums = [c.numerator for _v, c in monos]
    dens = [c.denominator for _v, c in monos]
    bounds = datum.memo("orbit_coordinate_bounds", None,
                        _coordinate_bounds)
    moves = _move_table(datum, nums, dens, exps,
                        max(map(max, bounds), default=0))
    orbits = []
    for k in range(l):
        js, ps, depths, _ends, height = _orbit_skeleton(datum, k)
        scale, c = _scaled_root(nums, dens, bounds[k], k)
        e = exps[k]  # the root: omega_k is dominant
        es, cs, sums = [e] * (height + 1), [c] * (height + 1), {e: c}
        for j, p, depth in zip(js, ps, depths):
            step, num, rden = moves[j][p]
            e = es[depth - 1] + step
            if rden == 1:
                c = cs[depth - 1] * num
            else:
                c, rem = divmod(cs[depth - 1] * num, rden)
                if rem:
                    raise RuntimeError(
                        "scaled orbit coefficient is not integral")
            es[depth] = e
            cs[depth] = c
            sums[e] = sums.get(e, 0) + c
        orbits.append((scale, sums))
    return den, orbits


def _least_terms(datum, a, dom, word):
    """For each k < l, the least exponent E of the W-orbit sum of omega_k
    at a whose summed coefficient is not 0, or None when every level
    cancels, and the number of orbit terms with the least exponent
    before cancellation: [(E, first)], with E over the common
    denominator D of the exponents of a.

    `dom` and `word` are the dominant descent of D nu_a = -D v: the same
    word moves the point into the antidominant chamber, to the int
    exponents E = -dom.  Each step s_j sets v_j -= <alpha_j, v> and
    c_j /= r_j, read on int pairs by `_root_ratio`.  The term of each mu
    at the new point is that of s_j mu at the old one, so each orbit sum
    stays the same, and no step of `_move_table` lowers the exponent:
    -p <alpha_j, E> >= 0 for p > 0.
    So the exponent never falls along a path of `_orbit_skeleton` from
    omega_k.  The walk pops the skeleton best-first on a heap keyed by
    (exponent, node), one whole level at a time, sums the int
    coefficients of the level (scaled by `_scaled_root`, divided as in
    `_orbit_sums`), and stops at the first level whose sum is not 0.
    """
    coeffs = [next(iter(x.terms.values())) for x in a.values]
    nums = [c.numerator for c in coeffs]
    dens = [c.denominator for c in coeffs]
    support = datum._root_support
    for j in word:
        over, under = _root_ratio(support[j], nums, dens)
        num, rden = nums[j] * under, dens[j] * over
        g = math.gcd(num, rden)
        nums[j], dens[j] = num // g, rden // g
    exps = [-v for v in dom]
    bounds = datum.memo("orbit_coordinate_bounds", None,
                        _coordinate_bounds)
    moves = _move_table(datum, nums, dens, exps,
                        max(map(max, bounds), default=0))
    out = []
    for k in range(datum.l):
        js, ps, _depths, ends, _height = _orbit_skeleton(datum, k)
        size = len(js)
        heap = [(exps[k], -1, _scaled_root(nums, dens, bounds[k], k)[1])]
        least = first = None
        while heap:
            level = heap[0][0]
            total = count = 0
            while heap and heap[0][0] == level:
                e, i, c = heappop(heap)
                total += c
                count += 1
                child, stop = (i + 1, ends[i]) if i >= 0 else (0, size)
                while child < stop:
                    step, num, rden = moves[js[child]][ps[child]]
                    if rden == 1:
                        term = c * num
                    else:
                        term, rem = divmod(c * num, rden)
                        if rem:
                            raise RuntimeError(
                                "scaled orbit coefficient is not integral")
                    heappush(heap, (e + step, child, term))
                    child = ends[child]
            if first is None:
                first = count
            if total:
                least = level
                break
        out.append((least, first))
    return out


def eval_c(datum, a):
    """Values of the symmetric-orbit coordinates and their valuation vector.

    The first l values are the `LaurentPoly` of the `_orbit_sums`, the
    others the torus coordinates of a themselves."""
    den, orbits = _orbit_sums(datum, a)
    values = [LaurentPoly({Q(e, den): Q(c, scale) for e, c in sums.items()})
              for scale, sums in orbits]
    values += a.values[datum.l:]
    return values, tuple(v.val() for v in values)


def check_thm_rnu(datum, a):
    """End-to-end check: the retraction of the valuation vector of the orbit
    sums equals the dominant representative of nu_a, with the expected
    inequalities and strictness pattern.

    nu_a descends to its dominant representative on its int form D nu_a,
    and I_mu is read there.  The valuation vector is d_c[k] = -E / D for
    k < l, E the least exponent of `_least_terms` (-inf when every level
    cancels), and the torus part of nu_a after; no `LaurentPoly` is
    built.  The walk reads only the orbit terms up to the first level
    that does not cancel.  That is enough because each orbit sum is
    W-invariant: it is the same at the point moved by the descent's word
    into the antidominant chamber, where every step -p <alpha_j, E> of
    the orbit walk is >= 0 (p > 0, <alpha_j, E> <= 0), so omega_k holds
    the least exponent and no path from it goes down."""
    nu = nu_a(datum, a)
    scale, ints = scale_to_ints(nu)
    dom, word = datum.dominant_rep(ints)
    least = _least_terms(datum, a, dom, word)
    d_c = tuple([NEG_INF if e is None else Q(-e, scale)
                 for e, _first in least]) + nu[datum.l:]
    y, _face = retract(datum, d_c)
    imu = face_of(datum, dom)[0]
    dom = tuple([Q(v, scale) for v in dom])
    # d_c <= dom, with equality off the face (imu holds indices < l only)
    ineq_ok = all(
        (v is NEG_INF or v <= dom[i]) and (i in imu or v == dom[i])
        for i, v in enumerate(d_c)
    )
    # strictness: away from the face, a unique orbit term attains the max
    # of <lam, nu_a>, i.e. the least exponent
    strict_ok = all(least[i][1] == 1 for i in range(datum.l) if i not in imu)
    ok = y == dom and ineq_ok and strict_ok
    return {
        "d_c": d_c,
        "retract": y,
        "nu_dominant": dom,
        "inequalities": ineq_ok,
        "strict_max_unique": strict_ok,
        "pass": ok,
    }


def random_torus_point(datum, rng, denominator=1):
    """Seeded monomial torus point with collision-prone coefficients."""
    coeffs = [Q(c) for c in (1, -1, 2, -2)]
    vals = []
    for _ in range(datum.n):
        c = rng.choice(coeffs)
        num = rng.randint(-3 * denominator, 3 * denominator)
        vals.append(LaurentPoly.monomial(c, Q(num, denominator)))
    return TorusPoint(tuple(vals))
