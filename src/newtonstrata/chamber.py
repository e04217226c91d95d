"""The retraction onto the dominant chamber and the Newton point poset.

`retract` is the order-theoretic map: r(d) is the unique dominant point y
with p_M(d') = y and d' <= y, where M is the Levi attached to the face of
y and d' is the finite-ization of d.  It runs on integers: d' is scaled
once by the lcm L of its denominators, each projection is
`RootDatum.project` of that int vector, so the running point is the int
vector den * L * y, and `Fraction`s are built once, for the result.
`newton_points_below` walks the int points of each face by branch and
bound, on affine int forms built from `project` of the base point and the
unit vectors, and certifies each point it finds with `project` again.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from . import rootdata
from .rationals import (
    NEG_INF, Q, fmt_point, qceil, qfloor, scale_to_ints)
from .rootdata import OrbitGuardError


class RetractionError(RuntimeError):
    """Internal consistency failure in the retraction (indicates a bug)."""


@dataclass(frozen=True)
class NewtonPoint:
    """A dominant rational point with parabolic face and integral lift.

    `scaled` is its int form (L, L point), as `scale_to_ints` gives it,
    built on first use or filled in by `newton_points_below`.  It takes
    no part in `==`, `hash`, `repr` or `to_json`.  `RootDatum.scaled`
    hands it to the readers, which compare and floor on ints."""

    point: tuple
    levi: frozenset  # indices j with <alpha_j, point> = 0
    lift: tuple  # integral cocharacter with p_M(lift) = point

    @cached_property
    def scaled(self):
        return scale_to_ints(self.point)

    def to_json(self):
        return {
            "point": fmt_point(self.point),
            "levi": sorted(j + 1 for j in self.levi),
            "lift": [int(m) for m in self.lift],
        }


def finite_ize(datum, d):
    """The d -> d' map: clamp the semisimple part from below by the center.

    Valid for inputs with -inf allowed in the first l slots only; the
    retraction of d equals the retraction of the returned finite point.
    """
    d = datum.point(d, neg_inf=True)
    l = datum.l
    torus = tuple(Q(c) for c in d[l:])
    g = datum.central_part(torus)
    out = []
    for i in range(l):
        di = d[i]
        gi = g[i]
        # max{d_i - g_i, 0} + g_i collapses to max(d_i, g_i)
        if di is NEG_INF or di <= gi:
            out.append(gi)
        else:
            out.append(Q(di))
    return tuple(out) + torus


def _accepts(datum, dprime, subset):
    """Candidate test for one parabolic face; returns y = p_M(d') on
    acceptance.  As in `retract`, the signs are read on ints: c_j <= 0
    (d' <= y) and <alpha_j, den L y> > 0 off the face."""
    _idx, _den, c, y = datum.project(subset, scale_to_ints(dprime)[1])
    if any(cj > 0 for cj in c):
        return None
    for j in range(datum.l):
        if j not in subset and datum.root_pairing(j, y) <= 0:
            return None
    return datum.p_M(dprime, subset)


def retract_exhaustive(datum, d):
    """Subset enumeration with a hard uniqueness check: the reference that
    tests compare `retract` against."""
    if datum.l > 8:
        raise ValueError("semisimple rank too large for subset enumeration")
    dprime = finite_ize(datum, d)
    hits = []
    for mask in range(1 << datum.l):
        subset = frozenset(j for j in range(datum.l) if mask >> j & 1)
        y = _accepts(datum, dprime, subset)
        if y is not None:
            hits.append((y, subset))
    if len(hits) != 1:
        raise RetractionError(f"{len(hits)} accepting faces for {d!r}")
    return hits[0]


def face_of(datum, y):
    """(S, N) for a finite point y: S is its face, the simple roots pairing
    to zero with y, and N the simple roots pairing negatively with it.
    y is dominant exactly when N is empty."""
    pairings = [datum.root_pairing(j, y) for j in range(datum.l)]
    return (frozenset(j for j, p in enumerate(pairings) if p == 0),
            frozenset(j for j, p in enumerate(pairings) if p < 0))


def retract(datum, d):
    """r(d) for d with -inf allowed in the first l slots.

    Returns (y, S) with S the face of y.  d' = finite_ize(d) is scaled once
    to the int vector x = L d'.  The active set starts empty; each round
    adds the simple roots that pair negatively with the running point and
    projects onto them with `RootDatum.project`: c = adj . [<alpha_j, x>]
    for the solver (idx, adj, den) of the active set, and the point is
    den x with c_j subtracted at each j in idx, that is den L y with
    y = d' - sum (c_j / den L) e_j.  The set grows strictly, so there are
    at most l projections.  The last one certifies itself on ints: no
    simple root pairs negatively with the point, the active set lies in
    its face, and every c_j <= 0 with den > 0 (that is d' <= y), so p_M(d')
    over the face is y.  A failed certificate raises RetractionError.  The
    coordinates j in idx of the result are built once, as `Fraction`s
    y_j / den L; with no projection y is d'.

    The likely route to c_j <= 0: the inverse of a Cartan matrix of finite
    type is nonnegative (G. Lusztig and J. Tits, 1992), so every solver
    has adj >= 0 and den > 0, as the tests check on every Levi block.
    The certificate, not that argument, is the guarantee.
    """
    dprime = finite_ize(datum, d)
    scale, x = scale_to_ints(dprime)
    active = frozenset()
    y, idx, den, coeffs = x, [], 1, []
    while True:
        face, negative = face_of(datum, y)
        if negative <= active:
            break
        active |= negative
        idx, den, coeffs, y = datum.project(active, x)
    if (negative or not active <= face or den <= 0
            or any(c > 0 for c in coeffs)):
        raise RetractionError(f"retraction of {d!r} fails its certificate")
    out = list(dprime)
    for j in idx:
        out[j] = Q(y[j], den * scale)
    return tuple(out), face


def is_newton_point(datum, y):
    """Certify y as a Newton point, or return None.

    In omega-coordinates the lattice condition reduces to integrality of
    the coordinates away from the face.  A point of the wrong length or
    with -inf coordinates is not one.
    """
    try:
        y = tuple(Q(c) for c in datum.point(y))
    except ValueError:
        return None
    face, negative = face_of(datum, scale_to_ints(y)[1])
    if negative:
        return None
    lift = []
    for i, c in enumerate(y):
        if i in face:
            lift.append(qfloor(c))
        else:
            if c.denominator != 1:
                return None
            lift.append(int(c))
    lift = tuple(lift)
    if datum.p_M(lift, face) != y:
        raise RuntimeError(f"lift {lift!r} does not project to {y!r}")
    return NewtonPoint(y, face, lift)


def point_of(x):
    """The coordinates of a NewtonPoint, or of a plain point, as a tuple."""
    return x.point if isinstance(x, NewtonPoint) else tuple(x)


def newton_point(datum, x):
    """x as a certified NewtonPoint: x itself if it is one, else the
    certificate of is_newton_point.  ValueError if x is not a Newton point.

    A NewtonPoint is trusted after a length check, and carries its scaled
    ints (`NewtonPoint.scaled`): a certificate per point of a poset would
    cost `stratum_conditions` and `d_levi_check` about as much as
    `newton_points_below`, which certifies the point of its own mu."""
    if isinstance(x, NewtonPoint):
        datum.scaled(x)  # the length check
        return x
    np = is_newton_point(datum, x)
    if np is None:
        raise ValueError(f"not a Newton point of {datum.label}")
    return np


def stratum_of(datum, d):
    """Newton point of an integral valuation vector (-inf allowed in the
    first l slots)."""
    y, _face = retract(datum, datum.point(d, neg_inf=True, integral=True))
    np = is_newton_point(datum, y)
    if np is None:
        raise RetractionError("retraction of an integral vector must certify")
    return np


def newton_points_below(datum, mu):
    """All Newton points nu <= mu, each with certificate; ValueError if
    the point of mu, a NewtonPoint or not, is not a Newton point.

    The dominant points below mu are pinched coordinatewise between the
    central part of mu and mu itself.  So a Newton point nu with face S is
    p_M(m) for one int m: zero on S, in the box lo_i <= m_i <= hi_i at the
    free i (not in S), and equal to mu in the torus slots.  `_face_walk`
    finds these m by branch and bound, face by face.  At each m it
    returns, `RootDatum.project` gives D nu on ints (D the denominator of
    the solver of S), and three checks certify the point: the caps
    D nu_j <= floor(D mu_j) for j in S, <alpha_j, D nu> > 0 off S, and
    <alpha_j, D nu> = 0 on S.  A failed check raises RuntimeError, and so
    does a point found under two faces, as an accepted nu has face
    exactly S.  Points are told apart by their reduced int forms
    (D / g, D nu / g), g the gcd of D and D nu, which each NewtonPoint
    keeps as its `scaled`; the result is sorted on these over the lcm of
    their scales, the order of the `Fraction` tuples.

    Guard: on each face the walk counts the box values it tries, the
    width of the next coordinate's box range at every node it visits, so
    the count bounds the nodes it visits.  With box widths w_1, ..., w_k
    on the face the count is at most w_1 + w_1 w_2 + ... + w_1 ... w_k:
    the box product, which box enumeration tested in full and compared
    with the guard, plus the sizes of its prefix boxes (under twice the
    box product when every width is at least 2).  In practice pruning
    keeps it far below the box product: summed over the faces, 36,203
    values tried against 5,702,400 box points for E8 at the retract of
    (3, ..., 3).  Past `rootdata.GUARD` on one face it raises
    OrbitGuardError.
    """
    top = newton_point(datum, point_of(mu))
    point = top.point
    l = datum.l
    z = datum.central_part(point[l:])
    lo = [qceil(z[i]) for i in range(l)]
    hi = [qfloor(point[i]) for i in range(l)]
    base = [0] * l + [int(c) for c in point[l:]]
    scale, ints = top.scaled
    found = {}  # reduced int form -> NewtonPoint
    for mask in range(1 << l):
        subset = frozenset(j for j in range(l) if mask >> j & 1)
        free = [i for i in range(l) if i not in subset]
        idx, _adj, den = datum.pm_solver(subset)
        caps = [den * ints[j] // scale for j in idx]  # floor(D mu_j)
        for m in _face_walk(datum, subset, free, caps, lo, hi, base):
            _idx, _den, c, dnu = datum.project(subset, m)
            if (any(-cj > cap for cj, cap in zip(c, caps))
                    or any(datum.root_pairing(j, dnu) <= 0 for j in free)):
                raise RuntimeError(f"{m!r} passes the walk on the face"
                                   f" {sorted(subset)} but not its checks")
            if any(datum.root_pairing(j, dnu) for j in idx):
                raise RuntimeError(
                    f"p_M({m!r}) leaves the face {sorted(subset)}")
            g = math.gcd(den, *dnu)
            form = (den // g, tuple([v // g for v in dnu]))
            nu = list(m)
            for j in idx:
                nu[j] = Q(dnu[j], den)
            nu = tuple(nu)
            if form in found:
                raise RuntimeError(f"{fmt_point(nu)} found under two faces")
            np = found[form] = NewtonPoint(nu, subset, m)
            vars(np)["scaled"] = form  # the slot `cached_property` fills
    common = math.lcm(*(d for d, _ints in found))
    return [found[form] for form in sorted(
        found, key=lambda f: tuple([v * (common // f[0]) for v in f[1]]))]


def _face_walk(datum, subset, free, caps, lo, hi, base):
    """The int points m of the face S = `subset` whose p_M meets the
    checks of `newton_points_below`, as tuples.

    With (idx, adj, D) the solver of S, `project` of m gives the
    coefficients c and D nu as int vectors linear in m.  So each check is
    an affine int form in the free coordinates that must be >= 0: the
    caps c_j + floor(D mu_j) for j in S (`caps`), and <alpha_j, D nu> - 1
    for j off S.  Their constant terms come from `project` of the base
    point, their linear parts from `_unit_forms`.  The free coordinates
    are then fixed depth first.  At each node the next one runs over the
    interval of its box range on which every form can still be met with
    some box values of the coordinates after it; the interval is read off
    each form's coefficient at that coordinate.  An empty interval prunes
    the branch, and every leaf meets every form.
    """
    _idx, _den, c, y = datum.project(subset, base)
    const = [cj + cap for cj, cap in zip(c, caps)]
    const += [datum.root_pairing(j, y) - 1 for j in free]
    cols, terms = datum.memo("face_forms", subset, _unit_forms, subset,
                             free)
    k = len(free)
    # rest[p][r]: the most that the coordinates from p on add to form r
    rest = [[0] * len(const)]
    for p in reversed(range(k)):
        a, b = lo[free[p]], hi[free[p]]
        if a > b:
            return []
        rest.append([s + max(f * a, f * b)
                     for s, f in zip(rest[-1], cols[p])])
    rest.reverse()
    if any(s + t < 0 for s, t in zip(const, rest[0])):
        return []
    if k == 0:
        return [tuple(base)]
    count, guard = 0, rootdata.GUARD
    m = list(base)
    leaves = []

    def descend(p, sums):
        nonlocal count
        i, after = free[p], rest[p + 1]
        a, b = lo[i], hi[i]
        count += b - a + 1
        if count > guard:
            raise OrbitGuardError(f"lattice enumeration exceeds guard {guard}")
        for r, f in terms[p]:
            need = -sums[r] - after[r]  # f * m_i >= need
            if f > 0:
                a = max(a, -(-need // f))
            else:
                b = min(b, need // f)
        if p == k - 1:
            for v in range(a, b + 1):
                m[i] = v
                leaves.append(tuple(m))
            return
        col = cols[p]
        for v in range(a, b + 1):
            m[i] = v
            descend(p + 1, [s + f * v for s, f in zip(sums, col)])

    descend(0, const)
    return leaves


def _unit_forms(datum, subset, free):
    """The linear parts of the forms of `_face_walk` on a face: for each
    free i the row of coefficients of m_i, from `project` of the unit
    vector e_i, and its nonzero entries as (form, coefficient) pairs."""
    cols = []
    for i in free:
        unit = [0] * datum.n
        unit[i] = 1
        _idx, _den, c, y = datum.project(subset, unit)
        cols.append(c + [datum.root_pairing(j, y) for j in free])
    return cols, [[(r, f) for r, f in enumerate(col) if f] for col in cols]


def hasse(datum, points):
    """Covering relations of <= on a list of NewtonPoints or finite points
    (index pairs); ValueError on a point that `RootDatum.scaled` refuses.

    b covers a when a <= b, b is not a itself (as an index), and no third
    index c has a <= c <= b.  So two copies of a point cover each other,
    and a point with three or more copies takes part in no edge.

    The points are compared as int tuples over one common denominator,
    the lcm of the scales of their `RootDatum.scaled` forms (the one a
    NewtonPoint carries, unchecked but for its length), at positions
    sorted by head sum (the first l coordinates): a linear extension,
    since a <= b for distinct points makes a's sum smaller.
    `up[k]` is an int bitmask over positions: the other positions with
    k's tail whose heads are >= k's in every coordinate, the AND of one
    suffix-OR mask per coordinate.  The covers of k are then the least
    positions of `up[k]` that no earlier one reaches, less those with a
    copy in `up[k]`, since copies lie between each other.
    """
    forms = [datum.scaled(p) for p in points]
    l = datum.l
    common = math.lcm(*(d for d, _ints in forms))
    rows = [ints if d == common else tuple([v * (common // d) for v in ints])
            for d, ints in forms]
    order = sorted(range(len(rows)), key=lambda a: sum(rows[a][:l]))
    rows = [rows[a] for a in order]
    copies, tails = {}, {}  # positions of each point, of each tail
    for k, row in enumerate(rows):
        copies[row] = copies.get(row, 0) | 1 << k
        tails[row[l:]] = tails.get(row[l:], 0) | 1 << k
    up = [tails[row[l:]] & ~(1 << k) for k, row in enumerate(rows)]
    for i in range(l):
        ge = 0
        by = sorted(range(len(rows)), key=lambda k: -rows[k][i])
        for _v, tie in groupby(by, key=lambda k: rows[k][i]):
            tie = list(tie)
            for k in tie:
                ge |= 1 << k
            for k in tie:
                up[k] &= ge
    edges = []
    for k, rest in enumerate(up):
        reach = 0
        while rest:
            c = (rest & -rest).bit_length() - 1
            reach |= up[c]
            rest &= ~reach & ~(1 << c)
            if not up[k] & copies[rows[c]] & ~(1 << c):
                edges.append((order[k], order[c]))
    return sorted(edges)


def hasse_dot(datum, points):
    """DOT digraph, nodes labeled by slope tuples, edges small -> large."""
    labels = [",".join(fmt_point(point_of(p))) for p in points]
    lines = ["digraph newton {"]
    for i, lab in enumerate(labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for a, b in hasse(datum, points):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
