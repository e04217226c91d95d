"""The retraction onto the dominant chamber and the Newton point poset.

`retract` is the order-theoretic map: r(d) is the unique dominant point y
with p_M(d') = y and d' <= y, where M is the Levi attached to the face of
y and d' is the finite-ization of d.  It runs on integers from its read
of d: d' is built with its int form L d', each projection is
`RootDatum.solve` on the pairings of that int vector, so the running
point is the int vector den * L * y, and `Fraction`s are built once, for
the result.
`newton_points_below` walks the int points of each face by branch and
bound, on affine int forms whose linear parts are kept per datum in one
table of the faces, and certifies each point it finds from the values of
those forms at it.
"""

import math
from functools import cached_property
from itertools import groupby

from . import rootdata
from .rationals import NEG_INF, Q, fmt_point, qceil, scale_to_ints
from .rootdata import OrbitGuardError, record


class RetractionError(RuntimeError):
    """Internal consistency failure in the retraction (indicates a bug)."""


@record()
class NewtonPoint:
    """A dominant rational point with parabolic face and integral lift.

    `scaled` is its int form (L, L point), as `scale_to_ints` gives it:
    `is_newton_point` and `newton_points_below` fill it in, else it is
    built on first use.  It takes no part in `==`, `hash`, `repr` or
    `to_json`; `RootDatum.scaled` hands it to the readers, on ints."""

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
    retraction of d equals the retraction of the returned finite point,
    whose torus part is d's as `central_part` gives it, in `Fraction`s.
    """
    return tuple(_finite(datum, d)[0])


def _finite(datum, d):
    """(d', L, L d') for d' = finite_ize(d), d' as a list, with L the lcm
    of the scale L_z of the central part z and of the denominators of the
    finite d_i, i < l.

    d is read once, by `RootDatum.point`.  max{d_i - z_i, 0} + z_i
    collapses to max(d_i, z_i), decided by the value comparison
    d_i <= z_i.  d'_i is the object z_i or d_i (a `Fraction` built only
    for a d_i that wins and is not one), and L d'_i is filled on ints:
    from the int form L_z z of `RootDatum.central_forms`, scaled by
    L / L_z, or as d_i's numerator times L / (d_i's denominator)."""
    d = datum.point(d, neg_inf=True)
    l = datum.l
    z, (zscale, zints) = datum.central_forms(d[l:])
    scale = math.lcm(zscale,
                     *[di.denominator for di in d[:l] if di is not NEG_INF])
    step = scale // zscale
    dprime = list(z)
    x = [v * step for v in zints]
    for i in range(l):
        di = d[i]
        if di is NEG_INF or di <= z[i]:
            continue
        dprime[i] = di if type(di) is Q else Q(di)
        x[i] = di.numerator * (scale // di.denominator)
    return dprime, scale, x


def _accepts(datum, dprime, x, px, subset):
    """Candidate test for one parabolic face, on d', its int form x and the
    pairings px of x; returns y = p_M(d') on acceptance.  As in `retract`,
    the signs are read on ints: c_j <= 0 (d' <= y) and <alpha_j, den L y>
    > 0 off the face."""
    _idx, _den, c, y = datum.solve(subset, x, px)
    if any(cj > 0 for cj in c) or any(
            p <= 0 for j, p in enumerate(datum.pairings(y)) if j not in subset):
        return None
    return datum.p_M(dprime, subset)


def retract_exhaustive(datum, d):
    """Subset enumeration with a hard uniqueness check: the reference that
    tests compare `retract` against."""
    if datum.l > 8:
        raise ValueError("semisimple rank too large for subset enumeration")
    dprime, _scale, x = _finite(datum, d)
    px = datum.pairings(x)
    hits = []
    for mask in range(1 << datum.l):
        subset = frozenset(j for j in range(datum.l) if mask >> j & 1)
        y = _accepts(datum, dprime, x, px, subset)
        if y is not None:
            hits.append((y, subset))
    if len(hits) != 1:
        raise RetractionError(f"{len(hits)} accepting faces for {d!r}")
    return hits[0]


def face_of(datum, y):
    """(S, N) for a finite point y: S is its face, the simple roots pairing
    to zero with y, and N the simple roots pairing negatively with it.
    y is dominant exactly when N is empty."""
    pairings = datum.pairings(y)
    return (frozenset([j for j, p in enumerate(pairings) if p == 0]),
            frozenset([j for j, p in enumerate(pairings) if p < 0]))


def retract(datum, d):
    """r(d) for d with -inf allowed in the first l slots.

    Returns (y, S) with S the face of y.  Everything from the read of d
    on runs on ints.  d' = finite_ize(d) comes with its int form x = L d'
    (`_finite`): the clamp compares d_i with the central part z_i as
    values, and x is filled from the memoized int form of z and the
    numerators of the d_i that win.  The pairings of x are read once.
    The active set starts empty; each round adds the simple roots that
    pair negatively with the running point and projects x onto them with
    `RootDatum.solve` on those pairings: c = adj . [<alpha_j, x>] for the
    solver (idx, adj, den) of the active set, and the point is den x with
    c_j subtracted at each j in idx, that is den L y with
    y = d' - sum (c_j / den L) e_j.  The pairings of each new point are
    read from that point.  The set grows strictly, so there are at most l
    projections.  The last one certifies itself on ints: no simple root
    pairs negatively with the point, the active set lies in its face, and
    every c_j <= 0 with den > 0 (that is d' <= y), so p_M(d') over the
    face is y.  A failed certificate raises RetractionError.

    `Fraction`s are built only for the result: d'_i is z_i, or d_i
    itself, or `Q(d_i)` for an int d_i that wins the clamp, and the
    coordinates j in idx are y_j / den L.  With no projection y is d'.

    The likely route to c_j <= 0: the inverse of a Cartan matrix of finite
    type is nonnegative (G. Lusztig and J. Tits, 1992), so every solver
    has adj >= 0 and den > 0, as the tests check on every Levi block.
    The certificate, not that argument, is the guarantee.
    """
    return _retract(datum, d)[0]


def _retract(datum, d):
    """`retract`'s rounds: ((y, S), (den L, den L y)), the result and the
    int form of y it was computed on, not reduced."""
    dprime, scale, x = _finite(datum, d)
    pairings = datum.pairings
    px = p = pairings(x)
    active = frozenset()
    y, idx, den, coeffs = x, [], 1, []
    while True:
        negative = {j for j, v in enumerate(p) if v < 0}
        if negative <= active:
            break
        active |= negative
        idx, den, coeffs, y = datum.solve(active, x, px)
        p = pairings(y)
    face = frozenset([j for j, v in enumerate(p) if v == 0])
    if (negative or not active <= face or den <= 0
            or any(c > 0 for c in coeffs)):
        raise RetractionError(f"retraction of {d!r} fails its certificate")
    scale *= den
    for j in idx:
        dprime[j] = Q(y[j], scale)
    return (tuple(dprime), face), (scale, y)


def is_newton_point(datum, y):
    """Certify y as a Newton point, or return None.

    In omega-coordinates the lattice condition reduces to integrality of
    the coordinates away from the face.  A point of the wrong length or
    with -inf coordinates is not one.  y is read once, as the int form
    (L, L y) of `RootDatum.scaled`, and `_certify` decides on that form.
    """
    try:
        form = datum.scaled(y)
    except ValueError:
        return None
    return _certify(datum, form)


def _certify(datum, form):
    """The `_newton_point` of a point y's int form (L, L y), reduced as by
    `scale_to_ints`, or None.  RuntimeError unless p_M(lift) = y, on ints."""
    scale, ints = form
    face, negative = face_of(datum, ints)
    if negative or any(v % scale for i, v in enumerate(ints) if i not in face):
        return None
    lift = tuple([v // scale for v in ints])
    np = _newton_point(form, face, lift)
    _idx, den, _c, y = datum.solve(face, lift, datum.pairings(lift))
    if any(v * scale != den * w for v, w in zip(y, ints)):
        raise RuntimeError(f"lift {lift!r} does not project to {np.point!r}")
    return np


def _newton_point(form, face, lift):
    """The NewtonPoint of a reduced int form, carried as its `scaled`."""
    scale, ints = form
    point = list(lift)
    for j in face:
        point[j] = Q(ints[j], scale)
    np = NewtonPoint(tuple(point), face, lift)
    vars(np)["scaled"] = form  # the slot `cached_property` fills
    return np


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
    first l slots): `_certify` of the int form that `retract` computed
    its result on, reduced by its gcd to the form `scale_to_ints` gives
    of the result.  RetractionError if it does not certify."""
    _result, (scale, ints) = _retract(
        datum, datum.point(d, neg_inf=True, integral=True))
    g = math.gcd(scale, *ints)
    np = _certify(datum, (scale // g, tuple([v // g for v in ints])))
    if np is None:
        raise RetractionError("retraction of an integral vector must certify")
    return np


def newton_points_below(datum, mu):
    """All Newton points nu <= mu, each with certificate; ValueError if
    the point of mu, a NewtonPoint or not, is not a Newton point.

    The dominant points below mu are pinched coordinatewise between the
    central part of mu and mu.  So a Newton point nu with face S is p_M(m)
    for one int m: zero on S, in the box lo_i <= m_i <= hi_i at the free i
    (not in S), hi_i read off mu's int form, and mu's in the torus slots.
    `_face_walk` finds these m by branch and bound, face by face, on the
    int forms of the face (`_faces`), with D the denominator of the
    solver of S.  Their constant terms come from one `RootDatum.solve` of
    the base point on each face, on the pairings of the base point read
    once per call.  Each m comes with the values of the forms at m, and
    D nu is read off them: D m off S, and floor(D mu_j) less the value
    of the cap form of j at each j in S.  Three checks on D nu and its
    own pairings certify the point: the caps D nu_j <= floor(D mu_j) for
    j in S, <alpha_j, D nu> > 0 off S, and <alpha_j, D nu> = 0 on S.
    D nu - D m lies on the coordinates in S, where the Cartan block is
    invertible, so the last check pins D nu to D p_M(m).  A failed check
    raises RuntimeError, and so does a point found under two faces, as an
    accepted nu has face exactly S.  Points are told apart by their
    reduced int forms (D / g, D nu / g), g the gcd of D and D nu, which
    each NewtonPoint keeps as its `scaled`; the result is sorted on these
    over the lcm of their scales, the order of the `Fraction` tuples.

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
    l = datum.l
    scale, ints = top.scaled
    lo = [qceil(c) for c in datum.central_part(top.point[l:])[:l]]
    hi = [v // scale for v in ints[:l]]
    base = [0] * l + [v // scale for v in ints[l:]]
    pairings = datum.pairings
    pbase = pairings(base)
    found = {}  # reduced int form -> NewtonPoint
    for face in datum.memo("faces", None, _faces):
        subset, free, idx, den, _cols, _terms = face
        caps = [den * ints[j] // scale for j in idx]  # floor(D mu_j)
        _idx, _den, c, y = datum.solve(subset, base, pbase)
        py = pairings(y)
        const = [cj + cap for cj, cap in zip(c, caps)]
        const += [py[j] - 1 for j in free]
        for m, sums in _face_walk(face, const, lo, hi, base):
            dnu = [den * v for v in m]
            for j, cap, s in zip(idx, caps, sums):
                dnu[j] = cap - s
            pairs = pairings(dnu)
            if (any(dnu[j] > cap for j, cap in zip(idx, caps))
                    or any(pairs[j] <= 0 for j in free)):
                raise RuntimeError(f"{m!r} passes the walk on the face"
                                   f" {sorted(subset)} but not its checks")
            if any(pairs[j] for j in idx):
                raise RuntimeError(
                    f"p_M({m!r}) leaves the face {sorted(subset)}")
            g = math.gcd(den, *dnu)
            form = (den // g, tuple([v // g for v in dnu]))
            if form in found:
                raise RuntimeError(f"{fmt_point(found[form].point)} found"
                                   " under two faces")
            found[form] = _newton_point(form, subset, m)
    common = math.lcm(*(d for d, _ints in found))
    return [found[form] for form in sorted(
        found, key=lambda f: tuple([v * (common // f[0]) for v in f[1]]))]


def _faces(datum):
    """Every face S of the datum, a subset of the simple roots, once, as
    (S, free, idx, D, cols, terms): the free indices (not in S), the
    sorted indices and denominator of the solver of S, and the linear
    parts of the forms of `_face_walk` on S (`_unit_forms`)."""
    l = datum.l
    faces = []
    for mask in range(1 << l):
        subset = frozenset(j for j in range(l) if mask >> j & 1)
        free = [i for i in range(l) if i not in subset]
        idx, _adj, den = datum.pm_solver(subset)
        faces.append((subset, free, idx, den)
                     + _unit_forms(datum, subset, free))
    return tuple(faces)


def _face_walk(face, const, lo, hi, base):
    """The int points m of a face S whose p_M meets the checks of
    `newton_points_below`, each as (m, sums): m a tuple, and sums the
    values of the face's forms at m.

    With (idx, adj, D) the solver of S, `RootDatum.solve` of m gives the
    coefficients c and D nu as int vectors linear in m.  So each check is
    an affine int form in the free coordinates that must be >= 0: the
    caps c_j + floor(D mu_j) for j in S, and <alpha_j, D nu> - 1 for j
    off S.  `const` holds their values at the base point, and the face's
    `cols` and `terms` (`_faces`) their linear parts.  The free
    coordinates are then fixed depth first.  At each node the next one
    runs over the interval of its box range on which every form can still
    be met with some box values of the coordinates after it; the interval
    is read off each form's coefficient at that coordinate.  An empty
    interval prunes the branch, and every leaf meets every form.
    """
    _subset, free, _idx, _den, cols, terms = face
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
        return [(tuple(base), const)]
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
        col = cols[p]
        if p == k - 1:
            for v in range(a, b + 1):
                m[i] = v
                leaves.append(
                    (tuple(m), [s + f * v for s, f in zip(sums, col)]))
            return
        for v in range(a, b + 1):
            m[i] = v
            descend(p + 1, [s + f * v for s, f in zip(sums, col)])

    descend(0, const)
    return leaves


def _unit_forms(datum, subset, free):
    """The linear parts of the forms of `_face_walk` on a face: for each
    free i the row of coefficients of m_i, from `RootDatum.solve` of the
    unit vector e_i (its pairings are row i of alpha), and its nonzero
    entries as (form, coefficient) pairs."""
    cols = []
    for i in free:
        unit = [int(k == i) for k in range(datum.n)]
        _idx, _den, c, y = datum.solve(subset, unit, datum.alpha[i])
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
