"""Cross-check oracles that live with the tests, not in the library.

`retract_closest` recomputes the retraction as the nearest dominant point
under the W-invariant Euclidean form.  It shares nothing with
`chamber.retract` beyond the root datum, so agreement between the two is
an independent check.  Its per-datum tables are cached in this module.

`newton_points_below` and `hasse` are the Fraction forms of the
enumerator and of the covering relation in `chamber`: a recursive box
walk that projects every candidate with the public `p_M` and compares
points with this module's `leq`, and an O(N^3) transitive reduction.
`hasse_by_rank` reads the covers of a full down-set off Chai's rank
function instead: b covers a exactly when a <= b and
`dim_leq(b) = dim_leq(a) + 1`.  It compares adjacent rank levels only,
so it checks `hasse` on posets too big for the transitive reduction.

`leq`, `is_dominant`, `dim_leq`, `codim`, `d_G`, `codim_chai` and
`d_levi` are the `Fraction` forms of the readers that the library runs
on int forms (`RootDatum.scaled`): a `Fraction` comparison, pairing,
floor or `frac_part` per coordinate, and ceil(mu_i - nu_i) on the
rational difference.  They take plain points and check nothing.

`simple_reflection`, `weyl_product`, `compose` and `affine_generator`
build Weyl and affine Weyl elements as full matrices and multiply them.
The library moves only a point by formula and reads each Weyl element
off the dominant descent of that point; these are the references for
`dominant_rep`, `alcove_reduce` and `weyl_word`.  The highest root in
`affine_generator` comes from root strings (`positive_roots`) and its
coroot from the invariant form, not from the library's affine tables,
which take theta^vee from `dominant_rep`.  `section_closed_form` gives
the element that fixes the base alcove in the class of a lift with no
walk at all (Iwahori-Matsumoto): its translation is the one integral
vertex of the closed alcove in the lift's class, and its linear part the
descent of an interior point minus that vertex.  It shares no code with
`affine`, so it checks `section_s` and reaches lifts past the walk's
guard.

`weyl_orbit` is the breadth-first orbit walk with a visited set, the
reference for the reverse search `RootDatum.orbit_tree`; `eval_char`
evaluates one character at a torus point, the reference for the orbit
sums that `toruseval` carries down that walk.  `charpoly` is the
`Fraction` Faddeev-LeVerrier form of the integer `exactlinalg.charpoly`,
and `det` a cofactor expansion to check both against.

`fraction_inverse` is Gauss-Jordan over `Fraction`: the KKT oracle's
rational invariant form is inverted with it, so `retract_closest` shares
no solver with the library, and it is the reference for the Smith-form
`exactlinalg.inverse`.

`change_extension` re-chooses the extensions of the fundamental weights
(acceptance criterion 7) and `slopes_to_coords` turns GL_n slopes into
omega-coordinates (criterion 1); only the tests use either.
"""

import functools
import itertools

from newtonstrata import dynkin, exactlinalg
from newtonstrata.affine import AffineWeylElement
from newtonstrata.chamber import NewtonPoint, RetractionError, is_newton_point
from newtonstrata import rootdata
from newtonstrata.rationals import NEG_INF, Q, frac_part, qceil, qfloor
from newtonstrata.rootdata import OrbitGuardError, RootDatum, WeylElement
from newtonstrata.toruseval import LaurentPoly


@functools.cache
def invariant_form(datum):
    """Gram matrix of the W-invariant form in omega-coordinates.

    Bourbaki root-length normalization on each semisimple factor,
    orthogonal identity form on the torus coordinates.
    """
    n, l = datum.n, datum.l
    gram_ss = [[Q(0)] * l for _ in range(l)]
    for f in datum.factors:
        norms = dynkin.root_norms(f.letter, f.rank)
        cm = dynkin.cartan_matrix(f.letter, f.rank)
        for a in range(f.rank):
            for b in range(f.rank):
                # (alpha_a^vee, alpha_b^vee) = 2 C[a][b] / norm_b
                gram_ss[f.indices[a]][f.indices[b]] = 2 * Q(cm[a][b]) / norms[b]
    # semisimple components of the basis vectors
    ss_parts = []
    for i in range(n):
        if i < l:
            ss_parts.append(tuple(Q(int(i == k)) for k in range(l)))
        else:
            z = datum.central_part(
                tuple(Q(int(i - l == t)) for t in range(n - l))
            )
            e = [Q(0)] * n
            e[i] = Q(1)
            ss_parts.append(tuple(e[k] - z[k] for k in range(l)))
    form = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            val = sum(
                ss_parts[i][a] * gram_ss[a][b] * ss_parts[j][b]
                for a in range(l)
                for b in range(l)
                if ss_parts[i][a] and gram_ss[a][b]
            )
            if i >= l and j >= l:
                val += Q(int(i == j))
            form[i][j] = val
    return form


def fraction_inverse(mat):
    """Inverse of a square rational matrix by Gauss-Jordan over `Fraction`;
    ValueError if it is singular."""
    n = len(mat)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


@functools.cache
def form_duals(datum):
    """Dual vectors v_j with B(v_j, .) = <alpha_j, .>."""
    forminv = fraction_inverse(invariant_form(datum))
    return [mat_vec(forminv, datum.root_coords(j)) for j in range(datum.l)]


@functools.cache
def kkt_solver(datum, subset):
    """Sorted face indices and the inverse of the KKT matrix on that face."""
    duals = form_duals(datum)
    idx = sorted(subset)
    mat = [[datum.root_pairing(j, duals[jp]) for jp in idx] for j in idx]
    return idx, fraction_inverse(mat)


def retract_closest(datum, x):
    """Nearest dominant point under the invariant Euclidean form.

    Face enumeration: for each candidate active set solve the equality
    constrained projection and accept when the KKT conditions hold.
    Independent of `retract` (and must agree with it).
    """
    if datum.l > 8:
        raise ValueError("semisimple rank too large for face enumeration")
    if any(c is NEG_INF for c in x):
        raise ValueError("retract_closest needs finite coordinates")
    x = tuple(Q(c) for c in x)
    duals = form_duals(datum)
    accepted = []
    for mask in range(1 << datum.l):
        subset = frozenset(j for j in range(datum.l) if mask >> j & 1)
        idx, inv = kkt_solver(datum, subset)
        b = [datum.root_pairing(j, x) for j in idx]
        lam = [
            -sum(inv[r][k] * b[k] for k in range(len(b))) for r in range(len(b))
        ]
        if any(v < 0 for v in lam):
            continue
        y = list(x)
        for pos, j in enumerate(idx):
            if lam[pos]:
                vj = duals[j]
                for k in range(datum.n):
                    y[k] += lam[pos] * vj[k]
        y = tuple(y)
        if all(
            datum.root_pairing(j, y) >= 0
            for j in range(datum.l)
            if j not in subset
        ):
            accepted.append(y)
    if not accepted or any(y != accepted[0] for y in accepted):
        raise RetractionError("KKT face enumeration did not pin a unique point")
    return accepted[0]


def simple_reflection(datum, j):
    """s_j : x -> x - <alpha_j, x> e_j as a full matrix."""
    n = datum.n
    rows = [[int(i == k) for k in range(n)] for i in range(n)]
    rows[j] = [rows[j][k] - datum.alpha[k][j] for k in range(n)]
    return WeylElement(tuple(tuple(r) for r in rows))


def compose(x, y):
    """The product x * y (apply y first) of two Weyl elements or of two
    affine Weyl elements."""
    if isinstance(x, AffineWeylElement):
        t = tuple(a + b for a, b in zip(x.translation,
                                        x.linear.act(y.translation)))
        return AffineWeylElement(t, compose(x.linear, y.linear))
    return WeylElement(tuple(
        tuple(r) for r in exactlinalg.mat_mul(x.matrix, y.matrix)))


def matrix_order(m, cap=10000):
    """The least k >= 1 with m^k = 1, by repeated multiplication."""
    ident = exactlinalg.identity(len(m))
    acc = [list(r) for r in m]
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = exactlinalg.mat_mul(acc, m)
    raise RuntimeError("matrix order exceeds cap")


def weyl_product(datum, word):
    """s_{word[0]} s_{word[1]} ... s_{word[-1]} as a full matrix."""
    n = datum.n
    w = WeylElement(tuple(tuple(int(i == k) for k in range(n))
                          for i in range(n)))
    for j in word:
        w = compose(w, simple_reflection(datum, j))
    return w


def positive_roots(cartan):
    """All positive roots as coefficient tuples over the simple roots, by
    alpha_j-strings: beta + alpha_j is a root iff p - <beta, alpha_j^vee> > 0
    with p the depth of the string below beta."""
    l = len(cartan)
    simple = [tuple(int(i == j) for i in range(l)) for j in range(l)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for j in range(l):
                p = 0
                down = list(beta)
                while True:
                    down[j] -= 1
                    if any(x < 0 for x in down) or tuple(down) not in roots:
                        break
                    p += 1
                pairing = sum(beta[i] * cartan[j][i] for i in range(l))
                if p - pairing > 0:
                    up = list(beta)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        new.append(cand)
        frontier = new
    return sorted(roots, key=lambda r: (sum(r), r))


def highest_root(datum, f):
    """(theta, theta^vee) of the factor f in omega-coordinates: theta is the
    top of the root strings, and theta^vee = 2 v / <theta, v> for the dual
    v of theta under the invariant form."""
    n = datum.n
    marks = positive_roots(dynkin.cartan_matrix(f.letter, f.rank))[-1]
    duals = form_duals(datum)
    theta = tuple(
        sum(m * datum.alpha[i][j] for m, j in zip(marks, f.indices))
        for i in range(n)
    )
    v = [sum(m * duals[j][i] for m, j in zip(marks, f.indices))
         for i in range(n)]
    scale = 2 / sum(t * x for t, x in zip(theta, v))
    theta_check = [scale * x for x in v]
    assert all(c.denominator == 1 for c in theta_check)
    return theta, tuple(int(c) for c in theta_check)


def affine_generator(datum, gid):
    """The simple affine reflection with generator id gid (j >= 0 the
    finite s_j, -f the affine reflection of factor f) as a full element:
    x -> x - <theta, x> theta^vee + theta^vee, with the `highest_root`
    pair of the factor."""
    n = datum.n
    if gid >= 0:
        return AffineWeylElement((0,) * n, simple_reflection(datum, gid))
    theta, theta_check = highest_root(datum, datum.factors[-gid - 1])
    rows = tuple(
        tuple(int(i == k) - theta_check[i] * theta[k] for k in range(n))
        for i in range(n)
    )
    return AffineWeylElement(theta_check, WeylElement(rows))


@functools.cache
def _alcove_vertices(datum):
    """Per factor, the fundamental coweights varpi_j^vee in omega-
    coordinates (row j of the inverse top block: <alpha_k, varpi_j^vee> =
    delta_jk, torus part 0) and the marks of theta from root strings."""
    l = datum.l
    inv = fraction_inverse([list(datum.alpha[i][:l]) for i in range(l)])
    coweights = [tuple(inv[j]) + (Q(0),) * (datum.n - l) for j in range(l)]
    marks = [positive_roots(dynkin.cartan_matrix(f.letter, f.rank))[-1]
             for f in datum.factors]
    return coweights, marks


def section_closed_form(datum, lift):
    """The element (p, w) of the extended affine Weyl group that fixes the
    base alcove in the class of the integral lift, in closed form (N.
    Iwahori and H. Matsumoto, Publ. Math. IHES 25, 1965; N. Bourbaki,
    Lie groups and Lie algebras, ch. VI §2), with no alcove walk.

    p is the one integral vertex of the closed base alcove in lift + Q^vee.
    The vertices there are the central part of the lift's tail plus, per
    factor, 0 or varpi_j^vee / m_j; all of them are tried, and exactly one
    must be integral (it takes only marks m_j = 1).  (p, w) maps a point y
    of the open alcove to the interior point p0 = sum varpi_j^vee / (m_j
    (rank + 1)), so y is the dominant (and regular) point of the orbit of
    p0 - p, and w = s_{word[0]} ... s_{word[-1]} for the word of that
    descent."""
    coweights, marks = _alcove_vertices(datum)
    n, l = datum.n, datum.l
    central = datum.central_part(tuple(lift[l:]))
    choices = [[None] + list(zip(f.indices, ms))
               for f, ms in zip(datum.factors, marks)]
    found = []
    for pick in itertools.product(*choices):
        p = list(central)
        for vertex in pick:
            if vertex is not None:
                j, m = vertex
                p = [a + b / m for a, b in zip(p, coweights[j])]
        if all(c.denominator == 1 for c in p):
            found.append(tuple(int(c) for c in p))
    if len(found) != 1:
        raise RuntimeError(f"{len(found)} integral vertices, not 1")
    p = found[0]
    p0 = [Q(0)] * n
    for f, ms in zip(datum.factors, marks):
        for j, m in zip(f.indices, ms):
            p0 = [a + b / (m * (f.rank + 1)) for a, b in zip(p0, coweights[j])]
    y, word = datum.dominant_rep([a - b for a, b in zip(p0, p)])
    for f, ms in zip(datum.factors, marks):
        pairs = [datum.root_pairing(j, y) for j in f.indices]
        if min(pairs) <= 0 or sum(m * c for m, c in zip(ms, pairs)) >= 1:
            raise RuntimeError("descent did not end in the open alcove")
    return AffineWeylElement(p, weyl_product(datum, word))


def newton_points_below(datum, mu):
    """All Newton points nu <= mu, sorted by point, each with certificate."""
    point = mu.point if isinstance(mu, NewtonPoint) else tuple(Q(c) for c in mu)
    if is_newton_point(datum, point) is None:
        raise ValueError("mu is not a Newton point")
    z = datum.central_part(point[datum.l:])
    lo = [qceil(z[i]) for i in range(datum.l)]
    hi = [qfloor(point[i]) for i in range(datum.l)]
    found = {}
    for mask in range(1 << datum.l):
        subset = frozenset(j for j in range(datum.l) if mask >> j & 1)
        free = [i for i in range(datum.l) if i not in subset]

        def rec(pos, m):
            if pos == len(free):
                nu = datum.p_M(tuple(m), subset)
                if nu in found:
                    return
                if any(
                    datum.root_pairing(j, nu) <= 0
                    for j in range(datum.l)
                    if j not in subset
                ):
                    return
                if not leq(datum, nu, point):
                    return
                found[nu] = NewtonPoint(nu, subset, tuple(m))
            else:
                i = free[pos]
                for val in range(lo[i], hi[i] + 1):
                    m[i] = val
                    rec(pos + 1, m)
                m[i] = 0

        base = [0] * datum.l + [int(c) for c in point[datum.l:]]
        rec(0, base)
    return sorted(found.values(), key=lambda np: tuple(np.point))


def hasse(datum, points):
    """Covering relations of <= on a list of points (index pairs)."""
    pts = [p.point if isinstance(p, NewtonPoint) else tuple(p) for p in points]
    order = [
        (a, b)
        for a in range(len(pts))
        for b in range(len(pts))
        if a != b and leq(datum, pts[a], pts[b])
    ]
    rel = set(order)
    edges = []
    for a, b in order:
        if not any((a, c) in rel and (c, b) in rel for c in range(len(pts))
                   if c != a and c != b):
            edges.append((a, b))
    return sorted(edges)


def hasse_by_rank(datum, points):
    """Covering relations of <= on a full down-set {nu <= mu} of Newton
    points, by rank levels: (a, b) with a <= b and dim_leq(b) =
    dim_leq(a) + 1.  Chai shows the down-set is ranked by dim_leq, so
    this is `hasse` there, and on nothing else."""
    pts = [p.point if isinstance(p, NewtonPoint) else tuple(p) for p in points]
    levels = {}
    for a, p in enumerate(pts):
        levels.setdefault(dim_leq(datum, p), []).append(a)
    return sorted(
        (a, b)
        for rank, lower in levels.items()
        for a in lower
        for b in levels.get(rank + 1, ())
        if leq(datum, pts[a], pts[b])
    )


def leq(datum, x, y):
    """x <= y for two points, compared as `Fraction`s coordinate by
    coordinate: y_i >= x_i for i < l and y_i == x_i after."""
    return (all(x[i] <= y[i] for i in range(datum.l))
            and all(x[i] == y[i] for i in range(datum.l, datum.n)))


def is_dominant(datum, x):
    """No simple root pairs negatively with the point x, each pairing a
    sum of `Fraction`s."""
    return all(sum((a * Q(x[i]) for i, a in enumerate(datum.root_coords(j))),
                   Q(0)) >= 0 for j in range(datum.l))


def dim_leq(datum, mu):
    """The sum of the floors of the first l coordinates of the point mu."""
    return sum(qfloor(mu[i]) for i in range(datum.l))


def codim(datum, nu, mu):
    """dim_leq(mu) - dim_leq(nu) for two points; no check of either."""
    return dim_leq(datum, mu) - dim_leq(datum, nu)


def d_G(datum, nu):
    """Sum of the fractional parts of the first l coordinates of the point
    nu, each as a `Fraction`."""
    return sum((frac_part(Q(nu[i])) for i in range(datum.l)), Q(0))


def codim_chai(datum, nu, mu):
    """Chai's ceiling sum over the first l coordinates of the points nu and
    mu, on the rational differences mu_i - nu_i; no check of either."""
    return sum(qceil(Q(mu[i]) - nu[i]) for i in range(datum.l))


def d_levi(datum, nu, levi):
    """Whether `d_G` of the point nu in the Levi sub-datum of the simple
    roots `levi` equals `d_G` of nu, both as `Fraction` sums."""
    levi_datum, to_levi, _back = datum.levi(levi)
    return d_G(levi_datum, to_levi(nu)) == d_G(datum, nu)


def weyl_orbit(datum, lam):
    """Weyl orbit of a weight lam (BFS over s_j : mu -> mu - mu_j alpha_j)."""
    start = tuple(lam)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for mu in frontier:
            for j in range(datum.l):
                if mu[j] == 0:
                    continue
                col = datum.root_coords(j)
                img = tuple(m - mu[j] * c for m, c in zip(mu, col))
                if img not in seen:
                    seen.add(img)
                    new.append(img)
                    if len(seen) > rootdata.GUARD:
                        raise OrbitGuardError(
                            f"orbit size exceeds guard {rootdata.GUARD}")
        frontier = new
    return seen


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


def charpoly(mat):
    """det(T*I - M) by Faddeev-LeVerrier over the rationals, constant term
    first."""
    n = len(mat)
    m = [[Q(x) for x in row] for row in mat]
    coeffs = [Q(1)]
    a = [row[:] for row in m]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                a[i][i] += coeffs[-1]
            a = exactlinalg.mat_mul(m, a)
        coeffs.append(-sum(a[i][i] for i in range(n)) / k)
    return coeffs[::-1]


def det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j]
               * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def change_extension(datum, rows):
    """Re-choose the extensions omega_i <- omega_i + lambda_i, lambda_i in
    X*(D).

    `rows` is an l x (n-l) integer matrix; row i gives the X*(D)
    coordinates added to omega_i.  Returns (datum, convert) where
    convert maps old omega-coordinates of a point to new ones.
    """
    n, l = datum.n, datum.l
    rows = [list(r) for r in rows]
    if len(rows) != l or any(len(r) != n - l for r in rows):
        raise ValueError("extension matrix has wrong shape")
    alpha = [list(r) for r in datum.alpha]
    for t in range(l, n):
        for j in range(l):
            alpha[t][j] -= sum(
                datum.alpha[i][j] * rows[i][t - l] for i in range(l))
    changed = RootDatum(n, l, alpha, datum.factors,
                        label=f"{datum.label}:ext")

    def convert(x):
        x = datum.point(x)
        out = list(x)
        for i in range(l):
            out[i] = x[i] + sum(rows[i][t] * x[l + t] for t in range(n - l))
        return tuple(out)

    return changed, convert


def slopes_to_coords(slopes):
    """Partial sums: slope tuple -> omega-coordinates for the GL_n datum."""
    out = []
    acc = Q(0)
    for s in slopes:
        acc += s
        out.append(acc)
    return tuple(out)
