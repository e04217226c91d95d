"""Extended affine Weyl group: alcove reduction, the base-alcove section,
defect, and the character decomposition of the reflection representation."""

import itertools
import math
import operator

from . import dynkin, exactlinalg
from .rationals import Q
from .rootdata import OrbitGuardError, WeylElement, record
from .strata import d_G

# OrbitGuardError at this `alcove_reduce` word length or `section_s` l(t_nu).
ALCOVE_GUARD = 100000


@record()
class AffineWeylElement:
    """Pair (translation, linear part) acting as v -> linear(v) + translation."""

    translation: tuple  # integral cocharacter
    linear: WeylElement


def _affine_tables(datum):
    """(roots, den, p0, vertices, weights), built once per datum: the
    simple affine roots, and over one denominator den the int vectors
    den * v of the interior sample point p0 of the base alcove and of the
    vertices of the closed base alcove that can be integral, less the
    central part, and den times the coefficients k_j of 2 rho = sum_j k_j
    alpha_j (the sum of the positive roots)."""
    return datum.memo("affine_tables", None, _build_affine_tables)


def _build_affine_tables(datum):
    """theta^vee is dominant and in the W-orbit of e_j for a long alpha_j;
    each orbit meets the chamber once, so theta^vee = dominant_rep(e_j).
    theta = sum m_a alpha_a with m_a = theta^vee_a |theta|^2 / |alpha_a|^2.

    With adj / d the inverse of the Cartan block over all simple roots
    (`pm_solver`), block-diagonal by factor, the fundamental coweight
    varpi_j^vee is column j of adj / d with torus part 0, and 2 rho pairs
    to 2 with every simple coroot, so d k_j = 2 sum_i adj[i][j].  p0 is
    rho^vee / (h + 1) on each factor, h its Coxeter number, so den = d
    times the lcm of the h + 1.  A vertex of the closed base alcove is, up
    to the central part, a sum over the factors of 0 or varpi_j^vee / m_j;
    only the m_j = 1 are kept, as the elements of Omega carry the special
    vertex 0 to exactly those."""
    n, l = datum.n, datum.l
    _idx, adj, d = datum.pm_solver(frozenset(range(l)))
    roots, coxes, picks = [], [], []
    for fidx, f in enumerate(datum.factors):
        norms = dynkin.root_norms(f.letter, f.rank)
        long = max(norms)
        e_j = [0] * n
        e_j[f.indices[norms.index(long)]] = 1
        theta_check, _word = datum.dominant_rep(e_j)
        marks = [Q(theta_check[j]) * long / norm
                 for j, norm in zip(f.indices, norms)]
        if any(m.denominator != 1 for m in marks):
            raise RuntimeError("highest root marks are not integers")
        marks = [int(m) for m in marks]
        coxes.append(sum(marks) + 1)  # Coxeter number
        theta = [
            sum(m * datum.alpha[i][j] for m, j in zip(marks, f.indices))
            for i in range(n)
        ]
        # simple affine roots (lam, k, generator id, coroot h): the
        # functional v -> <lam, v> + k and its reflection
        # v -> v - (<lam, v> + k) h; h is e_j for a finite root
        for j in f.indices:
            unit = tuple(int(i == j) for i in range(n))
            roots.append((datum.root_coords(j), 0, j, unit))
        roots.append((tuple(-c for c in theta), 1, -(fidx + 1),
                      tuple(-c for c in theta_check)))
        picks.append([None] + [j for j, m in zip(f.indices, marks) if m == 1])
    # the affine Cartan diagonal <lam, h> = 2: on -theta, a check of theta^vee
    if any(sum(map(operator.mul, lam, h)) != 2 for lam, _k, _g, h in roots):
        raise RuntimeError("affine Cartan matrix has a diagonal entry != 2")
    scale = math.lcm(*(h + 1 for h in coxes))
    den = d * scale
    p0 = [0] * n
    for f, h in zip(datum.factors, coxes):
        for j in f.indices:
            p0[j] = sum(adj[j]) * (scale // (h + 1))  # rho^vee_j / (h + 1)
    vertices = tuple(
        tuple(scale * sum(adj[i][j] for j in pick if j is not None)
              if i < l else 0 for i in range(n))
        for pick in itertools.product(*picks))
    weights = tuple(2 * scale * sum(col) for col in zip(*adj))
    return roots, den, tuple(p0), vertices, weights


def _weyl_element(datum, image):
    """(w, word, y): `dominant_rep` descends the image to the dominant y
    along `word`, and w = s_{word[0]} ... s_{word[-1]}, so that
    w(y) = image; w is fixed when y is regular.  RuntimeError if w misses
    the image.

    Row i of w is the weight e_i s_{word[0]} ... s_{word[-1]}, pulled
    back letter by letter: s_j moves a weight mu to mu - mu_j alpha_j, so
    a row changes at j only when its j-th entry is not 0, and then only
    on the support of alpha_j.  A row i >= l is 0 at every j < l and stays
    e_i."""
    y, word = datum.dominant_rep(image)
    n, support = datum.n, datum._root_support
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        if i < datum.l:
            for j in word:
                m = row[j]
                if m:
                    for t, a in support[j]:
                        row[t] -= m * a
        rows.append(tuple(row))
    w = WeylElement(tuple(rows))
    if w.act(y) != tuple(image):
        raise RuntimeError("rebuilt Weyl element misses the image")
    return w, word, y


def alcove_reduce(datum, x):
    """Left-multiply by simple affine reflections until the element carries
    the base alcove to itself.  Returns (x0, word) with x0 = prod(word) * x,
    the word listing generator ids in application order.

    The plain reference walk: each step pairs the sample point den * x(p0)
    with the simple affine roots, in `_affine_tables` order, and reflects
    it and the translation t by the first root whose pairing is not
    positive.  RuntimeError on a 0 pairing (an affine wall) or a descent
    of the end point minus den * t that misses den * p0; OrbitGuardError
    at ALCOVE_GUARD reflections.  `section_s` is its closed form; the walk
    is its test reference and the span the benchmark's alcove metrics hook.
    """
    roots, den, p0, _vertices, _weights = _affine_tables(datum)
    t = list(x.translation)
    point = [a + den * s for a, s in zip(x.linear.act(p0), t)]
    word = []
    while True:
        for lam, k, gid, h in roots:
            val = sum(c * p for c, p in zip(lam, point) if c) + k * den
            if val <= 0:
                break
        else:
            break
        if val == 0:
            raise RuntimeError("sample point hit an affine wall")
        shift = sum(c * s for c, s in zip(lam, t) if c) + k
        for i, c in enumerate(h):
            if c:
                point[i] -= val * c
                t[i] -= shift * c
        word.append(gid)
        if len(word) >= ALCOVE_GUARD:
            raise OrbitGuardError(
                f"alcove reduction exceeds guard {ALCOVE_GUARD}")
    image = [p - den * s for p, s in zip(point, t)]
    w, _word, end = _weyl_element(datum, image)
    if end != p0:
        raise RuntimeError("descent failed: not a Weyl group element")
    return AffineWeylElement(tuple(t), w), word


def stabilizes_base_alcove(datum, x):
    """True iff x permutes the set of simple affine roots, tested on the
    roots pulled back along x: (lam, k) -> (lam o linear, <lam, t> + k).
    lam o linear is the combination of the rows of the matrix with the
    nonzero coefficients of lam: one pass over them adds c r into one
    zero row in place, at the nonzero entries of each row r, and adds
    c t_i to k as it goes."""
    roots = _affine_tables(datum)[0]
    rows, t = x.linear.matrix, x.translation
    pulled = set()
    for lam, k, _g, _h in roots:
        row = [0] * datum.n
        for c, r, s in zip(lam, rows, t):
            if c:
                k += c * s
                for i, b in enumerate(r):
                    if b:
                        row[i] += c * b
        pulled.add((tuple(row), k))
    return pulled == {(lam, k) for lam, k, _g, _h in roots}


def _translation_length(datum, nu):
    """l(t_nu) = sum over the positive roots alpha of |<alpha, nu>|, the
    length of `alcove_reduce`'s word for t_nu: <2 rho, dom(nu)>, read off
    the descent of nu to dom(nu) as sum_j k_j <alpha_j, dom(nu)>."""
    _roots, den, _p0, _vertices, weights = _affine_tables(datum)
    dom = datum.dominant_rep(nu)[0]
    return Q(sum(map(operator.mul, weights, datum.pairings(dom))), den)


def section_s(datum, nu):
    """The base-alcove section of the quotient map, evaluated at the class
    of the integral lift nu (its last n - l coordinates): the one element
    x0 = (p, w) of Omega, the stabilizer of the base alcove, in
    t_nu W_aff, in closed form (N. Iwahori and H. Matsumoto, Publ. Math.
    IHES 25, 1965), with no alcove walk.

    x0 carries the special vertex 0 to p, so p is the one integral vertex
    of the closed base alcove in nu + Q^vee: the central part of nu's tail
    plus one of the vertices of `_affine_tables`, tested for integrality
    on ints.  x0 carries a point y of the open alcove to the interior
    point p0, so y is the dominant point of the orbit of p0 - p and w is
    rebuilt along its descent by `_weyl_element` (on den p0 - den p, at
    the table's one scale), which checks that w hits that image.

    The checks certify x0: p is integral and w a product of simple
    reflections, so x0 lies in the extended affine Weyl group; its tail
    is nu's, so p - nu lies in Q^vee (the simple coroots are the first l
    basis vectors) and x0 lies in t_nu W_aff; and it stabilizes the base
    alcove.  Omega meets each class of X_* / Q^vee exactly once, so x0 is
    the element `alcove_reduce` walks to from t_nu.  RuntimeError unless
    exactly one vertex is integral, and on any failed check.

    OrbitGuardError where that walk would: when its length l(t_nu)
    reaches ALCOVE_GUARD.  l(t_nu) <= sum_j k_j |<alpha_j, nu>|, so the
    descent of nu in `_translation_length` runs only when that bound
    reaches the guard."""
    nu = datum.point(nu, integral=True)
    _roots, den, p0, vertices, weights = _affine_tables(datum)
    bound = sum(k * abs(p) for k, p in zip(weights, datum.pairings(nu)))
    if (bound >= ALCOVE_GUARD * den
            and _translation_length(datum, nu) >= ALCOVE_GUARD):
        raise OrbitGuardError(f"alcove reduction exceeds guard {ALCOVE_GUARD}")
    scale, central = datum.central_forms(nu[datum.l:])[1]
    big = scale * den
    p = None
    for v in vertices:
        vertex = []
        for c, a in zip(central, v):
            q, r = divmod(c * den + a * scale, big)
            if r:
                break
            vertex.append(q)
        else:
            if p is not None:
                raise RuntimeError("two integral vertices of the base alcove"
                                   " in the class of nu")
            p = tuple(vertex)
    if p is None:
        raise RuntimeError("no integral vertex of the base alcove in the"
                           " class of nu")
    w, _word, _y = _weyl_element(datum, [a - den * b for a, b in zip(p0, p)])
    x0 = AffineWeylElement(p, w)
    if x0.translation[datum.l:] != tuple(nu[datum.l:]):
        raise RuntimeError("alcove reduction changed the class of nu")
    if not stabilizes_base_alcove(datum, x0):
        raise RuntimeError("reduced element does not stabilize the base alcove")
    return x0


def w_nu(datum, nu):
    """Linear part of the section: the homomorphism into the Weyl group."""
    return section_s(datum, nu).linear


def weyl_word(datum, w):
    """Express a Weyl element as a product of simple reflections: the
    descent of the image of the base-alcove point, which gives w back
    through `_weyl_element` exactly when w is a Weyl group element."""
    p0 = _affine_tables(datum)[2]
    found, word, end = _weyl_element(datum, w.act(p0))
    if end != p0 or found.matrix != w.matrix:
        raise RuntimeError("descent failed: not a Weyl group element")
    return list(word)


def defect(datum, nu):
    """Corank of the fixed space of w_nu, exact over the rationals."""
    return _w_nu_invariants(datum, nu)[1]


def _w_nu_invariants(datum, nu):
    """(word, rank(w - 1), sorted (d, multiplicity of Phi_d) pairs, whether
    they count all n eigenvalues) for w = w_nu.  `section_s` runs for every
    lift, with all its checks; the rest is built once per matrix of w,
    which depends only on the class of nu, so the table keeps at most one
    entry per component class, and a lift whose section went wrong gets
    an entry of its own."""
    w = w_nu(datum, nu)
    return datum.memo("weyl_invariants", w.matrix, _build_weyl_invariants, w)


def _build_weyl_invariants(datum, w):
    """`weyl_word` certifies w a Weyl group element, so it has finite
    order, is diagonalisable over C, and its eigenvalues are roots of
    unity closed under Galois conjugation.  So dim ker(w^d - 1) counts the
    eigenvalues whose order divides d; less the counts e_k of the proper
    divisors k of d, it leaves e_d, those of order exactly d, which come
    in whole orbits of phi(d): Phi_d has multiplicity e_d / phi(d) in the
    characteristic polynomial (T. A. Springer, Invent. Math. 25 (1974)).
    phi(d) <= n and phi(d) >= sqrt(d/2) bound the search by d <= 2n^2,
    and rank(w - 1) = n - e_1."""
    word = tuple(weyl_word(datum, w))
    n = datum.n
    exact, mults = {}, {}  # order d -> e_d, and -> e_d / phi(d) if not 0
    power = w.matrix
    for d in range(1, 2 * n ** 2 + 1):
        fixed = len(exactlinalg.integer_kernel(
            [[a - (i == j) for j, a in enumerate(row)]
             for i, row in enumerate(power)]))
        exact[d] = fixed - sum(e for k, e in exact.items() if d % k == 0)
        mult, rem = divmod(exact[d],
                           sum(math.gcd(k, d) == 1 for k in range(d)))
        if rem:
            raise RuntimeError(
                f"eigenvalues of order {d} are not whole Galois orbits")
        if mult:
            mults[d] = mult
        if sum(exact.values()) >= n:
            break
        power = exactlinalg.mat_mul(power, w.matrix)
    return word, n - exact[1], tuple(mults.items()), sum(exact.values()) == n


def _chis(datum, nu):
    """The characters chi_i at the class of the lift nu, on ints: (L,
    [L z_i mod L]) from the int form (L, L z) of the central part z, so
    that chi_i = (L z_i mod L) / L, the fractional part of z_i, in
    [0, 1)."""
    scale, ints = datum.central_forms(nu[datum.l:])[1]
    return scale, [v % scale for v in ints]


def chi(datum, i, nu):
    """The i-th character at the class of the lift nu, in [0, 1).
    ValueError unless i is an int in range(n)."""
    if not isinstance(i, int) or i not in range(datum.n):
        raise ValueError(
            f"character index {i!r} is not an int in range({datum.n})")
    scale, chis = _chis(datum, datum.point(nu, integral=True))
    return Q(chis[i], scale)


def verify_defect_identity(datum, nu):
    """Report comparing d_G, half the defect, and the character sum.

    Twice the character sum is read on ints, as 2 sum_i (L z_i mod L)
    over L; `d_G` reads the central part on its own."""
    word, dfct, _mults, _full = _w_nu_invariants(datum, nu)
    dg = d_G(datum, datum.central_part(nu[datum.l:]))
    scale, chis = _chis(datum, nu)
    twice = 2 * sum(chis)
    ok = dg == Q(dfct, 2) and twice == dfct * scale
    return {
        "nu": [int(c) for c in nu[datum.l:]],
        "w_word": [j + 1 for j in word],
        "defect": dfct,
        "d_G": dg,
        "chi_sum_twice": Q(twice, scale),
        "pass": ok,
    }


def reflection_char_multiset_check(datum, nu):
    """Galois-invariant form of the character decomposition.

    Reads the multiplicities of the cyclotomic factors of the
    characteristic polynomial of w_nu from `_w_nu_invariants` and matches
    them, order by order, against the denominators of the characters
    chi_i, requiring full unit-group orbits.  On ints: chi_i = v / L in
    lowest terms is k / d with d = L / gcd(v, L) and k = v / gcd(v, L),
    and the k of each d must be the units mod d, each as many times as
    Phi_d divides.
    """
    _word, _corank, mults, fully_factored = _w_nu_invariants(datum, nu)
    mults = dict(mults)
    scale, chis = _chis(datum, nu)
    by_denom = {}
    for v in chis:
        g = math.gcd(v, scale)
        by_denom.setdefault(scale // g, []).append(v // g)
    details = []
    for d in sorted(set(mults) | set(by_denom)):
        mult = mults.get(d, 0)
        have = sorted(by_denom.get(d, []))
        match = have == sorted(
            [k for k in range(d) if math.gcd(k, d) == 1] * mult)
        details.append(
            {"order": d, "cyclotomic_multiplicity": mult,
             "char_count": len(have), "full_orbits": match}
        )
    return {
        "nu": [int(c) for c in nu[datum.l:]],
        "char_poly_fully_cyclotomic": fully_factored,
        "orders": details,
        "pass": fully_factored and all(o["full_orbits"] for o in details),
    }
