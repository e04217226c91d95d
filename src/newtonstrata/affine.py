"""Extended affine Weyl group: alcove reduction, the base-alcove section,
defect, and the character decomposition of the reflection representation."""

import math
from dataclasses import dataclass

from . import dynkin, exactlinalg
from .rationals import Q, frac_part, scale_to_ints
from .rootdata import OrbitGuardError, WeylElement
from .strata import d_G


@dataclass(frozen=True)
class AffineWeylElement:
    """Pair (translation, linear part) acting as v -> linear(v) + translation."""

    translation: tuple  # integral cocharacter
    linear: WeylElement


def translation(datum, lift):
    """Translation by an integral lift, checked by `RootDatum.point`."""
    ident = tuple(map(tuple, exactlinalg.identity(datum.n)))
    return AffineWeylElement(datum.point(lift, integral=True),
                             WeylElement(ident))


def _affine_tables(datum):
    """(roots, den, point): the simple affine roots and an interior sample
    point of the base alcove, as the int vector den * p0; built once per
    datum."""
    return datum.memo("affine_tables", None, _build_affine_tables)


def _build_affine_tables(datum):
    """theta^vee is dominant and in the W-orbit of e_j for a long alpha_j;
    each orbit meets the chamber once, so theta^vee = dominant_rep(e_j).
    theta = sum m_a alpha_a with m_a = theta^vee_a |theta|^2 / |alpha_a|^2."""
    n = datum.n
    roots = []
    p0 = [Q(0)] * n
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
        cox = sum(marks) + 1  # Coxeter number
        theta = [
            sum(m * datum.alpha[i][j] for m, j in zip(marks, f.indices))
            for i in range(n)
        ]
        # rho^vee / (cox + 1) within this factor's coroot span: rho^vee
        # solves <alpha_j, rho^vee> = 1, so p0_j = sum_k adj_jk / den (cox + 1)
        idx, adj, den = datum.pm_solver(frozenset(f.indices))
        for j, row in zip(idx, adj):
            p0[j] += Q(sum(row), den * (cox + 1))
        # simple affine roots (lam, k, generator id, coroot h): the
        # functional v -> <lam, v> + k and its reflection
        # v -> v - (<lam, v> + k) h; h is e_j for a finite root
        for j in f.indices:
            unit = tuple(int(i == j) for i in range(n))
            roots.append((datum.root_coords(j), 0, j, unit))
        roots.append((tuple(-c for c in theta), 1, -(fidx + 1),
                      tuple(-c for c in theta_check)))
    den, point = scale_to_ints(p0)
    return roots, den, point


def simple_affine_roots(datum):
    """(lam, k, generator id, coroot h) for every simple affine root."""
    return _affine_tables(datum)[0]


def _affine_cartan(datum):
    """The affine Cartan matrix C[r][s] = <lam_r, h_s> over the simple
    affine roots, as columns: cols[s] lists the (r, C[r][s]) with
    C[r][s] != 0; built once per datum."""
    return datum.memo("affine_cartan", None, _build_affine_cartan)


def _build_affine_cartan(datum):
    """RuntimeError unless every diagonal entry <lam_s, h_s> is 2."""
    roots = _affine_tables(datum)[0]
    lams = [lam for lam, _k, _gid, _h in roots]
    cols = []
    for s, (_lam, _k, _gid, h) in enumerate(roots):
        col = [(r, c) for r, c in enumerate(
            sum(a * b for a, b in zip(lam, h) if a) for lam in lams) if c]
        if (s, 2) not in col:
            raise RuntimeError("affine Cartan matrix has a diagonal entry"
                               " other than 2")
        cols.append(tuple(col))
    return tuple(cols)


def _pairings(roots, den, point, t):
    """([<lam, point> + k den], [<lam, t> + k]) over the simple affine
    roots."""
    vals = [sum(c * p for c, p in zip(lam, point) if c) + k * den
            for lam, k, _gid, _h in roots]
    shifts = [sum(c * s for c, s in zip(lam, t) if c) + k
              for lam, k, _gid, _h in roots]
    return vals, shifts


def _weyl_element(datum, image):
    """(w, word) with w(den * p0) = image, which fixes w as p0 is regular:
    `dominant_rep` descends the image along `word`, and w = s_{word[0]}
    ... s_{word[-1]} is built from the identity, each s_j changing row j.
    RuntimeError unless the descent ends at den * p0."""
    _roots, _den, p0 = _affine_tables(datum)
    y, word = datum.dominant_rep(image)
    if y != p0:
        raise RuntimeError("descent failed: not a Weyl group element")
    rows = exactlinalg.identity(datum.n)
    for j in reversed(word):
        row = rows[j]
        for c, r in zip(datum.root_coords(j), rows):
            if c:
                row = [a - c * b for a, b in zip(row, r)]
        rows[j] = row
    return WeylElement(tuple(map(tuple, rows))), word


def alcove_reduce(datum, x):
    """Left-multiply by simple affine reflections until the element carries
    the base alcove to itself.  Returns (x0, word) with x0 = prod(word) * x,
    the word listing generator ids in application order.

    The walk runs on the affine Cartan matrix C[r][s] = <lam_r, h_s>.
    Reflecting by s moves the sample point den * x(p0) by -val_s h_s, so
    each pairing val_r = <lam_r, point> + k_r den drops by val_s C[r][s],
    and each shift <lam_r, t> + k_r of the translation t by shift_s
    C[r][s]: a step touches one column of C.  The point and t are rebuilt
    once from each generator's total val and shift, and their pairings
    must equal the carried ones, a certificate of the incremental state
    (RuntimeError otherwise).  The linear part is read off the end point
    minus den * t by `_weyl_element`.  Raises RuntimeError on a 0 pairing
    before the first negative one (the sample point is on an affine wall)
    and OrbitGuardError at 100,000 reflections.
    """
    roots, den, p0 = _affine_tables(datum)
    cols = _affine_cartan(datum)
    t = list(x.translation)
    point = [a + den * s for a, s in zip(x.linear.act(p0), t)]
    vals, shifts = _pairings(roots, den, point, t)
    total_val = [0] * len(roots)
    total_shift = [0] * len(roots)
    word = []
    while True:
        for s, val in enumerate(vals):
            if val <= 0:
                break
        else:
            break
        if val == 0:
            raise RuntimeError("sample point hit an affine wall")
        shift = shifts[s]
        total_val[s] += val
        total_shift[s] += shift
        for r, c in cols[s]:
            vals[r] -= val * c
            shifts[r] -= shift * c
        word.append(roots[s][2])
        if len(word) >= 100000:
            raise OrbitGuardError("alcove reduction exceeds guard 100000")
    for (_lam, _k, _gid, h), dv, ds in zip(roots, total_val, total_shift):
        for i, c in enumerate(h):
            if c:
                point[i] -= dv * c
                t[i] -= ds * c
    if _pairings(roots, den, point, t) != (vals, shifts):
        raise RuntimeError("alcove walk pairings disagree with the end point")
    image = [p - den * s for p, s in zip(point, t)]
    return AffineWeylElement(tuple(t), _weyl_element(datum, image)[0]), word


def stabilizes_base_alcove(datum, x):
    """True iff x permutes the set of simple affine roots, tested on the
    roots pulled back along x: (lam, k) -> (lam o linear, <lam, t> + k)."""
    roots = simple_affine_roots(datum)
    rows, t = x.linear.matrix, x.translation
    pulled = {
        (tuple(sum(c * r[j] for c, r in zip(lam, rows) if c)
               for j in range(datum.n)),
         sum(c * s for c, s in zip(lam, t) if c) + k)
        for lam, k, _g, _h in roots
    }
    return pulled == {(lam, k) for lam, k, _g, _h in roots}


def section_s(datum, nu):
    """The base-alcove section of the quotient map, evaluated at the class
    of the integral lift nu (its last n - l coordinates)."""
    x0, _word = alcove_reduce(datum, translation(datum, nu))
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
    _roots, _den, p0 = _affine_tables(datum)
    found, word = _weyl_element(datum, w.act(p0))
    if found.matrix != w.matrix:
        raise RuntimeError("descent failed: not a Weyl group element")
    return list(word)


def _fixed_corank(w):
    """rank(w - 1): the corank of the fixed space of a Weyl element."""
    ident = exactlinalg.identity(len(w.matrix))
    return exactlinalg.rank(
        [[a - b for a, b in zip(r, e)] for r, e in zip(w.matrix, ident)])


def defect(datum, nu):
    """Corank of the fixed space of w_nu, exact over the rationals."""
    return _fixed_corank(w_nu(datum, nu))


def _chis(datum, nu):
    """The characters chi_i at the class of the lift nu, each in [0, 1)."""
    return [frac_part(c) for c in datum.central_part(nu[datum.l:])]


def chi(datum, i, nu):
    """The i-th character at the class of the lift nu, in [0, 1)."""
    return _chis(datum, datum.point(nu, integral=True))[i]


def verify_defect_identity(datum, nu):
    """Report comparing d_G, half the defect, and the character sum."""
    w = section_s(datum, nu).linear
    dfct = _fixed_corank(w)
    dg = d_G(datum, datum.central_part(nu[datum.l:]))
    chi_sum = sum(_chis(datum, nu), Q(0))
    ok = dg == Q(dfct, 2) and 2 * chi_sum == dfct
    return {
        "nu": [int(c) for c in nu[datum.l:]],
        "w_word": [j + 1 for j in weyl_word(datum, w)],
        "defect": dfct,
        "d_G": dg,
        "chi_sum_twice": 2 * chi_sum,
        "pass": ok,
    }


def reflection_char_multiset_check(datum, nu):
    """Galois-invariant form of the character decomposition.

    Factors the characteristic polynomial of w_nu into cyclotomics and
    matches, order by order, the multiplicities against the denominators
    of the characters chi_i, requiring full unit-group orbits.  w_nu is
    certified a Weyl group element by `weyl_word`, so it has finite order
    and its characteristic polynomial is a product of Phi_d with
    phi(d) <= n; phi(d) >= sqrt(d/2) bounds the search by d <= 2n^2.
    """
    w = w_nu(datum, nu)
    weyl_word(datum, w)
    poly = exactlinalg.charpoly([list(r) for r in w.matrix])
    mults = {}
    for d in range(1, 2 * datum.n ** 2 + 1):
        if poly == [1]:
            break
        phi_d = exactlinalg.cyclotomic(d)
        while len(phi_d) <= len(poly):  # phi(d) <= the remaining degree
            q, r = exactlinalg.poly_divmod(poly, phi_d)
            if any(r):
                break
            poly = q
            mults[d] = mults.get(d, 0) + 1
    fully_factored = poly == [1]
    by_denom = {}
    for c in _chis(datum, nu):
        by_denom.setdefault(c.denominator, []).append(c)
    ok = fully_factored
    details = []
    for d in sorted(set(mults) | set(by_denom)):
        mult = mults.get(d, 0)
        expected = mult * exactlinalg.euler_phi(d)
        have = sorted(by_denom.get(d, []))
        want = sorted(
            Q(k, d) for k in range(d) if math.gcd(k, d) == 1
        ) * mult
        match = len(have) == expected and have == sorted(want)
        ok = ok and match
        details.append(
            {"order": d, "cyclotomic_multiplicity": mult,
             "char_count": len(have), "full_orbits": match}
        )
    return {
        "nu": [int(c) for c in nu[datum.l:]],
        "char_poly_fully_cyclotomic": fully_factored,
        "orders": details,
        "pass": ok,
    }
