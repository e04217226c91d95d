"""Extended affine Weyl group: section, defect, characters."""

import copy
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonstrata import affine, dynkin, exactlinalg
from newtonstrata.affine import (
    alcove_reduce,
    chi,
    defect,
    reflection_char_multiset_check,
    section_s,
    stabilizes_base_alcove,
    verify_defect_identity,
    w_nu,
    weyl_word,
)
from newtonstrata.rationals import Q, scale_to_ints
from newtonstrata.rootdata import (
    OrbitGuardError, RootDatum, WeylElement, build_group)
from newtonstrata.verify import random_lift
from oracles import (
    affine_generator, char_multiset_report, charpoly, compose, cyclotomic,
    defect_identity_report, frac_part, fraction_inverse, highest_root,
    matrix_order, poly_mul, positive_roots, section_closed_form,
    simple_reflection, translation, weyl_product)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_alcove_reduce_identity():
    g = build_group("GL2")
    x0, word = alcove_reduce(g, translation(g, (0, 0)))
    assert word == [] and x0.linear == weyl_product(g, ())
    assert x0.translation == (0, 0)


def test_alcove_reduce_central_translation():
    g = build_group("GL2")
    # (1,2) pairs to zero with alpha_1: a central translation
    x0, word = alcove_reduce(g, translation(g, (1, 2)))
    assert word == [] and x0.linear == weyl_product(g, ())


def test_alcove_guard_boundary_gl2():
    # the lift (0, k) of GL2 has a word of length exactly k: the guard
    # fires when the 100,000th reflection is appended, not before
    g = build_group("GL2")
    _x0, word = alcove_reduce(g, translation(g, (0, 99999)))
    assert len(word) == 99999
    with pytest.raises(OrbitGuardError):
        alcove_reduce(g, translation(g, (0, 100000)))


def test_section_gl2_half_slope():
    g = build_group("GL2")
    x0 = section_s(g, (1, 1))
    assert x0.linear != weyl_product(g, ())
    assert weyl_word(g, x0.linear) == [0]
    assert stabilizes_base_alcove(g, x0)
    assert not stabilizes_base_alcove(g, translation(g, (1, 0)))


def test_section_raises_if_base_alcove_moves(monkeypatch):
    # a real raise, not an assert that python -O would strip
    monkeypatch.setattr(affine, "stabilizes_base_alcove", lambda d, x: False)
    with pytest.raises(RuntimeError, match="does not stabilize"):
        section_s(build_group("GL2"), (1, 1))


def test_section_gl3_coxeter():
    g = build_group("GL3")
    w = w_nu(g, (0, 0, 1))
    word = weyl_word(g, w)
    assert sorted(word) == [0, 1]  # a 3-cycle: product of both reflections


def test_section_zero_class():
    g = build_group("GL3")
    x0 = section_s(g, (0, 0, 0))
    assert x0.linear == weyl_product(g, ()) and x0.translation == (0, 0, 0)


def test_section_homomorphism():
    g = build_group("GL4")
    classes = g.component_classes()
    for a in classes[:3]:
        for b in classes[:3]:
            ab = tuple(x + y for x, y in zip(a, b))
            lhs = section_s(g, ab)
            rhs = compose(section_s(g, a), section_s(g, b))
            # equal in the extended group modulo central translations
            assert lhs.linear.matrix == rhs.linear.matrix
            diff = tuple(
                p - q for p, q in zip(lhs.translation, rhs.translation)
            )
            assert all(g.root_pairing(j, diff) == 0 for j in range(g.l))


def test_w_nu_lift_independence():
    rng = random.Random(4)
    for spec in ("GL3", "Gext(E6)", "Gext(D5)"):
        g = build_group(spec)
        for cls in g.component_classes():
            base = w_nu(g, cls).matrix
            for _ in range(3):
                assert w_nu(g, random_lift(g, cls, rng)).matrix == base


def test_defect_gl2():
    g = build_group("GL2")
    assert defect(g, (0, 0)) == 0
    assert defect(g, (0, 1)) == 1


def test_defect_gln_closed_form():
    for n in (2, 3, 4, 5, 6):
        g = build_group(f"GL{n}")
        for k in range(n):
            lift = [0] * (n - 1) + [k]
            assert defect(g, tuple(lift)) == n - _gcd(k, n)


def test_defect_identity_reports():
    for spec in ("GL2", "GL4", "Gext(E6)", "Gext(B3)"):
        g = build_group(spec)
        for cls in g.component_classes():
            rep = verify_defect_identity(g, cls)
            assert rep["pass"], rep
            assert rep["d_G"] == Q(rep["defect"], 2)


@pytest.mark.parametrize("spec, lift", [
    ("GL3", (0, 0, 1)), ("GL4", (0, 0, 0, 2)), ("Gext(E6)", (0,) * 6 + (1,))])
def test_defect_and_character_checks_build_three_weyl_elements(
        monkeypatch, spec, lift):
    # on a fresh datum: the two sections and the `weyl_word` certificate
    # of the one "weyl_invariants" entry both reports read; on a repeat
    # only the two sections, each with every certificate it has
    g = build_group(spec)
    calls = []
    build = affine._weyl_element

    def counted(datum, image):
        calls.append(image)
        return build(datum, image)

    monkeypatch.setattr(affine, "_weyl_element", counted)
    for builds in (3, 2):
        calls.clear()
        assert verify_defect_identity(g, lift)["pass"]
        assert reflection_char_multiset_check(g, lift)["pass"]
        assert len(calls) == builds


SIMPLE_TYPES = [f"{letter}{rank}"
                for letter, (lo, hi) in dynkin.RANK_BOUNDS.items()
                for rank in range(lo, hi + 1)]


def _minus_one(matrix):
    """w - 1 for the integer matrix of w."""
    return [[a - int(i == j) for j, a in enumerate(row)]
            for i, row in enumerate(matrix)]


def _root_one_multiplicity(poly):
    """How often (x - 1) divides poly (constant term first), by synthetic
    division."""
    mult = 0
    while True:
        partial = list(itertools.accumulate(reversed(poly)))
        if partial[-1]:  # the remainder, poly(1)
            return mult
        poly = partial[-2::-1]
        mult += 1


def _check_weyl_invariants(g, matrix, invariants):
    # the oracles' view of one table entry: the word's product is w, the
    # cyclotomic factors multiply out to the Fraction charpoly, and the
    # corank is n less the multiplicity of the root 1 of that charpoly
    word, corank, mults, full = invariants
    assert weyl_product(g, word).matrix == matrix
    product = [1]
    for d, mult in mults:
        for _ in range(mult):
            product = poly_mul(product, cyclotomic(d))
    poly = charpoly(matrix)
    assert full and product == poly
    assert corank == g.n - _root_one_multiplicity(poly)


def test_weyl_invariants_are_read_once_per_class(monkeypatch):
    # the criterion 5 and 6 loop (every class, three lifts, both reports
    # and the defect): the table is built once per entry, keeps at most
    # one entry per component class, and each entry is what the oracles
    # give
    builds = []
    build = affine._build_weyl_invariants
    monkeypatch.setattr(affine, "_build_weyl_invariants",
                        lambda g, w: builds.append(w) or build(g, w))
    rng = random.Random(55)
    for spec in ("GL8", "Gext(E6)", "Gext(E7)"):
        g = build_group(spec)
        classes = g.component_classes()
        builds.clear()
        for cls in classes:
            for lift in (cls, random_lift(g, cls, rng),
                         random_lift(g, cls, rng)):
                rep = verify_defect_identity(g, lift)
                assert rep["pass"]
                assert reflection_char_multiset_check(g, lift)["pass"]
                assert defect(g, lift) == rep["defect"]
        table = g._memo["weyl_invariants"]
        assert len(builds) == len(table) <= len(classes)
        for matrix, invariants in table.items():
            _check_weyl_invariants(g, matrix, invariants)


SIMPLE_GROUPS = {s: build_group(s) for s in SIMPLE_TYPES}
WEYL_GROUPS = dict(SIMPLE_GROUPS, **{s: build_group(s) for s in (
    "Gext(A3)", "Gext(B4)", "Gext(C3)", "Gext(D5)", "Gext(E6)", "Gext(E7)",
    "GL2", "GL5", "GL8")})


@pytest.mark.parametrize("spec", sorted(WEYL_GROUPS))
@settings(max_examples=8)
@given(st.data())
def test_weyl_element_rows_are_the_word_product(spec, data):
    # the rows pulled back along the descent give the product of the full
    # reflection matrices over the descent's own word
    g = WEYL_GROUPS[spec]
    image = data.draw(st.lists(st.integers(-9, 9), min_size=g.n,
                               max_size=g.n))
    w, word, y = affine._weyl_element(g, image)
    assert (y, word) == g.dominant_rep(image)
    assert w == weyl_product(g, word)
    assert w.act(y) == tuple(image)


@pytest.mark.parametrize("spec", SIMPLE_TYPES)
@settings(max_examples=10)
@given(st.data())
def test_weyl_invariants_beyond_w_nu(spec, data):
    # the build on any Weyl element, not only on a w_nu (whose orders are
    # at most 9): the Coxeter element (order up to 30, on E8) and a drawn
    # word
    g = SIMPLE_GROUPS[spec]
    drawn = data.draw(st.lists(st.integers(0, g.l - 1), max_size=3 * g.l))
    for word in (range(g.l), drawn):
        w = weyl_product(g, word)
        _check_weyl_invariants(g, w.matrix,
                               affine._build_weyl_invariants(g, w))


def test_weyl_invariants_refuse_a_partial_galois_orbit(monkeypatch):
    # one vector short in ker(w^3 - 1) for the A2 Coxeter element (of
    # order 3) leaves e_3 = 1, not a multiple of phi(3) = 2: a real
    # raise, not an assert that python -O would strip
    g = build_group("A2")
    w = weyl_product(g, (0, 1))
    kernel = exactlinalg.integer_kernel

    def short_at_three(m):
        # w^3 - 1 is the one zero matrix the count meets
        found = kernel(m)
        return found if any(map(any, m)) else found[1:]

    monkeypatch.setattr(exactlinalg, "integer_kernel", short_at_three)
    with pytest.raises(RuntimeError, match="eigenvalues of order 3 are not"
                       " whole Galois orbits"):
        affine._build_weyl_invariants(g, w)


@pytest.mark.parametrize("spec", SIMPLE_TYPES
                         + [f"Gext({x})" for x in SIMPLE_TYPES]
                         + [f"GL{n}" for n in range(2, 10)])
def test_defect_is_the_rank_of_w_minus_one(spec):
    # the library counts the defect from kernel dimensions; here rank(w_nu
    # - 1) is n less the multiplicity of the root 1 of the Fraction charpoly
    g = build_group(spec)
    for cls in g.component_classes():
        poly = charpoly(w_nu(g, cls).matrix)
        assert defect(g, cls) == g.n - _root_one_multiplicity(poly)
        assert verify_defect_identity(g, cls)["pass"]
        assert reflection_char_multiset_check(g, cls)["pass"]


def test_reports_share_nothing_with_the_table():
    # a caller that changes a report changes neither the table nor the
    # next report
    g = build_group("Gext(E6)")
    lift = (0,) * 6 + (1,)
    reports = (verify_defect_identity(g, lift),
               reflection_char_multiset_check(g, lift))
    expect = copy.deepcopy(reports)
    reports[0]["w_word"].reverse()
    reports[0]["w_word"].append(0)
    reports[1]["orders"][0]["cyclotomic_multiplicity"] += 1
    reports[1]["orders"].append({})
    assert (verify_defect_identity(g, lift),
            reflection_char_multiset_check(g, lift)) == expect


def test_weyl_element_certifies_its_rows(monkeypatch):
    # a wrong row rebuild misses the image: here the support of alpha_0
    # that the rows are pulled back along is off by one in every
    # coordinate, planted once the descent has returned, so only the
    # rebuild reads it.  A real raise, not an assert that python -O
    # would strip
    g = build_group("GL3")
    section_s(g, (0, 0, 1))
    wrong = ((tuple((i, g.alpha[i][0] + 1) for i in range(g.n)),)
             + g._root_support[1:])
    dominant_rep = RootDatum.dominant_rep

    def planted(self, x):
        found = dominant_rep(self, x)
        monkeypatch.setattr(self, "_root_support", wrong)
        return found

    monkeypatch.setattr(RootDatum, "dominant_rep", planted)
    with pytest.raises(RuntimeError, match="misses the image"):
        section_s(g, (0, 0, 1))
    assert g._root_support == wrong


@pytest.mark.parametrize("spec", ["GL5", "Gext(D5)", "Gext(E6)",
                                  "GL4*Gext(B3)"])
def test_chis_are_the_fractional_parts_of_the_central_part(spec):
    # read off the int form (L, L z) of the central part as the ints
    # L z_i mod L in [0, L): over L, what the `Fraction` floor gives
    g = build_group(spec)
    rng = random.Random(5)
    for cls in g.component_classes():
        lift = random_lift(g, cls, rng)
        scale, chis = affine._chis(g, lift)
        assert all(type(v) is int and 0 <= v < scale for v in chis)
        assert repr([Q(v, scale) for v in chis]) == repr(
            [frac_part(c) for c in g.central_part(lift[g.l:])])


# every simple type as X and as Gext(X), GL_n, and products with tori
EVERY_GROUP = {s: build_group(s) for s in (
    SIMPLE_TYPES + [f"Gext({x})" for x in SIMPLE_TYPES]
    + [f"GL{n}" for n in range(1, 10)]
    + ["T2", "A2*T1", "B2*T1", "G2*T2", "GL3*T1", "D5*T1", "C3*T2",
       "Gext(E6)*T1", "GL2*Gext(A3)*T1"])}


@pytest.mark.parametrize("spec", sorted(EVERY_GROUP))
def test_character_reports_match_their_fraction_forms(spec):
    # every class and two seeded random lifts of it: the int reports
    # against the `Fraction` forms built from `frac_part` of the central
    # part, repr for repr
    g = EVERY_GROUP[spec]
    rng = random.Random(35)
    for cls in g.component_classes():
        for lift in (cls, random_lift(g, cls, rng), random_lift(g, cls, rng)):
            assert repr(verify_defect_identity(g, lift)) == repr(
                defect_identity_report(g, lift))
            assert repr(reflection_char_multiset_check(g, lift)) == repr(
                char_multiset_report(g, lift))


def test_character_reports_build_two_fractions(monkeypatch):
    # on a warm datum, one class op (both reports) builds two `Fraction`s
    # in `affine`: half the defect and twice the character sum, which is
    # read on ints; the characters themselves stay ints
    g = build_group("Gext(E7)")
    lift = (1, -2, 0, 3, -1, 2, 0, 1)
    rep = (verify_defect_identity(g, lift),
           reflection_char_multiset_check(g, lift))
    built = []

    def counted(*args):
        built.append(args)
        return Q(*args)

    monkeypatch.setattr(affine, "Q", counted)
    assert (verify_defect_identity(g, lift),
            reflection_char_multiset_check(g, lift)) == rep
    assert rep[0]["pass"] and rep[1]["pass"]
    assert len(built) == 2


@pytest.mark.parametrize("spec", sorted(EVERY_GROUP))
@settings(max_examples=3)
@given(st.data())
def test_base_alcove_check_refuses_the_neighbours_of_the_section(spec, data):
    # the section's x0 fixes the base alcove; x0 s_j moves it across its
    # wall j, and t_{e_j} x0 translates it by the simple coroot e_j, so
    # the check refuses both, for every j
    g = EVERY_GROUP[spec]
    lift = data.draw(st.lists(st.integers(-6, 6), min_size=g.n,
                              max_size=g.n))
    x0 = section_s(g, lift)
    assert stabilizes_base_alcove(g, x0)
    for j in range(g.l):
        turned = affine.AffineWeylElement(
            x0.translation, compose(x0.linear, simple_reflection(g, j)))
        assert not stabilizes_base_alcove(g, turned)
        shifted = affine.AffineWeylElement(
            tuple(t + (i == j) for i, t in enumerate(x0.translation)),
            x0.linear)
        assert not stabilizes_base_alcove(g, shifted)


def test_chi_gl2():
    g = build_group("GL2")
    assert chi(g, 0, (0, 1)) == Q(1, 2)
    assert chi(g, 1, (0, 1)) == 0
    assert chi(g, 0, (0, 0)) == 0


@pytest.mark.parametrize("i", [-1, -2, 2, 3, 1.0, "0"])
def test_chi_refuses_an_index_out_of_range(i):
    # -1 once answered chi_1 (index n - 1), 2 raised a bare IndexError
    # and 1.0 a bare TypeError
    g = build_group("GL2")
    with pytest.raises(ValueError, match=re.escape(
            f"index {i!r} is not an int in range(2)")) as exc:
        chi(g, i, (0, 1))
    assert "\n" not in str(exc.value)


def test_chi_gln_powers_of_chi1():
    g = build_group("GL5")
    for cls in g.component_classes():
        c1 = chi(g, 0, cls)
        for i in range(g.l):
            expect = Q((i + 1)) * c1
            assert chi(g, i, cls) == expect - int(expect)


def test_chi_gext_e6_pattern():
    g = build_group("Gext(E6)")
    for cls in g.component_classes():
        chis = [chi(g, i, cls) for i in range(g.n)]
        assert chis[1] == 0 and chis[3] == 0  # nodes 2 and 4
        assert chis[0] == chis[4]  # chi_1 = chi_5
        assert chis[2] == chis[5]  # chi_3 = chi_6
        assert chis[6] == 0  # torus coordinate
        nontrivial = [c for c in chis if c != 0]
        if nontrivial:
            assert chis[0] != chis[2]


def test_chi_additive():
    g = build_group("GL4")
    classes = g.component_classes()
    for a in classes:
        for b in classes:
            ab = tuple(x + y for x, y in zip(a, b))
            for i in range(g.n):
                s = chi(g, i, a) + chi(g, i, b)
                assert chi(g, i, ab) == s - int(s)


def test_char_multiset_trivial():
    g = build_group("GL3")
    rep = reflection_char_multiset_check(g, (0, 0, 0))
    assert rep["pass"]
    assert rep["orders"] == [
        {"order": 1, "cyclotomic_multiplicity": 3, "char_count": 3,
         "full_orbits": True}
    ]


def test_char_multiset_gl2_gl3():
    g2 = build_group("GL2")
    rep = reflection_char_multiset_check(g2, (0, 1))
    assert rep["pass"]
    mults = {o["order"]: o["cyclotomic_multiplicity"] for o in rep["orders"]}
    assert mults == {1: 1, 2: 1}
    g3 = build_group("GL3")
    rep = reflection_char_multiset_check(g3, (0, 0, 1))
    assert rep["pass"]
    mults = {o["order"]: o["cyclotomic_multiplicity"] for o in rep["orders"]}
    assert mults == {1: 1, 3: 1}


def test_w_nu_order_divides_class_order():
    for spec in ("GL4", "GL6", "Gext(E6)", "Gext(D5)"):
        g = build_group(spec)
        factors = g.component_group()
        exponent = 1
        for f in factors:
            exponent = exponent * f // _gcd(exponent, f)
        for cls in g.component_classes():
            order = matrix_order(w_nu(g, cls).matrix)
            assert exponent % order == 0


def test_simple_affine_roots_count():
    g = build_group("B2*A1")
    assert len(affine._affine_tables(g)[0]) == 5  # (2+1) + (1+1)
    # every simple type: the affine root is (-theta, 1, gid, -theta^vee)
    # with theta from root strings and theta^vee from the invariant form,
    # and the sample point lies strictly inside the base alcove
    for letter, (lo, hi) in dynkin.RANK_BOUNDS.items():
        for rank in range(lo, hi + 1):
            g = build_group(f"{letter}{rank}")
            roots, den, p0, _vertices, _weights = affine._affine_tables(g)
            theta, theta_check = highest_root(g, g.factors[0])
            assert len(roots) == rank + 1
            assert roots[-1] == (tuple(-c for c in theta), 1, -1,
                                 tuple(-c for c in theta_check))
            # p0 is stored as the int vector den * p0, den > 0
            assert den > 0 and all(type(p) is int for p in p0)
            assert all(sum(c * p for c, p in zip(lam, p0)) + k * den > 0
                       for lam, k, _gid, _h in roots)


def test_affine_tables_theta_check_raises(monkeypatch):
    # norms that make a highest-root mark fractional; a real raise, not
    # an assert that python -O would strip
    g = build_group("GL3")  # fresh datum: no affine tables cached yet
    monkeypatch.setattr(affine.dynkin, "root_norms",
                        lambda letter, l: [Q(2)] * (l - 1) + [Q(3)])
    with pytest.raises(RuntimeError, match="marks are not integers"):
        affine._affine_tables(g)


CARTAN_SPECS = SIMPLE_TYPES + ["B2*A1", "GL4*Gext(B3)"]


@pytest.mark.parametrize("spec", CARTAN_SPECS)
def test_affine_cartan_table(spec):
    # C[r][s] = <lam_r, h_s> over the simple affine roots: 2 on the
    # diagonal, the transposed Cartan matrix on each finite block, <= 0
    # off the diagonal, block-diagonal by factor, and per factor the marks
    # (1 on the affine node) a left and the theta^vee coefficients a right
    # null vector, both from root strings and the invariant form
    g = build_group(spec)
    roots = affine._affine_tables(g)[0]
    size = len(roots)
    cmat = [[sum(a * b for a, b in zip(lam, h)) for _l, _k, _g, h in roots]
            for lam, _k, _g, _h in roots]
    factor_of = {}
    for fidx, f in enumerate(g.factors):
        for j in f.indices:
            factor_of[j] = fidx
        factor_of[-(fidx + 1)] = fidx
    fac = [factor_of[gid] for _lam, _k, gid, _h in roots]
    for r in range(size):
        for s in range(size):
            if r == s:
                assert cmat[r][s] == 2
            else:
                assert cmat[r][s] <= 0
                if fac[r] != fac[s]:
                    assert cmat[r][s] == 0
    for fidx, f in enumerate(g.factors):
        cm = dynkin.cartan_matrix(f.letter, f.rank)
        _theta, theta_check = highest_root(g, f)
        marks = positive_roots(cm)[-1]
        idx = [r for r in range(size) if fac[r] == fidx]
        # Bourbaki position of each finite node; the affine node has none
        pos = {r: f.indices.index(roots[r][2]) for r in idx
               if roots[r][2] >= 0}
        for r in pos:
            for s in pos:
                assert cmat[r][s] == cm[pos[s]][pos[r]]
        left = {r: marks[pos[r]] if r in pos else 1 for r in idx}
        right = {r: theta_check[roots[r][2]] if r in pos else 1 for r in idx}
        for s in idx:
            assert sum(left[r] * cmat[r][s] for r in idx) == 0
        for r in idx:
            assert sum(cmat[r][s] * right[s] for s in idx) == 0


@pytest.mark.parametrize("spec", CARTAN_SPECS)
def test_affine_table_matches_fractions(spec):
    # the one table's int vectors over its one den, against Fractions from
    # the inverse top block and root strings: p0 = rho^vee / (h + 1) per
    # factor, the vertices the sums over the factors of 0 or a varpi_j^vee
    # with mark 1, and k_j of 2 rho the sum of the positive roots
    g = build_group(spec)
    _roots, den, p0, vertices, weights = affine._affine_tables(g)
    # row j of the inverse top block is varpi_j^vee, torus part 0
    inv = fraction_inverse([list(g.alpha[i][:g.l]) for i in range(g.l)])
    rho, picks, two_rho = [Q(0)] * g.n, [], [0] * g.l
    for f in g.factors:
        roots = positive_roots(dynkin.cartan_matrix(f.letter, f.rank))
        marks = roots[-1]
        for i in f.indices:
            rho[i] = sum(inv[j][i] for j in f.indices) / (sum(marks) + 2)
        picks.append([None] + [j for j, m in zip(f.indices, marks) if m == 1])
        for root in roots:
            for j, c in zip(f.indices, root):
                two_rho[j] += c
    assert [Q(v, den) for v in p0] == rho
    expect = {tuple(sum((inv[j][i] for j in pick if j is not None), Q(0))
                    if i < g.l else 0 for i in range(g.n))
              for pick in itertools.product(*picks)}
    assert len(vertices) == len(expect)
    assert {tuple(Q(v, den) for v in vertex) for vertex in vertices} == expect
    assert [Q(k, den) for k in weights] == two_rho


def test_affine_cartan_diagonal_check_raises(monkeypatch):
    # a doubled theta^vee (and with it the marks and theta) puts
    # <-theta, -theta^vee> = 8 on the affine root's diagonal; a real
    # raise, not an assert that python -O would strip
    g = build_group("GL3")  # fresh datum: no affine tables cached yet
    dominant_rep = RootDatum.dominant_rep

    def doubled(self, x):
        y, word = dominant_rep(self, x)
        return tuple(2 * c for c in y), word

    monkeypatch.setattr(RootDatum, "dominant_rep", doubled)
    with pytest.raises(RuntimeError, match="diagonal"):
        affine._affine_tables(g)


def test_alcove_reduce_refuses_a_sample_point_on_a_wall():
    # GL2's theta is alpha_1: with den planted as <alpha_1, den p0>, the
    # sample point pairs positively with alpha_1 and lies on the affine
    # wall <-theta, v> + 1 = 0; a real raise, not an assert
    roots, _den, p0, vertices, weights = affine._affine_tables(
        build_group("GL2"))
    val = sum(c * p for c, p in zip(roots[0][0], p0))
    assert val > 0
    g = build_group("GL2")  # fresh datum: its own memo
    g.memo("affine_tables", None,
           lambda d: (roots, val, p0, vertices, weights))
    with pytest.raises(RuntimeError, match="affine wall"):
        alcove_reduce(g, translation(g, (0, 0)))


CLOSED_FORM_GROUPS = {s: build_group(s) for s in (
    "GL8", "Gext(D5)", "Gext(E6)", "Gext(E7)", "GL3", "B2*T1", "C3")}


@pytest.mark.parametrize("spec", sorted(CLOSED_FORM_GROUPS))
@given(st.data())
def test_section_matches_closed_form(spec, data):
    # the walk's element equals the Iwahori-Matsumoto closed form on a
    # lift of every class: the class plus a drawn coroot combination
    g = CLOSED_FORM_GROUPS[spec]
    offset = data.draw(st.lists(st.integers(-8, 8), min_size=g.l,
                                max_size=g.l))
    for cls in g.component_classes():
        lift = tuple(c + q for c, q in zip(cls, offset)) + cls[g.l:]
        assert section_s(g, lift) == section_closed_form(g, lift)


def test_closed_form_defect_beyond_the_guard():
    # GL3 (0, 0, 100000) lies in the class of (0, 0, 1): defect 3 - 1 = 2
    # from the closed form, while the library's walk stops at its guard
    g = build_group("GL3")
    lift = (0, 0, 100000)
    w = section_closed_form(g, lift).linear
    assert w == section_closed_form(g, (0, 0, 1)).linear
    assert len(exactlinalg.integer_kernel(_minus_one(w.matrix))) == 1
    with pytest.raises(OrbitGuardError):
        defect(g, lift)


@pytest.mark.parametrize("spec", sorted(CLOSED_FORM_GROUPS))
@given(st.data())
def test_section_matches_the_walk(spec, data):
    # the closed form equals the element the alcove walk reaches from the
    # translation, on a lift of every class (the class plus a drawn coroot
    # combination), and the guard's length l(t_nu) is the walk's length
    g = CLOSED_FORM_GROUPS[spec]
    offset = data.draw(st.lists(st.integers(-8, 8), min_size=g.l,
                                max_size=g.l))
    for cls in g.component_classes():
        lift = tuple(c + q for c, q in zip(cls, offset)) + cls[g.l:]
        x0, word = alcove_reduce(g, translation(g, lift))
        assert section_s(g, lift) == x0
        assert affine._translation_length(g, lift) == len(word)


def test_section_guard_boundary_gl2():
    # the guard reads l(t_nu), the walk's length: (0, k) has length k, and
    # the guard fires at 100,000 as the walk's does
    g = build_group("GL2")
    assert section_s(g, (0, 99999)) == section_closed_form(g, (0, 99999))
    with pytest.raises(OrbitGuardError, match="exceeds guard 100000"):
        section_s(g, (0, 100000))


def test_section_descends_nu_only_past_the_bound(monkeypatch):
    # an ordinary lift costs one descent (the linear part's); a lift whose
    # bound sum_j k_j |<alpha_j, nu>| reaches the guard also descends nu,
    # and passes when l(t_nu) stays below it: on GL3 (10000, -10000, 0)
    # pairs to (30000, -30000), bound 120,000 and length 60,000
    g = build_group("GL3")
    section_s(g, (0, 0, 0))  # the affine tables descend theta^vee
    descents = []
    dominant_rep = RootDatum.dominant_rep
    monkeypatch.setattr(RootDatum, "dominant_rep", lambda self, x: (
        descents.append(x) or dominant_rep(self, x)))
    section_s(g, (5, -7, 2))
    assert len(descents) == 1
    lift = (10000, -10000, 0)
    expect = section_closed_form(g, lift)
    descents.clear()
    assert section_s(g, lift) == expect
    assert len(descents) == 2 and descents[0] == lift
    assert affine._translation_length(g, lift) == 60000


def _planted_vertices(g, change):
    """A fresh copy of the datum g whose affine table holds change(den,
    vertices) in place of the vertices."""
    fresh = build_group(g.label)
    roots, den, p0, vertices, weights = affine._build_affine_tables(fresh)
    fresh.memo("affine_tables", None, lambda d: (
        roots, den, p0, change(den, vertices), weights))
    return fresh


@pytest.mark.parametrize("spec", ["GL3", "Gext(E6)", "GL4*Gext(B3)"])
def test_section_vertex_certificate_fires(spec):
    # a vertex table with every vertex moved off the lattice has no
    # integral vertex; one with each vertex also moved by den e_1 has two;
    # real raises, not asserts that python -O would strip
    g = build_group(spec)
    lift = g.component_classes()[-1]
    off = _planted_vertices(g, lambda den, vs: tuple(
        (v[0] + 1,) + v[1:] for v in vs))
    with pytest.raises(RuntimeError, match="no integral vertex"):
        section_s(off, lift)
    twice = _planted_vertices(g, lambda den, vs: vs + tuple(
        (v[0] + den,) + v[1:] for v in vs))
    with pytest.raises(RuntimeError, match="two integral vertices"):
        section_s(twice, lift)
    assert section_s(g, lift) == section_closed_form(g, lift)


def test_section_checks_the_descent(monkeypatch):
    # a descent that reports one reflection too many rebuilds a w that
    # misses the image
    g = build_group("GL3")
    dominant_rep = RootDatum.dominant_rep

    def longer(self, x):
        y, word = dominant_rep(self, x)
        return y, word + (0,)

    monkeypatch.setattr(RootDatum, "dominant_rep", longer)
    with pytest.raises(RuntimeError, match="misses the image"):
        section_s(g, (0, 0, 1))


def test_alcove_reduce_checks_the_descent_end(monkeypatch):
    # a descent that stops one reflection early still rebuilds a w that
    # hits its image, but ends off den * p0: the walk's linear part is
    # refused
    g = build_group("GL3")
    section_s(g, (0, 0, 0))  # the affine tables descend theta^vee
    dominant_rep = RootDatum.dominant_rep

    def early(self, x):
        y, word = dominant_rep(self, x)
        y = list(y)
        y[word[-1]] -= self.root_pairing(word[-1], y)  # undo the last s_j
        return tuple(y), word[:-1]

    monkeypatch.setattr(RootDatum, "dominant_rep", early)
    with pytest.raises(RuntimeError, match="descent failed"):
        alcove_reduce(g, translation(g, (0, 0, 1)))


def test_section_checks_the_class():
    # a corrupted central part moves the tail of the vertex: x0 would lie
    # in another class than nu
    central = build_group("GL3").central_part((1,))
    bad = central[:2] + (central[2] + 1,)
    g = build_group("GL3")  # fresh datum: its own memo
    # both forms of the entry, of the same corrupted point
    g.memo("central", (1,), lambda d: (bad, scale_to_ints(bad)))
    with pytest.raises(RuntimeError, match="changed the class of nu"):
        section_s(g, (4, -2, 1))


FORMULA_GROUPS = {s: build_group(s) for s in (
    "GL4", "Gext(D4)", "B2*A1", "GL8", "Gext(E6)", "Gext(E7)")}


def _lift(g):
    return st.tuples(st.just(g), st.lists(
        st.integers(-6, 6), min_size=g.n, max_size=g.n).map(tuple))


@given(st.sampled_from(sorted(FORMULA_GROUPS)).map(FORMULA_GROUPS.get)
       .flatmap(_lift))
def test_alcove_reduce_matches_generator_products(case):
    # x0 = (product of the full generator matrices over the word) * t_lift
    g, lift = case
    x0, word = alcove_reduce(g, translation(g, lift))
    x = translation(g, lift)
    gens = {gid: affine_generator(g, gid) for gid in set(word)}
    for gid in word:
        x = compose(gens[gid], x)
    assert x0.translation == x.translation
    assert x0.linear.matrix == x.linear.matrix
    assert stabilizes_base_alcove(g, x0)


def _word(g):
    return st.tuples(st.just(g), st.lists(st.integers(0, g.l - 1),
                                          max_size=12))


@given(st.sampled_from(sorted(FORMULA_GROUPS)).map(FORMULA_GROUPS.get)
       .flatmap(_word))
def test_weyl_word_reproduces_element(case):
    g, word = case
    w = weyl_product(g, word)
    found = weyl_word(g, w)
    assert weyl_product(g, found) == w
    assert len(found) <= len(word)  # descent gives a reduced word


@pytest.mark.parametrize("matrix", [
    ((2, 0), (0, 2)),  # moves p0 off its orbit: the descent end is checked
    ((1, 0), (0, 2)),  # fixes p0: only the matrix comparison catches it
], ids=["descent_end", "matrix_check"])
def test_weyl_word_rejects_non_weyl_matrix(matrix):
    g = build_group("GL2")
    with pytest.raises(RuntimeError):
        weyl_word(g, WeylElement(matrix))
