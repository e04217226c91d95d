"""Extended affine Weyl group: section, defect, characters."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtonstrata import affine, dynkin, exactlinalg
from newtonstrata.affine import (
    alcove_reduce,
    chi,
    defect,
    reflection_char_multiset_check,
    section_s,
    simple_affine_roots,
    stabilizes_base_alcove,
    translation,
    verify_defect_identity,
    w_nu,
    weyl_word,
)
from newtonstrata.rationals import Q
from newtonstrata.rootdata import OrbitGuardError, WeylElement, build_group
from newtonstrata.strata import d_G
from newtonstrata.verify import random_lift
from oracles import (
    affine_generator, compose, highest_root, matrix_order, positive_roots,
    section_closed_form, weyl_product)


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
    with pytest.raises(RuntimeError):
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


def test_chi_gl2():
    g = build_group("GL2")
    assert chi(g, 0, (0, 1)) == Q(1, 2)
    assert chi(g, 1, (0, 1)) == 0
    assert chi(g, 0, (0, 0)) == 0


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
    assert len(simple_affine_roots(g)) == 5  # (2+1) + (1+1)
    # every simple type: the affine root is (-theta, 1, gid, -theta^vee)
    # with theta from root strings and theta^vee from the invariant form,
    # and the sample point lies strictly inside the base alcove
    for letter, (lo, hi) in dynkin.RANK_BOUNDS.items():
        for rank in range(lo, hi + 1):
            g = build_group(f"{letter}{rank}")
            roots, den, p0 = affine._affine_tables(g)
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
    with pytest.raises(RuntimeError):
        simple_affine_roots(g)


CARTAN_SPECS = [f"{letter}{rank}"
                for letter, (lo, hi) in dynkin.RANK_BOUNDS.items()
                for rank in range(lo, hi + 1)] + ["B2*A1", "GL4*Gext(B3)"]


@pytest.mark.parametrize("spec", CARTAN_SPECS)
def test_affine_cartan_table(spec):
    # C[r][s] = <lam_r, h_s> from the cached columns: 2 on the diagonal,
    # the transposed Cartan matrix on each finite block, <= 0 off the
    # diagonal, block-diagonal by factor, and per factor the marks (1 on
    # the affine node) a left and the theta^vee coefficients a right null
    # vector, both from root strings and the invariant form
    g = build_group(spec)
    roots = simple_affine_roots(g)
    size = len(roots)
    cmat = [[0] * size for _ in range(size)]
    for s, col in enumerate(affine._affine_cartan(g)):
        for r, c in col:
            cmat[r][s] = c
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


def test_affine_cartan_diagonal_check_raises(monkeypatch):
    # a coroot scaled by 2 puts 4 on the diagonal; a real raise, not an
    # assert that python -O would strip
    g = build_group("GL3")  # fresh datum: no affine Cartan table cached yet
    roots, den, p0 = affine._affine_tables(g)
    lam, k, gid, h = roots[0]
    bad = [(lam, k, gid, tuple(2 * c for c in h))] + roots[1:]
    monkeypatch.setattr(affine, "_affine_tables", lambda d: (bad, den, p0))
    with pytest.raises(RuntimeError, match="diagonal"):
        affine._affine_cartan(g)


def test_alcove_walk_certificate_fires():
    # a corrupted entry of the cached C columns makes the carried pairings
    # disagree with those of the rebuilt end point: alcove_reduce raises
    # instead of returning a wrong element, for every entry of the table
    lift = (2, -3, 1)
    table = affine._build_affine_cartan(build_group("GL3"))
    for s, col in enumerate(table):
        for k, (r, c) in enumerate(col):
            bad = table[:s] + (col[:k] + ((r, c + 1),) + col[k + 1:],) \
                + table[s + 1:]
            g = build_group("GL3")  # fresh datum: its own memo
            g.memo("affine_cartan", None, lambda d: bad)
            with pytest.raises(RuntimeError, match="disagree"):
                alcove_reduce(g, translation(g, lift))
    g = build_group("GL3")
    assert alcove_reduce(g, translation(g, lift))[1]  # a nonempty word


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
    assert exactlinalg.rank([[a - int(i == j) for j, a in enumerate(row)]
                             for i, row in enumerate(w.matrix)]) == 2
    with pytest.raises(OrbitGuardError):
        defect(g, lift)


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
