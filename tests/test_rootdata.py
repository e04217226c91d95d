"""Construction, pairings, Weyl action, Levi passage, lattice quotients."""

import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newtonstrata import dynkin, rootdata
from newtonstrata.rationals import NEG_INF, Q
from newtonstrata.rootdata import GroupSpecError, OrbitGuardError, build_group
from oracles import (
    change_extension, dominant_rep, positive_roots, simple_reflection,
    weyl_orbit, weyl_product)


def test_gl2_datum():
    g = build_group("GL2")
    assert (g.n, g.l) == (2, 1)
    assert g.root_coords(0) == (2, -1)


def test_a1_datum():
    g = build_group("A1")
    assert (g.n, g.l) == (1, 1)
    assert g.alpha == ((2,),)


def test_gln_alpha_columns():
    g = build_group("GL4")
    for j in range(g.l):
        col = g.root_coords(j)
        expect = [0] * 4
        expect[j] = 2
        if j > 0:
            expect[j - 1] = -1
        expect[j + 1] = -1
        assert col == tuple(expect)


def test_gext_e6_component_group():
    g = build_group("Gext(E6;m=-e1)")
    assert (g.n, g.l) == (7, 6)
    assert g.component_group() == (3,)


def test_gext_preset_picks_full_quotient():
    assert build_group("Gext(E6)").component_group() == (3,)
    assert build_group("Gext(E7)").component_group() == (2,)
    assert build_group("Gext(D5)").component_group() == (4,)


# every simply connected simple type, as (letter, rank)
SCTYPES = [(letter, rank) for letter, (lo, hi) in dynkin.RANK_BOUNDS.items()
           for rank in range(lo, hi + 1)]


@pytest.mark.parametrize("letter, rank", SCTYPES)
def test_gext_preset_row_matches_the_component_groups(letter, rank):
    # the closed form picks the first j of largest order, as read off the
    # component group of each Gext(X; m=-e_j)
    orders = [math.prod(build_group(
        f"Gext({letter}{rank};m=-e{j})").component_group())
        for j in range(1, rank + 1)]
    j = orders.index(max(orders))
    assert rootdata._gext_preset_row(letter, rank) == [
        -int(i == j) for i in range(rank)]


# specs in the grammar that `_parse_factor` refuses, with the message
PARSE_REFUSALS = (
    ("T0", "torus rank must be >= 1"),
    ("GL2*T0", "torus rank must be >= 1"),
    ("Gext(A2;m=e3)", "basis index out of range in 'Gext(A2;m=e3)'"),
    ("Gext(A2;m=-e0)", "basis index out of range in 'Gext(A2;m=-e0)'"),
)


def test_parse_errors():
    for bad in ("H3", "GL0", "GL10", "Gext(E6;m=1)", "A9", "E5", "",
                "Gext(A2;m=ex)", "Gext(A2;m=e)", "Gext(A2;m=-e)",
                # outside the grammar: a sign, a space, a non-ASCII digit or
                # an underscore in a number, or a space inside Gext(...)
                "GL+3", "GL 3", "GL\u0663", "A 2", "T+1", "GL1_0", "T1_0",
                "Gext( A2 )", "Gext(A2 ;m=e1)", "Gext(A2;m= e1)",
                "Gext(A2;m=+1,0)", "Gext(A2;m=1, 0)"):
        with pytest.raises(GroupSpecError):
            build_group(bad)
    # in the grammar, refused by `_parse_factor`'s range checks
    for bad, message in PARSE_REFUSALS:
        with pytest.raises(GroupSpecError, match=re.escape(message)):
            build_group(bad)


@settings(max_examples=200)
@given(data=st.data())
def test_a_spec_in_the_grammar_builds_its_plan(data):
    # each factor is drawn with the plan entry it stands for, so the spec
    # is checked against `_assemble` without going through `_parse_factor`
    def num(k):  # INT: ASCII digits, a leading zero allowed
        return data.draw(st.sampled_from(["", "0"])) + str(k)

    tokens, plan = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(
            ["GL", "T", "simple", "preset", "basis", "vector"]))
        if kind == "GL":
            n = data.draw(st.integers(1, 9))
            tokens.append(f"GL{num(n)}")
            plan.append(("torus", 1) if n == 1 else
                        ("gext", "A", n - 1, [0] * (n - 2) + [-1]))
            continue
        if kind == "T":
            k = data.draw(st.integers(1, 3))
            tokens.append(f"T{num(k)}")
            plan.append(("torus", k))
            continue
        letter, rank = data.draw(st.sampled_from(SCTYPES))
        typ = f"{letter}{num(rank)}"
        if kind == "simple":
            tokens.append(typ)
            plan.append(("simple", letter, rank))
            continue
        if kind == "preset":
            tokens.append(f"Gext({typ})")
            row = rootdata._gext_preset_row(letter, rank)
        elif kind == "basis":
            k = data.draw(st.integers(1, rank))
            sign = data.draw(st.sampled_from(["", "-"]))
            tokens.append(f"Gext({typ};m={sign}e{num(k)})")
            row = [0] * rank
            row[k - 1] = -1 if sign else 1
        else:
            row = data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                     max_size=rank))
            tokens.append(f"Gext({typ};m={','.join(map(str, row))})")
        plan.append(("gext", letter, rank, row))
    label = tokens[0]
    for tok in tokens[1:]:
        label += data.draw(st.sampled_from(["*", " *", "* ", "  *  "])) + tok
    ends = st.sampled_from(["", " ", "  "])
    g = build_group(data.draw(ends) + label + data.draw(ends))
    want = rootdata._assemble(plan, label=label)
    assert (g.n, g.l, g.alpha, g.factors, g.label) == (
        want.n, want.l, want.alpha, want.factors, label)


A1 = rootdata.Factor("A", 1, (0,))


@pytest.mark.parametrize("n, l, alpha, factors, match", [
    (0, 0, [], [], "rank bounds violated"),
    (2, 1, [[2]], [A1], "wrong shape"),
    (2, 1, [[3], [-1]], [A1], "does not match the Cartan matrix"),
    # both factors fill the one Cartan entry, so the block matches
    (2, 1, [[2], [-1]], [A1, A1], "do not cover the simple roots"),
    # each factor below is refused before the expected block reads it
    (2, 1, [[2], [-1]], [rootdata.Factor("Z", 1, (0,))], "invalid factor"),
    (2, 1, [[2], [-1]], [rootdata.Factor("A", 9, (0,))], "invalid factor"),
    (2, 1, [[2], [-1]], [rootdata.Factor("A", 2, (0,))], "invalid factor"),
    (2, 1, [[2], [-1]], [rootdata.Factor("A", 1, (5,))], "invalid factor"),
    (2, 1, [[2], [-1]], [rootdata.Factor("A", 1, (-1,))], "invalid factor"),
], ids=["rank", "shape", "block", "cover", "letter", "factor_rank",
        "indices_length", "index_past_l", "negative_index"])
def test_datum_refuses_an_invalid_skeleton(n, l, alpha, factors, match):
    with pytest.raises(GroupSpecError, match=match):
        rootdata.RootDatum(n, l, alpha, factors)


@pytest.mark.parametrize("subset", [{3}, {-1}, {0, 2}])
def test_levi_refuses_an_index_off_the_simple_roots(subset):
    with pytest.raises(ValueError, match="invalid Levi subset"):
        build_group("GL3").levi(subset)


@pytest.mark.parametrize("block", [
    [[3]], [[2, -2], [-2, 2]], [[2, -4], [-1, 2]]],
    ids=["diagonal", "affine_A1", "BC2"])
def test_classify_refuses_a_block_of_no_finite_type(block):
    with pytest.raises(ValueError, match="not a Cartan matrix"):
        dynkin.classify(block)


def test_datum_takes_no_new_attributes():
    g = build_group("GL2")
    with pytest.raises(AttributeError):
        g.extra_table = {}


def test_products():
    g = build_group("A2*T1")
    assert (g.n, g.l) == (3, 2)
    g = build_group("B2*GL2")
    assert (g.n, g.l) == (4, 3)
    assert g.component_group() == (2,)


def test_is_dominant():
    g = build_group("GL2")
    assert g.is_dominant((Q(1), Q(1)))
    assert not g.is_dominant((Q(0), Q(2)))
    assert g.is_dominant((Q(0), Q(0)))
    # ints, Fractions and a mix read the same signs
    assert g.is_dominant((1, 2)) and not g.is_dominant((0, 2))
    assert not g.is_dominant((Q(1, 3), Q(3, 4)))
    assert g.is_dominant((Q(1, 2), 1)) and not g.is_dominant((Q(-1, 2), 1))
    for x in ((Q(1),), (Q(1), Q(1), Q(1)), (NEG_INF, Q(0))):
        with pytest.raises(ValueError):
            g.is_dominant(x)


def test_leq():
    g = build_group("GL2")
    assert g.leq((Q(0), Q(2)), (Q(1), Q(2)))
    assert not g.leq((Q(0), Q(2)), (Q(1), Q(3)))
    x = (Q(1, 2), Q(7))
    assert g.leq(x, x)
    assert g.leq((0, 2), (Q(1, 2), 2)) and not g.leq((Q(1, 2), 2), (0, 2))
    for a, b in ((x, x + (Q(9),)), (x + (Q(9),), x), (x[:1], x),
                 ((NEG_INF, Q(7)), x), (x, (NEG_INF, Q(7))),
                 ((Q(0), NEG_INF), (Q(0), NEG_INF))):
        with pytest.raises(ValueError):
            g.leq(a, b)


@pytest.mark.parametrize("first, second", [((1,), (Q(1),)), ((Q(1),), (1,))])
def test_central_part_types_ignore_call_order(first, second):
    # an int and an equal Fraction share a cache entry; the answer is
    # all Fractions whichever of them came first
    g = build_group("GL2")
    for torus in (first, second):
        z = g.central_part(torus)
        assert z == (Q(1, 2), 1) and all(type(c) is Q for c in z)
        # the int form comes from the same entry
        assert g.central_forms(torus) == (z, (2, (1, 2)))
        assert g.central_forms(torus)[0] is z


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_central_part_refuses_a_float(warm):
    # 1.0 == 1 with one hash: a float was once looked up under the int's
    # entry on a warm datum, and refused only on a fresh one
    g = build_group("GL2")
    if warm:
        assert g.central_part((1,)) == (Q(1, 2), 1)
    with pytest.raises(ValueError, match="not an int or a Fraction") as exc:
        g.central_part((1.0,))
    assert "\n" not in str(exc.value)
    # an int and an equal Fraction still share one entry
    assert g.central_part((Q(1),)) == g.central_part((1,)) == (Q(1, 2), 1)
    assert list(g._memo["central"]) == [(1,)]


def test_dominant_rep_examples():
    a1 = build_group("A1")
    assert a1.dominant_rep((Q(-3),)) == ((3,), (0,))
    g = build_group("GL2")
    assert g.dominant_rep((Q(0), Q(2))) == ((2, 2), (0,))
    dom = (Q(3), Q(4))
    assert g.dominant_rep(dom) == (dom, ())


DOMINANT_GROUPS = {s: build_group(s) for s in ("GL4", "B2", "G2", "Gext(D4)")}


def _positive_root_count(g):
    return sum(
        len(positive_roots(dynkin.cartan_matrix(f.letter, f.rank)))
        for f in g.factors)


def _reflect(g, x, word):
    """x reflected by formula along word: x[j] -= <alpha_j, x> for each j."""
    x = list(x)
    for j in word:
        x[j] -= g.root_pairing(j, x)
    return tuple(x)


def _point(g):
    return st.tuples(st.just(g), st.lists(
        st.fractions(-6, 6, max_denominator=3), min_size=g.n, max_size=g.n)
        .map(tuple))


_CASES = st.sampled_from(sorted(DOMINANT_GROUPS)).map(DOMINANT_GROUPS.get)


@given(_CASES.flatmap(_point))
def test_dominant_rep(case):
    g, x = case
    y, word = g.dominant_rep(x)
    assert g.is_dominant(y)
    assert _reflect(g, x, word) == y
    # the word is reduced: no longer than the number of positive roots
    assert len(word) <= _positive_root_count(g)
    # y = s_{word[-1]} ... s_{word[0]} x as full matrices
    assert weyl_product(g, word[::-1]).act(x) == y


@given(_CASES.flatmap(_point), st.lists(st.integers(0, 7), max_size=12))
def test_dominant_rep_orbit_constant(case, word):
    g, x = case
    word = [j % g.l for j in word]
    assert g.dominant_rep(_reflect(g, x, word))[0] == g.dominant_rep(x)[0]


# every simple type, extended semisimple groups and GL_n
WEYL_GROUPS = {s: build_group(s) for s in [
    f"{letter}{rank}" for letter, (lo, hi) in dynkin.RANK_BOUNDS.items()
    for rank in range(lo, hi + 1)] + [
    "Gext(A3)", "Gext(B4)", "Gext(C3)", "Gext(D5)", "Gext(E6)", "Gext(E7)",
    "GL1", "GL2", "GL5", "GL8"]}


@pytest.mark.parametrize("spec", sorted(WEYL_GROUPS))
@settings(max_examples=8)
@given(st.data())
def test_dominant_rep_matches_the_restart_scan(spec, data):
    # the updated pairings give the restart scan's point and word, types
    # included, on int and on `Fraction` points
    g = WEYL_GROUPS[spec]
    ints = data.draw(st.lists(st.integers(-9, 9), min_size=g.n,
                              max_size=g.n))
    fracs = data.draw(st.lists(st.fractions(-9, 9, max_denominator=4),
                               min_size=g.n, max_size=g.n))
    for x in (ints, fracs):
        assert repr(g.dominant_rep(x)) == repr(dominant_rep(g, x))


def test_weyl_orbit_sizes():
    g = build_group("GL3")
    omega1 = (1, 0, 0)
    assert len(g.weyl_orbit(omega1)) == 3
    b2 = build_group("B2")
    assert len(b2.weyl_orbit((1, 0))) == 4
    assert g.weyl_orbit((0, 0, 0)) == {(0, 0, 0)}


def test_cartan_matrix_non_integral_raises(monkeypatch):
    # norms 2 and 3 on the G2 edge give C[0][1] = -3/2: a real raise, not
    # an assert that python -O would strip
    monkeypatch.setattr(dynkin, "root_norms", lambda letter, l: [2, 3])
    with pytest.raises(RuntimeError):
        dynkin.cartan_matrix("G", 2)


def test_dynkin_tables_refuse_an_unknown_type():
    with pytest.raises(ValueError, match="^H$"):
        dynkin._edges("H", 3)
    with pytest.raises(ValueError, match="^H$"):
        dynkin.root_norms("H", 3)
    # the letter is tested exactly, not as a substring of "ABC" or "ADE"
    with pytest.raises(ValueError, match="^$"):
        dynkin._edges("", 3)
    with pytest.raises(ValueError, match="^BC$"):
        dynkin._edges("BC", 3)
    with pytest.raises(ValueError, match="^AD$"):
        dynkin.root_norms("AD", 2)
    with pytest.raises(ValueError, match="^H$"):
        dynkin.cartan_matrix("H", 3)
    with pytest.raises(ValueError, match="^$"):
        dynkin.cartan_matrix("", 3)
    with pytest.raises(ValueError, match="^rank 9 out of range for type A$"):
        dynkin.cartan_matrix("A", 9)


def test_root_datum_repr():
    assert repr(build_group(" B2 * T1 ")) == "RootDatum(B2 * T1, n=3, l=2)"
    # an unlabeled datum shows its factors
    assert repr(rootdata.RootDatum(2, 1, [[2], [-1]], [A1])) == (
        "RootDatum((Factor(letter='A', rank=1, indices=(0,)),), n=2, l=1)")


def test_weyl_orbit_unique_dominant():
    # a weight is dominant iff its first l omega-coordinates are >= 0
    g = build_group("C3")
    lam = (1, 1, 0)
    orbit = g.weyl_orbit(lam)
    doms = [mu for mu in orbit if all(c >= 0 for c in mu[:g.l])]
    assert doms == [lam]


WALK_GROUPS = {s: build_group(s)
               for s in ("GL5", "G2", "B4*A2", "F4", "Gext(E6)")}


def _check_orbit_tree(g, lam, guards):
    orbit = weyl_orbit(g, lam)
    walk = list(g.orbit_tree(lam))
    mus = [mu for mu, _j, _depth in walk]
    assert len(mus) == len(orbit) and set(mus) == orbit
    # preorder: a child of depth d is s_j of the last element of depth
    # d - 1, and j is its first negative coordinate
    last = {}
    for mu, j, depth in walk:
        if depth:
            parent = last[depth - 1]
            assert mu[j] < 0 and min(mu[:j], default=0) >= 0
            assert mu == tuple(p - parent[j] * c
                               for p, c in zip(parent, g.root_coords(j)))
        else:
            assert (j, mu) == (-1, mus[0]) and min(mu[:g.l]) >= 0
        last[depth] = mu
    for k in (*guards, len(orbit) - 1, len(orbit)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootdata, "GUARD", k)
            if len(orbit) > k:
                with pytest.raises(OrbitGuardError):
                    list(g.orbit_tree(lam))
            else:
                assert len(list(g.orbit_tree(lam))) == len(orbit)


def test_orbit_tree_fundamental_weights():
    for g in WALK_GROUPS.values():
        for k in range(g.l):
            _check_orbit_tree(g, tuple(int(i == k) for i in range(g.n)),
                              (0, 50))


@given(st.sampled_from(sorted(WALK_GROUPS)).map(WALK_GROUPS.get).flatmap(
    lambda g: st.tuples(st.just(g), st.tuples(*[st.integers(0, 2)] * g.n),
                        st.integers(0, 60000))))
def test_orbit_tree_matches_bfs(case):
    g, lam, guard = case
    _check_orbit_tree(g, lam, (guard,))


@given(st.sampled_from(sorted(WALK_GROUPS)).map(WALK_GROUPS.get).flatmap(
    lambda g: st.tuples(st.just(g), st.tuples(*[st.integers(-2, 2)] * g.n))))
def test_orbit_tree_climbs_from_any_weight(case):
    # from a weight off the chamber the walk first climbs to the dominant
    # element, then lists the orbit the BFS oracle finds from lam itself
    g, lam = case
    assume(min(lam[:g.l]) < 0)
    _check_orbit_tree(g, lam, ())


def test_p_m_gl2():
    g = build_group("GL2")
    assert g.p_M((Q(0), Q(2)), frozenset({0})) == (1, 2)
    x = (Q(5), Q(-1))
    assert g.p_M(x, frozenset()) == x


def test_p_m_idempotent_and_monotone():
    g = build_group("GL3")
    rng = random.Random(5)
    s = frozenset({0, 1})
    for _ in range(30):
        x = tuple(Q(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(3))
        y = tuple(xi + Q(rng.randint(0, 4)) * (i < g.l)
                  for i, xi in enumerate(x))
        px, py = g.p_M(x, s), g.p_M(y, s)
        assert g.p_M(px, s) == px
        assert g.leq(px, py)


def _orbit_average(g, subset, x):
    """The average of the W_M-orbit of the point x, M the Levi of subset."""
    gens = [simple_reflection(g, j) for j in subset]
    orbit, frontier = {x}, [x]
    while frontier:
        frontier = [y for v in frontier for w in gens
                    for y in [w.act(v)] if y not in orbit]
        orbit.update(frontier)
    return tuple(Q(sum(c), len(orbit)) for c in zip(*orbit))


def test_p_m_orbit_average():
    g = build_group("GL2")
    x = (Q(0), Q(2))
    s1 = simple_reflection(g, 0)
    avg = tuple((a + b) / 2 for a, b in zip(x, s1.act(x)))
    assert g.p_M(x, frozenset({0})) == avg
    # p_M and the int kernel `solve` against the W_M-orbit average
    rng = random.Random(11)
    for spec, subset in (("GL2", {0}), ("GL3", {0, 1}), ("B2*T1", {0, 1}),
                         ("G2", {1}), ("Gext(D4)", {0, 1, 3}), ("F4", {1, 2}),
                         ("E7*T1", {0, 2, 5})):
        g, s = build_group(spec), frozenset(subset)
        for _ in range(4):
            x = tuple(rng.randint(-6, 6) for _ in range(g.n))
            avg = _orbit_average(g, s, x)
            assert g.p_M(x, s) == avg
            assert g.pairings(x) == [g.root_pairing(j, x)
                                     for j in range(g.l)]
            idx, den, c, y = g.solve(s, x, g.pairings(x))
            assert tuple(Q(v, den) for v in y) == avg
            assert idx == sorted(s) and den > 0
            assert all(den * x[j] - cj == y[j] for j, cj in zip(idx, c))


def test_levi_gl3():
    g = build_group("GL3")
    levi, _to_levi = g.levi(frozenset({0}))
    assert levi.l == 1 and levi.n == 3
    assert levi.root_coords(0) == g.root_coords(0)


def test_levi_of_gext_e6():
    g = build_group("Gext(E6)")
    levi, _to_levi = g.levi(frozenset({1, 2, 3, 4}))
    assert levi.n == 7 and levi.l == 4
    assert sorted(f.letter for f in levi.factors) == ["D"]
    assert levi.factors[0].rank == 4


def test_levi_is_cached():
    g = build_group("GL4")
    first = g.levi(frozenset({0, 2}))
    assert g.levi([2, 0, 2]) is first
    assert first[1]((1, 2, 3, 4)) == (1, 3, 2, 4)


def test_levi_full_is_same_group():
    g = build_group("B2")
    levi, _to_levi = g.levi(frozenset(range(g.l)))
    assert levi.alpha == g.alpha


def test_component_group_gln():
    for n in range(2, 7):
        assert build_group(f"GL{n}").component_group() == (n,)


def test_component_group_simply_connected():
    for spec in ("A2", "B2", "C3", "G2", "F4"):
        assert build_group(spec).component_group() == ()


def test_component_classes_count():
    g = build_group("GL3")
    classes = g.component_classes()
    assert len(classes) == 3
    # classes are distinguished by the torus coordinates mod the quotient
    assert len({tuple(c[g.l:]) for c in classes}) >= 1


@pytest.mark.parametrize("kernel", [
    lambda basis: basis[:1],  # too few generators: a free quotient
    lambda basis: [basis[0], basis[0]],  # dependent: a zero factor
], ids=["short", "dependent"])
def test_component_group_not_finite_raises(monkeypatch, kernel):
    # both readers of the Smith form refuse an infinite quotient, rather
    # than index past it or list no classes
    g = build_group("GL2*GL2")
    basis = g._central_kernel()
    monkeypatch.setattr(rootdata.RootDatum, "_central_kernel",
                        lambda self: kernel(basis))
    for read in (g.component_group, g.component_classes):
        with pytest.raises(RuntimeError, match="not finite"):
            read()


def test_change_extension_preserves_component_group():
    g = build_group("GL3")
    rng = random.Random(3)
    for _ in range(5):
        rows = [[rng.randint(-2, 2) for _ in range(g.n - g.l)]
                for _ in range(g.l)]
        g2, _conv = change_extension(g, rows)
        assert g2.component_group() == g.component_group()


def test_change_extension_convert_roundtrip_pairings():
    g = build_group("GL4")
    rng = random.Random(9)
    rows = [[rng.randint(-2, 2)] for _ in range(g.l)]
    g2, conv = change_extension(g, rows)
    for _ in range(10):
        x = tuple(Q(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                  for _ in range(g.n))
        x2 = conv(x)
        for j in range(g.l):
            assert g2.root_pairing(j, x2) == g.root_pairing(j, x)
