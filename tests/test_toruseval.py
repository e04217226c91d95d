"""Laurent values, torus evaluation, and the classical Newton polygon
oracle against `retract`."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonstrata.chamber import face_of, retract
from newtonstrata.cli import coords_to_slopes
from newtonstrata.rationals import NEG_INF, Q
from newtonstrata import rootdata
from newtonstrata.dynkin import RANK_BOUNDS
from newtonstrata.rootdata import OrbitGuardError, RootDatum, build_group
from newtonstrata.toruseval import (
    LaurentPoly,
    TorusPoint,
    _orbit_skeleton,
    _orbit_sums,
    check_thm_rnu,
    eval_c,
    nu_a,
    parse_torus_point,
    random_torus_point,
)
from oracles import eval_char, newton_slopes, slopes_to_coords, weyl_orbit


def mono(c, v):
    return LaurentPoly.monomial(Q(c), Q(v))


def test_val_leading_term():
    p = mono(1, -1) + mono(1, 0)
    assert p.val() == 1


def test_val_cancellation():
    p = mono(2, -3) + mono(1, 5)
    assert (p + mono(-2, -3) + mono(-1, 5)).val() is NEG_INF


@pytest.mark.parametrize("terms", [
    {0: 0.1}, {0.5: 1}, {0.5: 0}, {"1/2": "3"}, {1: "3"}, {"1": 3}])
def test_laurent_poly_refuses_floats_and_strings(terms):
    # the rule of `RootDatum.point`: an int or a Fraction, since
    # Q(0.1) is 3602879701896397/36028797018963968 and Q("1/2") parses
    with pytest.raises(ValueError, match="not over ints or Fractions"):
        LaurentPoly(terms)
    (v, c), = terms.items()
    with pytest.raises(ValueError, match="not over ints or Fractions"):
        LaurentPoly.monomial(c, v)


def test_neg_inf_only_compares():
    # val(0) orders below every value, but is no number
    with pytest.raises(TypeError):
        NEG_INF + 1


@given(st.lists(st.one_of(st.just(NEG_INF), st.fractions(max_denominator=9)),
                max_size=12))
def test_neg_inf_orders_below_every_fraction(values):
    # the library compares NEG_INF only by identity; its operators must
    # still order it below every Fraction, from either side, and sort
    for q in values:
        if q is NEG_INF:
            assert q == NEG_INF and q <= NEG_INF and q >= NEG_INF
            assert not q < NEG_INF and not q > NEG_INF
        else:
            assert NEG_INF < q and q > NEG_INF and NEG_INF <= q
            assert not NEG_INF > q and not NEG_INF >= q and not q < NEG_INF
            assert NEG_INF != q and q != NEG_INF
    finite = sorted(q for q in values if q is not NEG_INF)
    assert sorted(values) == [NEG_INF] * (len(values) - len(finite)) + finite


def test_val_convention():
    assert mono(2, Q(1, 2)).val() == Q(-1, 2)


def test_ultrametric():
    rng = random.Random(19)
    for _ in range(100):
        a = mono(rng.choice((1, -1, 2)), Q(rng.randint(-4, 4), 2))
        b = mono(rng.choice((1, -1, -2)), Q(rng.randint(-4, 4), 2))
        va, vb, vs = a.val(), b.val(), (a + b).val()
        assert vs <= max(va, vb)
        if va != vb:
            assert vs == max(va, vb)


def test_laurent_zero():
    assert repr(mono(3, 1) + mono(-3, 1)) == "0"


def test_torus_points_hash_by_value():
    a = parse_torus_point("1*pi^(0),-1*pi^(1/2)")
    b = parse_torus_point("1*pi^(0), -1*pi^(2/4)")
    assert a == b and hash(a) == hash(b)
    assert {a, b, parse_torus_point("1*pi^(0),1*pi^(1/2)")} == {
        a, TorusPoint((mono(1, 0), mono(1, Q(1, 2))))}
    # the order a sum was built in is not part of the value
    p, q = mono(1, 0) + mono(2, 1), mono(2, 1) + mono(1, 0)
    assert p == q and hash(p) == hash(q)


def test_parse_torus_point():
    a = parse_torus_point("1*pi^(-1),-1*pi^(-2)")
    assert len(a.values) == 2
    assert a.values[1].val() == 2
    with pytest.raises(ValueError):
        parse_torus_point("pi^2")
    # the bare exponent and the parenthesised one both parse
    assert parse_torus_point("1*pi^2") == parse_torus_point("1*pi^(2)")
    # an unbalanced parenthesis or a non-ASCII digit is refused
    for tok in ("1*pi^(2", "1*pi^2)", "\u0661*pi^(\u0662)"):
        with pytest.raises(ValueError, match="^bad torus coordinate"):
            parse_torus_point(tok)


def test_eval_char_basis():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(-1),3*pi^(0)")
    assert eval_char(g, (1, 0), a).terms == a.values[0].terms
    assert eval_char(g, (0, 0), a).terms == LaurentPoly.monomial(1, 0).terms


def test_eval_char_gl2_root():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(-1),1*pi^(-1)")
    out = eval_char(g, g.root_coords(0), a)
    assert out.terms == mono(1, -1).terms


def test_nu_a():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(0),1*pi^(0)")
    assert nu_a(g, a) == (0, 0)
    a = parse_torus_point("1*pi^(-1),1*pi^(-1)")
    assert nu_a(g, a) == (1, 1)
    # unit coefficients never matter
    b = parse_torus_point("-2*pi^(-1),7*pi^(-1)")
    assert nu_a(g, b) == nu_a(g, a)


def test_nu_a_refuses_a_point_of_the_wrong_length():
    # as `_orbit_sums` does, rather than read as many coordinates as given
    g = build_group("GL3")
    for text in ("1*pi^(1),1*pi^(2)", "1*pi^(1),1*pi^(2),1*pi^(0),1*pi^(0)"):
        with pytest.raises(ValueError, match="torus point has wrong length"):
            nu_a(g, parse_torus_point(text))
    assert nu_a(g, parse_torus_point("1*pi^(1),1*pi^(2),1*pi^(0)")) == (
        -1, -2, 0)


def test_nu_a_defining_identity():
    g = build_group("B2")
    rng = random.Random(6)
    for _ in range(20):
        a = random_torus_point(g, rng, denominator=2)
        nu = nu_a(g, a)
        for lam in [(1, 0), (0, 1), (2, -1), (-1, 3)]:
            assert eval_char(g, lam, a).val() == sum(
                k * v for k, v in zip(lam, nu))


def test_eval_c_gl2():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(-1),1*pi^(-1)")
    values, d_c = eval_c(g, a)
    assert values[0].terms == (mono(1, -1) + mono(1, 0)).terms
    assert d_c == (1, 1)
    # a torus point of the wrong length is refused, not truncated
    for s in ("1*pi^(0)", "1*pi^(0),1*pi^(1),1*pi^(2)"):
        with pytest.raises(ValueError):
            eval_c(g, parse_torus_point(s))


def test_eval_c_cancellation():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(-1),-1*pi^(-2)")
    values, d_c = eval_c(g, a)
    assert not values[0].terms
    assert d_c == (NEG_INF, 2)


def test_eval_c_a1():
    g = build_group("A1")
    a = parse_torus_point("1*pi^(-1)")
    values, d_c = eval_c(g, a)
    assert values[0].terms == (mono(1, -1) + mono(1, 1)).terms
    assert d_c == (1,)


def test_check_thm_rnu_trivial():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(0),1*pi^(0)")
    assert check_thm_rnu(g, a)["pass"]
    with pytest.raises(ValueError):  # the wrong length
        check_thm_rnu(g, parse_torus_point("1*pi^(0),1*pi^(0),1*pi^(0)"))


def test_check_thm_rnu_cancellation():
    g = build_group("GL2")
    a = parse_torus_point("1*pi^(-1),-1*pi^(-2)")
    rep = check_thm_rnu(g, a)
    assert rep["pass"]
    assert rep["retract"] == (1, 2)


def test_classical_slopes():
    assert newton_slopes((Q(0), Q(1))) == (Q(1, 2), Q(1, 2))
    assert newton_slopes((Q(1), Q(0), Q(0))) == (1, Q(-1, 2), Q(-1, 2))
    assert newton_slopes((NEG_INF, Q(2))) == (1, 1)
    with pytest.raises(ValueError):
        newton_slopes((Q(0), NEG_INF))
    with pytest.raises(ValueError):
        newton_slopes(())


def test_slopes_coords_roundtrip():
    s = (Q(3, 2), Q(1, 2), Q(0))
    assert coords_to_slopes(slopes_to_coords(s)) == s


GLN = {n: build_group(f"GL{n}") for n in range(1, 10)}
VALUATION = st.fractions(-20, 20, max_denominator=12)


def _valuations(n):
    """n coefficient valuations, -inf allowed in every slot but the last."""
    head = st.lists(st.one_of(st.just(NEG_INF), VALUATION),
                    min_size=n - 1, max_size=n - 1)
    return st.tuples(head, VALUATION).map(lambda t: (*t[0], t[1]))


@settings(max_examples=300)
@given(st.sampled_from(sorted(GLN)).flatmap(_valuations))
def test_newton_polygon_oracle_matches_retract(d):
    # acceptance criterion 1 on drawn rational vectors, GL1 to GL9
    y, _face = retract(GLN[len(d)], d)
    assert slopes_to_coords(newton_slopes(d)) == y


def test_classical_inequalities():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(2, 5)
        d = [Q(rng.randint(-3, 3)) for _ in range(n)]
        nu = newton_slopes(tuple(d))
        partial = Q(0)
        for i in range(n):
            partial += nu[i]
            assert d[i] <= partial
            if i == n - 1 or nu[i] > nu[i + 1]:
                assert d[i] == partial


def test_nu_a_homomorphism():
    g = build_group("GL3")
    rng = random.Random(27)
    for _ in range(20):
        a = random_torus_point(g, rng, denominator=2)
        b = random_torus_point(g, rng, denominator=2)
        # the product point: coefficients multiply, exponents add
        ab_vals = []
        for x, y in zip(a.values, b.values):
            ((vx, cx),), ((vy, cy),) = x.terms.items(), y.terms.items()
            ab_vals.append(mono(cx * cy, vx + vy))
        ab = TorusPoint(tuple(ab_vals))
        assert nu_a(g, ab) == tuple(
            x + y for x, y in zip(nu_a(g, a), nu_a(g, b))
        )


def test_random_suites_small():
    from newtonstrata.verify import suite_rnu

    for spec in ("GL2", "A2", "G2"):
        g = build_group(spec)
        rep = suite_rnu(g, seed=42, count=50)
        assert rep["pass"], rep["failures"][:1]


ORBIT_GROUPS = {s: build_group(s) for s in ("GL3", "B2", "G2", "B2*T1")}


def _torus_point(g):
    # coefficients +-1, +-2 make orbit terms cancel; denominators 1 to 3
    def build(den):
        coord = st.builds(lambda c, p: mono(c, Q(p, den)),
                          st.sampled_from((1, -1, 2, -2)),
                          st.integers(-3 * den, 3 * den))
        return st.tuples(*[coord] * g.n).map(TorusPoint)
    return st.tuples(st.just(g), st.integers(1, 3).flatmap(build))


@given(st.sampled_from(sorted(ORBIT_GROUPS)).map(ORBIT_GROUPS.get)
       .flatmap(_torus_point))
def test_eval_c_matches_plain_orbit_sums(case):
    g, a = case
    values, d_c = eval_c(g, a)
    nu = nu_a(g, a)
    strict = []
    for i in range(g.l):
        omega = tuple(int(i == k) for k in range(g.n))
        total = LaurentPoly()
        for lam in weyl_orbit(g, omega):
            total = total + eval_char(g, lam, a)
        assert values[i] == total
        pairings = [sum(k * v for k, v in zip(lam, nu))
                    for lam in weyl_orbit(g, omega)]
        strict.append(pairings.count(max(pairings)) == 1)
    assert values[g.l:] == list(a.values[g.l:])
    assert d_c == tuple(v.val() for v in values)
    # the least-exponent counts of every orbit, the face included
    assert [unique for _k, _sums, unique in _orbit_sums(g, a)[1]] == strict
    # check_thm_rnu reads the same d_c off the int sums
    rep = check_thm_rnu(g, a)
    assert rep["d_c"] == d_c
    # strictness: a unique orbit term maximizes <lam, nu_a> off the face
    face = face_of(g, g.scaled(rep["nu_dominant"])[1])[0]
    assert rep["strict_max_unique"] == all(
        strict[i] for i in range(g.l) if i not in face)


def test_check_thm_rnu_walks_each_orbit_once(monkeypatch):
    g = build_group("GL4")
    # nu_a = (3, 5, 6, 6): slopes (3, 2, 1, 0), regular, so the face is empty
    a = parse_torus_point("1*pi^(-3),-1*pi^(-5),2*pi^(-6),1*pi^(-6)")
    calls = []
    walk = RootDatum.orbit_tree

    def counted(self, lam):
        calls.append(lam)
        return walk(self, lam)

    monkeypatch.setattr(RootDatum, "orbit_tree", counted)
    rep = check_thm_rnu(g, a)
    assert rep["pass"]
    assert face_of(g, g.scaled(rep["nu_dominant"])[1])[0] == frozenset()
    assert len(calls) == g.l
    # the walks depend only on the datum: a repeat call replays the
    # skeletons, and a new datum walks its orbits again
    assert check_thm_rnu(g, a) == rep
    assert len(calls) == g.l
    assert check_thm_rnu(build_group("GL4"), a) == rep
    assert len(calls) == 2 * g.l


def _skeleton_matches_walk(g, k):
    js, ps, depths, height = _orbit_skeleton(g, k)
    omega = tuple(int(i == k) for i in range(g.n))
    walk = g.orbit_tree(omega)
    assert next(walk) == (omega, -1, 0)  # the root, left out
    nodes = 0
    for node, (mu, j, depth) in zip(zip(js, ps, depths), walk):
        assert node == (j, -mu[j], depth)
        nodes += 1
    assert nodes == len(js) == len(ps) == len(depths)
    assert next(walk, None) is None
    assert height == max(depths, default=0)
    return nodes


SKELETON_GROUPS = [f"{letter}{rank}"
                   for letter, (lo, hi) in sorted(RANK_BOUNDS.items())
                   for rank in range(lo, hi + 1)] + sorted(ORBIT_GROUPS)


@pytest.mark.parametrize("spec", SKELETON_GROUPS)
def test_orbit_skeleton_replays_the_walk(spec):
    g = build_group(spec)
    for k in range(g.l):
        _skeleton_matches_walk(g, k)
        # one entry per orbit, and a repeat hands back the same entry
        assert _orbit_skeleton(g, k) is _orbit_skeleton(g, k)
    assert sorted(g._memo["orbit_skeleton"]) == list(range(g.l))


def test_orbit_skeleton_is_compact():
    # every orbit of E8 (881,760 nodes less the 8 roots) at one byte per
    # column; the columns' own headers and spare room stay small
    g = build_group("E8")
    skeletons = [_orbit_skeleton(g, k) for k in range(g.l)]
    nodes = sum(len(js) for js, _ps, _depths, _height in skeletons)
    assert nodes == 881_760 - g.l
    columns = [c for skeleton in skeletons for c in skeleton[:3]]
    assert {type(c) for c in columns} == {bytearray}
    assert sum(sys.getsizeof(c) for c in columns) <= 4 * nodes
    assert max(height for *_columns, height in skeletons) < 256


def test_orbit_skeleton_past_a_byte():
    # over 256 simple roots: an index no longer fits a byte, and the
    # skeleton is rebuilt in lists
    g = build_group("*".join(["A1"] * 257))
    for k in (0, 255, 256):
        assert _skeleton_matches_walk(g, k) == 1
    assert type(_orbit_skeleton(g, 255)[0]) is bytearray
    assert type(_orbit_skeleton(g, 256)[0]) is list


def test_orbit_skeleton_guard(monkeypatch):
    # F4's orbits have 24 to 96 elements
    g = build_group("F4")
    a = parse_torus_point(",".join(["1*pi^(-1)"] * g.n))
    monkeypatch.setattr(rootdata, "GUARD", 23)
    for _ in range(2):  # a failed build leaves nothing to hit
        with pytest.raises(OrbitGuardError):
            check_thm_rnu(g, a)
        with pytest.raises(OrbitGuardError):
            _orbit_skeleton(g, 0)
        assert not g._memo.get("orbit_skeleton")
    monkeypatch.setattr(rootdata, "GUARD", 96)
    assert check_thm_rnu(g, a)["pass"]
    assert sorted(g._memo["orbit_skeleton"]) == list(range(g.l))


def _understated(bounds, a):
    """The locals of the frame where `_orbit_sums` raises its RuntimeError
    at the torus point `a` on a fresh GL2 (true bounds [[1, 1]]) planted
    with the coordinate bounds `bounds`: both integrality checks raise the
    same message, so the caller tells them apart by that frame."""
    g = build_group("GL2")  # fresh datum: its own memo
    g.memo("orbit_coordinate_bounds", None, lambda d: bounds)
    with pytest.raises(RuntimeError, match="not integral") as info:
        _orbit_sums(g, parse_torus_point(a))
    return info.traceback[-1].locals


def test_orbit_sums_refuse_a_fractional_root_coefficient():
    # bounds [[0, 0]] leave the scale K = 1, so the root omega_1 keeps
    # the coefficient 1/2: the check at the orbit's root fires, before
    # the walk binds a depth
    frame = _understated([[0, 0]], "1/2*pi^(-1),1*pi^(-1)")
    # K c_1 = 1 * 1/2 is read as the int pair (K n_1, d_1) = (1, 2)
    assert (frame["scale"] * frame["nums"][0], frame["dens"][0],
            frame["rem"]) == (1, 2, 1) and "depth" not in frame


def test_orbit_sums_refuse_a_fractional_walk_coefficient():
    # bounds [[0, 1]] scale the root to the int 2, and the step to
    # s_1 omega_1 multiplies it by r_1^-1 = 1/4 on GL2 with coefficients
    # (2, 1): the check inside the walk fires, at depth 1
    frame = _understated([[0, 1]], "2*pi^(-1),1*pi^(-1)")
    assert frame["depth"] == 1 and frame["rem"] != 0
    assert (frame["num"], frame["rden"]) == (1, 4)


# every simple type whose fundamental orbits total at most 1,278
# elements (E6's; all but B, C and D of rank 7 and 8, E7 and E8, which
# the `Fraction` oracle walks too slowly), extended semisimple groups and
# GL_n
ORBIT_GROUPS = {s: build_group(s) for s in [
    f"{letter}{rank}" for letter, (lo, hi) in RANK_BOUNDS.items()
    for rank in range(lo, min(hi, 6 if letter in "BCDE" else 8) + 1)] + [
    "Gext(A3)", "Gext(C3)", "Gext(D5)", "Gext(E6)", "GL2", "GL5", "GL8"]}
# coefficients off the {1, -1, 2, -2} of `random_torus_point`, and the
# units 1, -1, with which every step factor r_j^-p of the walk is an
# integer, so that the walk divides by nothing
COEFFICIENTS = st.sampled_from([Q(3, 4), Q(-5, 7), Q(9), Q(-1, 6), Q(7, 2),
                                Q(1), Q(-2)])
UNITS = st.sampled_from([Q(1), Q(-1)])


@pytest.mark.parametrize("spec", sorted(ORBIT_GROUPS))
@settings(max_examples=4)
@given(st.data())
def test_orbit_sums_match_eval_char(spec, data):
    # each orbit sum, and whether one term has the least exponent, against
    # the sum of `eval_char` over the breadth-first orbit, at a point with
    # unit coefficients and at one with any
    g = ORBIT_GROUPS[spec]
    for coefficients in (UNITS, COEFFICIENTS):
        _check_orbit_sums(g, TorusPoint(tuple(
            LaurentPoly.monomial(
                data.draw(coefficients),
                data.draw(st.fractions(-3, 3, max_denominator=3)))
            for _ in range(g.n))))


def _check_orbit_sums(g, a):
    """`_orbit_sums` at a against `eval_char` summed over each orbit."""
    den, orbits = _orbit_sums(g, a)
    for k, (scale, sums, unique) in enumerate(orbits):
        terms = [eval_char(g, mu, a)
                 for mu in weyl_orbit(g, [int(i == k) for i in range(g.n)])]
        expect = LaurentPoly()
        for term in terms:
            expect = expect + term
        assert LaurentPoly({Q(e, den): Q(c, scale)
                            for e, c in sums.items()}) == expect
        exps = [min(t.terms) for t in terms]
        assert unique == (exps.count(min(exps)) == 1)


# fixed torus points; the GL2 one cancels to 0 in its orbit sum
RNU_POINTS = (
    ("GL2", "1*pi^(-1),-1*pi^(-2)"),
    ("GL3", "2*pi^(-1/2),-1*pi^(1),1*pi^(0)"),
    ("G2", "-2*pi^(1/3),1*pi^(-2)"),
    ("B2*T1", "1*pi^(0),2*pi^(-1),-1*pi^(3/2)"),
    ("Gext(E6)", ",".join(["1*pi^(-1)", "-1*pi^(0)"] * 3 + ["2*pi^(1)"])),
)


def test_check_thm_rnu_builds_no_laurent_poly(monkeypatch):
    # the torus points are built first; their orbit sums are then read on
    # ints.  The GL2 point cancels to 0 in its orbit sum (d_c = -inf).
    points = [(build_group(spec), parse_torus_point(a))
              for spec, a in RNU_POINTS]
    expected = [check_thm_rnu(g, a) for g, a in points]
    assert expected[0]["d_c"] == (NEG_INF, 2)
    built = []
    init = LaurentPoly.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaurentPoly, "__init__", counted)
    for (g, a), rep in zip(points, expected):
        assert check_thm_rnu(g, a) == rep and rep["pass"]
        assert check_thm_rnu(build_group(g.label), a) == rep  # fresh datum
    assert built == []
    eval_c(*points[0])
    assert built  # the counter sees the values eval_c builds


def test_check_thm_rnu_descends_on_ints(monkeypatch):
    # nu_a descends to its dominant representative on its int form, on a
    # warm and on a fresh datum; the report's nu_dominant is `Fraction`s
    points = [(build_group(spec), parse_torus_point(a))
              for spec, a in RNU_POINTS]
    expected = [check_thm_rnu(g, a) for g, a in points]
    seen = []
    descend = RootDatum.dominant_rep

    def counted(self, x):
        seen.append(tuple(x))
        return descend(self, x)

    monkeypatch.setattr(RootDatum, "dominant_rep", counted)
    for (g, a), rep in zip(points, expected):
        assert check_thm_rnu(g, a) == rep and rep["pass"]
        assert check_thm_rnu(build_group(g.label), a) == rep
        assert all(type(c) is Q for c in rep["nu_dominant"])
    assert len(seen) >= 2 * len(points)
    assert all(type(c) is int for x in seen for c in x)
