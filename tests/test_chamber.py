"""Retraction onto the dominant chamber and the Newton point poset."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonstrata import chamber, rootdata
from newtonstrata.chamber import (
    NewtonPoint,
    RetractionError,
    finite_ize,
    hasse,
    hasse_dot,
    is_newton_point,
    newton_points_below,
    retract,
    retract_exhaustive,
    stratum_of,
)
from newtonstrata.rationals import NEG_INF, Q, qfloor
from newtonstrata.rootdata import OrbitGuardError, build_group
from newtonstrata.strata import codim, codim_chai
import oracles
from oracles import retract_closest


def slopes(coords):
    out, prev = [], Q(0)
    for c in coords:
        out.append(Q(c) - prev)
        prev = Q(c)
    return tuple(out)


def test_retract_gl2():
    g = build_group("GL2")
    y, s = retract(g, (Q(0), Q(2)))
    assert y == (1, 2) and s == {0}
    assert slopes(y) == (1, 1)


def test_retract_gl3_neg_inf():
    g = build_group("GL3")
    y, s = retract(g, (NEG_INF, Q(0), Q(0)))
    assert y == (0, 0, 0) and s == {0, 1}


def test_retract_fixes_dominant():
    g = build_group("GL3")
    d = (Q(2), Q(4), Q(5))
    y, _ = retract(g, d)
    assert y == d


def test_retract_matches_exhaustive():
    rng = random.Random(17)
    for spec in ("GL3", "B2", "G2", "C3"):
        g = build_group(spec)
        for _ in range(50):
            d = tuple(Q(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                      for _ in range(g.n))
            assert retract(g, d) == retract_exhaustive(g, d)


def test_retract_rejects_torus_neg_inf():
    g = build_group("GL2")
    with pytest.raises(ValueError):
        retract(g, (Q(0), NEG_INF))


def test_retract_closest_gl2():
    g = build_group("GL2")
    assert retract_closest(g, (Q(0), Q(2))) == (1, 2)


def test_retract_closest_gl3():
    g = build_group("GL3")
    y = retract_closest(g, (Q(1), Q(0), Q(0)))
    assert y == (1, Q(1, 2), 0)
    assert slopes(y) == (1, Q(-1, 2), Q(-1, 2))


def test_retract_closest_fixes_dominant():
    g = build_group("B2")
    x = (Q(5), Q(5))
    assert retract_closest(g, x) == x


def neg_inf_bound(datum, d):
    """An integer B such that replacing each -inf in d by any integer <= B
    leaves retract(d) unchanged.  Implementation-derived, not canonical."""
    g = datum.central_part(tuple(Q(c) for c in d[datum.l:]))
    lo = min((g[i] for i in range(datum.l)), default=Q(0))
    return qfloor(lo) - 1


def test_neg_inf_stability():
    g = build_group("GL3")
    d = (NEG_INF, Q(1), Q(2))
    y, s = retract(g, d)
    bound = neg_inf_bound(g, d)
    for k in (0, 1, 5):
        filled = (Q(bound - k), Q(1), Q(2))
        assert retract(g, filled) == (y, s)


def test_finite_ize_stability():
    g = build_group("GL2")
    d = (Q(-3), Q(2))
    assert retract(g, d) == retract(g, finite_ize(g, d))


def test_is_newton_point_gl2():
    g = build_group("GL2")
    np = is_newton_point(g, (Q(1, 2), Q(1)))
    assert np is not None
    assert g.p_M(np.lift, np.levi) == np.point
    assert is_newton_point(g, (Q(1, 3), Q(2, 3))) is None
    # the wrong length, or -inf: not a Newton point, and no exception
    for y in ((Q(1), Q(1), Q(1)), (Q(1),), (NEG_INF, Q(1))):
        assert is_newton_point(g, y) is None


def test_is_newton_point_regular_integral():
    g = build_group("GL3")
    y = (Q(3), Q(4), Q(4))  # slopes (3,1,0): dominant regular
    np = is_newton_point(g, y)
    assert np is not None and np.levi == frozenset() and np.lift == (3, 4, 4)


def test_stratum_of_gl2():
    g = build_group("GL2")
    assert stratum_of(g, (0, 1)).point == (Q(1, 2), 1)
    assert stratum_of(g, (1, 1)).point == (1, 1)
    with pytest.raises(ValueError):
        stratum_of(g, (Q(1, 2), Q(1)))


def test_newton_points_below_gl2():
    g = build_group("GL2")
    pts = newton_points_below(g, (Q(1), Q(1)))
    assert sorted(p.point for p in pts) == [(Q(1, 2), 1), (1, 1)]


def test_newton_points_below_gl4():
    g = build_group("GL4")
    mu = (Q(1), Q(1), Q(1), Q(1))  # slopes (1,0,0,0)
    pts = newton_points_below(g, mu)
    expect = {
        (1, 1, 1, 1),
        (Q(1, 2), 1, 1, 1),
        (Q(1, 3), Q(2, 3), 1, 1),
        (Q(1, 4), Q(1, 2), Q(3, 4), 1),
    }
    assert {p.point for p in pts} == expect


def test_newton_points_below_rejects_non_newton_mu():
    g = build_group("GL3")
    # not dominant; dominant but off the lattice away from its face; the
    # wrong length; -inf
    for mu in ((Q(0), Q(5), Q(1)), (Q(2, 3), Q(1), Q(1)),
               (1, 2, 3, 4), (1, 2), (NEG_INF, 1, 1)):
        with pytest.raises(ValueError):
            newton_points_below(g, mu)


def test_newton_points_below_central():
    g = build_group("GL2")
    mu = (Q(1), Q(2))  # slopes (1,1): central
    pts = newton_points_below(g, mu)
    assert [p.point for p in pts] == [mu]


@given(st.data())
def test_newton_points_below_matches_oracle(data):
    g = build_group(data.draw(st.sampled_from(
        ("GL3", "GL4", "B2", "G2", "B2*T1"))))
    mus = []
    for _ in range(2):
        raw = data.draw(st.tuples(*[st.integers(-3, 3)] * g.n))
        mus.append(g.dominant_rep(tuple(Q(c) for c in raw))[0])
    pts = newton_points_below(g, mus[0])
    expect = oracles.newton_points_below(g, mus[0])
    assert pts == expect  # points, levi and lift, in the same order
    assert [p.to_json() for p in pts] == [p.to_json() for p in expect]
    assert hasse(g, pts) == oracles.hasse(g, expect)
    # any order, repeated points, and points with other torus coordinates
    mixed = data.draw(st.permutations(
        pts + pts[:2] + newton_points_below(g, mus[1])[:3]))
    assert hasse(g, mixed) == oracles.hasse(g, mixed)


def _plant(g, subset, solver):
    """Make `solver` the pm_solver of `subset` on a datum that has not
    built that solver yet."""
    assert g.memo("pm", frozenset(subset), lambda _d: solver) is solver
    assert g.pm_solver(frozenset(subset)) is solver


def test_newton_points_below_face_check():
    g = build_group("GL2")
    # a wrong solver for the face {0} that passes the cap test
    _plant(g, {0}, ([0], [[0]], 1))
    with pytest.raises(RuntimeError, match="leaves the face"):
        newton_points_below(g, (Q(1), Q(1)))


@pytest.mark.parametrize("walk, match", [
    # a leaf found twice: the int-form key sees the repeat
    (lambda leaves: leaves + leaves, "found under two faces"),
    # (0, 1) pairs negatively with alpha_1 off the face
    (lambda leaves: leaves + [(0, 1)], "but not its checks"),
], ids=["twice", "checks"])
def test_newton_points_below_self_checks_raise(monkeypatch, walk, match):
    g = build_group("GL2")
    face_walk = chamber._face_walk
    monkeypatch.setattr(chamber, "_face_walk",
                        lambda *args: walk(list(face_walk(*args))))
    with pytest.raises(RuntimeError, match=match):
        newton_points_below(g, (Q(1), Q(1)))


def test_newton_points_below_certifies_a_newton_point_mu():
    g = build_group("GL2")
    # (0, 5) is not dominant: a NewtonPoint carrying it once gave []
    forged = NewtonPoint((Q(0), Q(5)), frozenset(), (0, 5))
    with pytest.raises(ValueError):
        newton_points_below(g, forged)
    mu = is_newton_point(g, (Q(1), Q(1)))
    assert newton_points_below(g, mu) == newton_points_below(g, mu.point)


# fixed cases beyond box enumeration: its boxes held 16,777,216 and
# 5,702,400 candidates, over its guard of 10**6 on one face
BEYOND_BOX = {
    "A8": (lambda g: (Q(6),) * 8, 4314, (-2, 8)),
    "E8": (lambda g: retract(g, (3,) * 8)[0], 76, (-1, 8)),
}


@pytest.mark.parametrize("spec", sorted(BEYOND_BOX))
def test_newton_points_below_beyond_the_box(spec):
    g = build_group(spec)
    make_mu, count, (lo, hi) = BEYOND_BOX[spec]
    mu = make_mu(g)
    pts = newton_points_below(g, mu)
    assert len(pts) == count and pts[-1].point == mu
    for p in pts:
        np = is_newton_point(g, p.point)
        assert np is not None and np.levi == p.levi and g.leq(p.point, mu)
        assert g.p_M(p.lift, p.levi) == p.point
    # independent: the stratum of any integral d whose retraction lies
    # below mu is one of the points
    points = {p.point for p in pts}
    rng = random.Random(12)
    hits = 0
    for _ in range(600):
        d = tuple(NEG_INF if rng.random() < 0.1 else rng.randint(lo, hi)
                  for _ in range(g.n))
        if g.leq(retract(g, d)[0], mu):
            hits += 1
            assert stratum_of(g, d).point in points
    assert hits >= 20



# the full down-sets below (4,...,4) and (6,...,6) on A8: the rank-level
# oracle is `hasse` there, and the transitive reduction is out of reach
@pytest.mark.parametrize("top, count, edges", [(4, 1066, 3190),
                                               (6, 4314, 14894)])
def test_hasse_beyond_the_box(top, count, edges):
    g = build_group("A8")
    pts = newton_points_below(g, (Q(top),) * 8)
    assert len(pts) == count
    got = hasse(g, pts)
    assert len(got) == edges
    assert got == oracles.hasse_by_rank(g, pts)

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hasse_edges_have_codim_one(data):
    # Chai: the points below mu are ranked by dim_leq, so every covering
    # relation drops the dimension by one, in both forms of the codimension
    g = build_group(data.draw(st.sampled_from(
        ("GL3", "GL4", "GL5", "B2", "C3", "G2", "B2*T1", "A2*A2"))))
    raw = data.draw(st.tuples(*[st.integers(-3, 3)] * g.n))
    mu = g.dominant_rep(tuple(Q(c) for c in raw))[0]
    pts = newton_points_below(g, mu)
    edges = hasse(g, pts)
    for a, b in edges:
        assert codim(g, pts[a], pts[b]) == 1
        assert codim_chai(g, pts[a], mu) - codim_chai(g, pts[b], mu) == 1
    assert edges == oracles.hasse_by_rank(g, pts)


def test_newton_points_below_guard(monkeypatch):
    # the walk tries at most 442 box values on one face here, against a
    # largest face box of 12,960
    g = build_group("GL7")
    mu = (Q(10),) * 7
    monkeypatch.setattr(rootdata, "GUARD", 442)
    assert len(newton_points_below(g, mu)) == 319
    for guard in (0, 10, 441):
        monkeypatch.setattr(rootdata, "GUARD", guard)
        with pytest.raises(OrbitGuardError):
            newton_points_below(g, mu)


def test_retract_certificate_face():
    g = build_group("GL3")
    # a solver for {0} with adj doubled: the projection overshoots, root 0
    # pairs positively with the point, and only `active <= face` fails
    idx, adj, den = build_group("GL3").pm_solver(frozenset({0}))
    _plant(g, {0}, (idx, [[2 * a for a in adj[0]]], den))
    with pytest.raises(RetractionError):
        retract(g, (-2, -1, -2))


def test_retract_certificate_coeffs():
    g = build_group("GL3")
    # the solver of {0, 1} answering for {0}: the point is central, so it
    # is dominant with both roots in its face, and only c_j <= 0 fails
    _plant(g, {0}, g.pm_solver(frozenset({0, 1})))
    with pytest.raises(RetractionError):
        retract(g, (-2, -1, -2))


def test_retract_certificate_den():
    g, ref = build_group("GL3"), build_group("GL3")
    # solvers with adj and den both negated: each p_M is unchanged, but
    # the int point is -den L y, every sign test reads backwards, and
    # only den > 0 fails
    for subset in ({0}, {1}, {0, 1}):
        idx, adj, den = ref.pm_solver(frozenset(subset))
        _plant(g, subset, (idx, [[-a for a in row] for row in adj], -den))
    with pytest.raises(RetractionError):
        retract(g, (-3, -1, -3))


def test_hasse_gl4_chain():
    g = build_group("GL4")
    pts = newton_points_below(g, (Q(1), Q(1), Q(1), Q(1)))
    edges = hasse(g, pts)
    assert len(edges) == 3
    indeg = {b for _a, b in edges}
    assert len(indeg) == 3  # a chain: every non-minimal node covered once


def test_hasse_repeated_points():
    # b covers a when no third index lies between them: two copies of a
    # point cover each other and block every other edge through them,
    # and three copies cover nothing
    g = build_group("GL4")
    lo, mid, hi, top = newton_points_below(g, (Q(1), Q(1), Q(1), Q(1)))
    for pts, expect in [
        ([lo, mid, hi, top], [(0, 1), (1, 2), (2, 3)]),
        ([top, mid, lo, mid, hi], [(1, 3), (3, 1), (4, 0)]),
        ([mid, lo, mid, hi, mid, top], [(3, 5)]),
    ]:
        assert hasse(g, pts) == expect == oracles.hasse(g, pts)


def test_hasse_antichain():
    g = build_group("GL4")
    a = (Q(1), Q(2), Q(2), Q(2))  # slopes (1,1,0,0)
    b = (Q(4, 3), Q(5, 3), Q(2), Q(2))  # slopes (4/3,1/3,1/3,0)
    assert not g.leq(a, b) and not g.leq(b, a)
    assert hasse(g, [a, b]) == []


def test_hasse_dot_output():
    g = build_group("GL2")
    pts = newton_points_below(g, (Q(1), Q(1)))
    dot = hasse_dot(g, pts)
    assert dot.startswith("digraph") and "->" in dot


def test_retract_properties_random():
    rng = random.Random(23)
    for spec in ("GL3", "B2", "C3"):
        g = build_group(spec)
        for _ in range(60):
            d = tuple(Q(rng.randint(-6, 6), rng.choice((1, 2)))
                      for _ in range(g.n))
            y, s = retract(g, d)
            assert g.is_dominant(y)
            assert g.leq(d, y)
            assert retract(g, y) == (y, s)
            assert g.p_M(d, s) == y
            assert retract_closest(g, d) == y
            # minimality against sampled dominant majorants
            for _ in range(10):
                mu = tuple(
                    c + Q(rng.randint(0, 3)) if i < g.l else c
                    for i, c in enumerate(d)
                )
                if g.is_dominant(mu) and g.leq(d, mu):
                    assert g.leq(y, mu)


def test_integral_retract_is_newton():
    rng = random.Random(31)
    g = build_group("GL4")
    for _ in range(80):
        d = tuple(rng.randint(-4, 4) for _ in range(4))
        np = stratum_of(g, d)
        assert g.p_M(np.lift, np.levi) == np.point
        for j in np.levi:
            assert g.root_pairing(j, np.point) == 0


# every Dynkin type (A-E at rank 8), a torus factor and an extended group
ORACLE_GROUPS = {spec: build_group(spec) for spec in (
    "GL3", "B2*T1", "G2", "A8", "B8", "C8", "D8", "E8", "F4", "E7*T1",
    "Gext(E6)")}
_SCALARS = st.builds(Q, st.integers(-12, 12), st.integers(1, 4))


def _valuation_vector(g):
    head = st.one_of(_SCALARS, st.just(NEG_INF))
    return st.tuples(*[head] * g.l, *[_SCALARS] * (g.n - g.l))


# each example draws one point per group: 20 points in every group
@settings(max_examples=20)
@given(st.data())
def test_retract_agrees_with_oracles(data):
    for g in ORACLE_GROUPS.values():
        d = data.draw(_valuation_vector(g))
        y, s = retract(g, d)
        assert retract_exhaustive(g, d) == (y, s)
        assert retract_closest(g, finite_ize(g, d)) == y


# wide scales: pairwise coprime denominators up to 97 make the common
# denominator L of a point large, numerators reach 10^6, and plain ints
# and -inf slots mix with them
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97)
_WIDE = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Q, st.integers(-10**6, 10**6), st.sampled_from(_PRIMES)),
    st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 97)))
WIDE_GROUPS = [ORACLE_GROUPS[spec] for spec in (
    "GL3", "B2*T1", "G2", "F4", "E8", "Gext(E6)")]


@settings(max_examples=20)
@given(st.data())
def test_retract_wide_scales(data):
    for g in WIDE_GROUPS:
        head = st.one_of(_WIDE, st.just(NEG_INF))
        d = data.draw(st.tuples(*[head] * g.l, *[_WIDE] * (g.n - g.l)))
        y, s = retract(g, d)
        assert all(type(c) is Q for c in y)
        assert retract(g, y) == (y, s)
        assert retract_exhaustive(g, d) == (y, s)
        assert retract_closest(g, finite_ize(g, d)) == y
