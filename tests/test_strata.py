"""Stratum conditions, dimensions, codimensions, and the invariant d_G."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtonstrata import strata
from newtonstrata.chamber import (
    NewtonPoint, face_of, is_newton_point, newton_points_below, stratum_of)
from newtonstrata.rationals import NEG_INF, Q
from newtonstrata.rootdata import build_group
from newtonstrata.strata import (
    codim,
    codim_chai,
    d_G,
    d_levi_check,
    dim_leq,
    stratum_conditions,
)
import oracles
from oracles import change_extension


def test_stratum_of_gl2():
    g = build_group("GL2")
    assert stratum_of(g, (0, 1)).point == (Q(1, 2), 1)
    assert stratum_of(g, (1, 1)).point == (1, 1)


def test_conditions_gl2_half():
    g = build_group("GL2")
    mu = (Q(1, 2), Q(1))
    conds = stratum_conditions(g, mu, closed=False)
    assert face_of(g, g.scaled(mu)[1])[0] == {0}
    assert conds.to_json() == [
        {"i": 1, "rel": "<=", "bound": "1/2"},
        {"i": 2, "rel": "=", "bound": "1"},
    ]


def test_conditions_gl2_regular():
    g = build_group("GL2")
    mu = (Q(1), Q(1))  # slopes (1,0)
    conds = stratum_conditions(g, mu, closed=False)
    assert face_of(g, g.scaled(mu)[1])[0] == frozenset()
    assert [r["rel"] for r in conds.to_json()] == ["=", "="]


def test_conditions_closed_vs_open():
    g = build_group("GL3")
    mu = (Q(2), Q(3), Q(3))
    open_sys = stratum_conditions(g, mu, closed=False)
    closed_sys = stratum_conditions(g, mu, closed=True)
    assert [r[1] for r in closed_sys.relations[:g.l]] == ["<="] * g.l
    assert open_sys.accepts((Q(2), Q(3), Q(3)))
    assert not open_sys.accepts((Q(1), Q(3), Q(3)))
    assert closed_sys.accepts((Q(1), Q(3), Q(3)))


def test_conditions_reject_non_newton_mu():
    g = build_group("GL2")
    for mu in ((Q(1, 3), Q(1)), (Q(-1, 2), Q(1))):
        with pytest.raises(ValueError):
            stratum_conditions(g, mu, closed=False)


def test_accepts_neg_inf():
    g = build_group("GL2")
    half = stratum_conditions(g, (Q(1, 2), Q(1)), closed=False)
    assert half.accepts((NEG_INF, Q(1)))
    regular = stratum_conditions(g, (Q(1), Q(1)), closed=False)
    assert not regular.accepts((NEG_INF, Q(1)))


def test_dim_leq():
    g = build_group("GL2")
    assert dim_leq(g, (Q(1), Q(1))) == 1
    assert dim_leq(g, (Q(1, 2), Q(1))) == 0
    assert dim_leq(g, (Q(0), Q(0))) == 0
    # a point of the wrong length or with -inf is refused, not truncated
    g3 = build_group("GL3")
    for bad in ((1, 2, 3, 4), (1, 2), (5,), (NEG_INF, 1, 1)):
        with pytest.raises(ValueError):
            dim_leq(g3, bad)


def test_codim_gl2():
    g = build_group("GL2")
    nu, mu = (Q(1, 2), Q(1)), (Q(1), Q(1))
    assert codim(g, nu, mu) == 1
    assert codim(g, mu, mu) == 0


def test_codim_gl4():
    g = build_group("GL4")
    nu = (Q(1, 4), Q(1, 2), Q(3, 4), Q(1))
    mu = (Q(1), Q(1), Q(1), Q(1))
    assert codim(g, nu, mu) == 3
    assert codim_chai(g, nu, mu) == 3


def test_codim_requires_leq():
    g = build_group("GL2")
    with pytest.raises(ValueError):
        codim(g, (Q(1), Q(1)), (Q(1, 2), Q(1)))
    with pytest.raises(ValueError):  # points of different lengths
        codim(g, (Q(1), Q(1)), (Q(1), Q(1), Q(9)))


def test_codim_self_checks_raise(monkeypatch):
    # the non-negativity checks survive python -O
    g = build_group("GL2")
    nu, mu = (Q(1, 2), Q(1)), (Q(1), Q(1))
    # the floor sum of an int form (den, ints), patched to minus the first
    # coordinate: dim(mu) - dim(nu) = -1 + 1/2.  The ceiling sum of
    # `codim_chai` is the same floor sums, so one plant breaks both
    monkeypatch.setattr(strata, "_floor_sum",
                        lambda datum, form: -Q(form[1][0], form[0]))
    for formula in (codim, codim_chai):
        with pytest.raises(RuntimeError, match="negative codimension"):
            formula(g, nu, mu)


def test_codim_chai_gl2():
    g = build_group("GL2")
    assert codim_chai(g, (Q(1, 2), Q(1)), (Q(1), Q(1))) == 1
    with pytest.raises(ValueError):
        codim_chai(g, (Q(1, 2), Q(1)), (Q(3, 2), Q(1)))


def test_codim_chai_refuses_a_mu_it_cannot_read():
    # a certified NewtonPoint mu off the lattice is refused on its int
    # form, and a plain integral mu off the chamber by its pairings
    g = build_group("GL2")
    nu = (Q(1, 2), Q(1))
    with pytest.raises(ValueError, match="expected an integral point"):
        codim_chai(g, nu, is_newton_point(g, nu))
    with pytest.raises(ValueError, match="needs an integral dominant mu"):
        codim_chai(g, nu, (0, 5))


def test_d_g():
    g = build_group("GL2")
    assert d_G(g, (Q(1, 2), Q(1))) == Q(1, 2)
    assert d_G(g, (Q(2), Q(3))) == 0
    g4 = build_group("GL4")
    assert d_G(g4, (Q(1, 4), Q(1, 2), Q(3, 4), Q(1))) == Q(3, 2)
    g3 = build_group("GL3")
    for bad in ((1, 2, 3, 4), (1, 2), (5,), (NEG_INF, 1, 1)):
        with pytest.raises(ValueError):
            d_G(g3, bad)


SCALARS = st.one_of(
    st.integers(-30, 30),
    st.builds(Q, st.integers(-60, 60), st.integers(1, 12)))


@given(st.data())
def test_int_forms_match_fraction_forms(data):
    # d_G on one common denominator and the ceiling sum as mu_i -
    # floor(nu_i) give the values of their Fraction forms; T2 has l = 0
    g = build_group(data.draw(st.sampled_from(
        ("GL2", "GL4", "B2*T1", "G2", "E8", "T2"))))
    nu = data.draw(st.tuples(*[SCALARS] * g.n))
    got = d_G(g, nu)
    assert type(got) is Q and got == oracles.d_G(g, nu)
    raw = data.draw(st.tuples(*[st.integers(-6, 6)] * g.n))
    mu = g.dominant_rep(raw)[0]
    if data.draw(st.booleans()):
        mu = tuple(Q(c) for c in mu)
    lower = data.draw(st.tuples(*[SCALARS] * g.l))
    below = tuple(mu[i] - abs(lower[i]) for i in range(g.l)) + mu[g.l:]
    got = codim_chai(g, below, mu)
    assert type(got) is int and got == oracles.codim_chai(g, below, mu)


def rho_prime_pairing(datum, nu):
    """<rho', nu> with rho' the sum of the first l extended weights."""
    return sum((Q(nu.point[i]) for i in range(datum.l)), Q(0))


def test_dim_via_rho():
    rng = random.Random(2)
    for spec in ("GL3", "B2", "C3"):
        g = build_group(spec)
        for _ in range(40):
            d = tuple(rng.randint(-4, 4) for _ in range(g.n))
            nu = stratum_of(g, d)
            assert dim_leq(g, nu) == rho_prime_pairing(g, nu) - d_G(g, nu)


def test_d_levi_check():
    g = build_group("GL4")
    nu = stratum_of(g, (0, 1, 1, 2))  # slopes with a fractional part
    assert d_levi_check(g, nu)
    rng = random.Random(8)
    for spec in ("GL3", "B2", "Gext(E6)"):
        h = build_group(spec)
        for _ in range(15):
            d = tuple(rng.randint(-3, 3) for _ in range(h.n))
            assert d_levi_check(h, stratum_of(h, d))


def test_d_levi_check_reads_the_face():
    # a hand-built point, fractional off its (empty) face: the face sum
    # is 0 and d_G is 1/2
    g = build_group("GL3")
    nu = NewtonPoint((Q(1, 2), Q(1), Q(3)), frozenset(), (0, 1, 3))
    assert d_levi_check(g, nu) is False
    bad = NewtonPoint(nu.point, frozenset({2}), nu.lift)  # 2 is no root
    with pytest.raises(ValueError, match="invalid Levi subset"):
        d_levi_check(g, bad)


def test_partition_small_box():
    """Every integral vector is accepted by exactly one open condition system."""
    g = build_group("GL2")
    mu_max = (Q(3), Q(3))
    systems = [
        stratum_conditions(g, np, closed=False)
        for np in newton_points_below(g, mu_max)
    ]
    for d in itertools.product(range(-3, 4), repeat=1):
        for last in (3,):
            vec = (Q(d[0]), Q(last))
            hits = [s for s in systems if s.accepts(vec)]
            expect = stratum_of(g, vec)
            assert len(hits) == 1
            assert hits[0].mu.point == expect.point


def test_closed_system_iff_leq():
    g = build_group("GL3")
    mu = stratum_of(g, (1, 2, 2))
    closed = stratum_conditions(g, mu, closed=True)
    rng = random.Random(13)
    for _ in range(60):
        d = tuple(rng.randint(-3, 3) for _ in range(2)) + (2,)
        nu = stratum_of(g, d)
        assert closed.accepts(d) == g.leq(nu.point, mu.point)


def test_extension_invariance():
    rng = random.Random(21)
    g = build_group("GL3")
    rows = [[rng.randint(-2, 2)] for _ in range(g.l)]
    g2, conv = change_extension(g, rows)
    for _ in range(40):
        d = tuple(rng.randint(-4, 4) for _ in range(g.n))
        nu = stratum_of(g, d)
        nu2 = stratum_of(g2, [int(c) for c in conv(tuple(Q(c) for c in d))])
        assert d_G(g2, nu2) == d_G(g, nu)


def test_codim_monotonicity():
    g = build_group("GL4")
    mu = (Q(1), Q(1), Q(1), Q(1))
    chain = newton_points_below(g, mu)
    chain.sort(key=lambda np: dim_leq(g, np))
    for a, b in zip(chain, chain[1:]):
        if g.leq(a.point, b.point):
            assert codim(g, a.point, mu) >= codim(g, b.point, mu)
