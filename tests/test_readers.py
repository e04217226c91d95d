"""The readers of a point on certified and on plain points.

A `NewtonPoint` carries its int form (`scaled`), and the readers take it
after a length check instead of checking and scaling the point again.
The `hypothesis` property runs every reader on each point below a
criterion-8 style mu, once as the NewtonPoint and once as the plain
tuple of its coordinates, and against the `Fraction` forms in `oracles`.
The work counts of one `poset` op (as perfbench runs it) are fixed
numbers, not timings, so they show a lost shortcut on any host.
`scale_to_ints`, which makes the int form of a plain point, is checked
against its two-expression form in `oracles`.
"""

import fractions

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from newtonstrata import chamber, rootdata
from newtonstrata.chamber import (
    hasse, is_newton_point, newton_points_below, stratum_of)
from newtonstrata.rationals import NEG_INF, Q, scale_to_ints
from newtonstrata.rootdata import RootDatum, build_group
from newtonstrata.strata import (
    codim, codim_chai, d_G, d_levi_check, dim_leq, stratum_conditions)

GROUPS = ("GL2", "GL3", "GL4", "GL5", "B3", "C3", "G2")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_readers_agree_on_certified_and_plain_points(data):
    g = build_group(data.draw(st.sampled_from(GROUPS)))
    # acceptance criterion 8: the dominant representative of an int vector
    raw = data.draw(st.tuples(*[st.integers(-3, 3)] * g.n))
    mu = g.dominant_rep(tuple(Q(c) for c in raw))[0]
    points = newton_points_below(g, mu)
    top = points[-1]
    assert top.point == mu
    plain = [tuple(p.point) for p in points]
    assert hasse(g, points) == hasse(g, plain) == oracles.hasse(g, plain)
    for nu, x in zip(points, plain):
        assert nu.scaled == scale_to_ints(x)
        assert dim_leq(g, nu) == dim_leq(g, x) == oracles.dim_leq(g, x)
        for m in (top, mu):
            assert codim(g, nu, m) == codim(g, x, mu) == oracles.codim(
                g, x, mu)
            assert codim_chai(g, nu, m) == codim_chai(g, x, mu) \
                == oracles.codim_chai(g, x, mu)
        got = d_G(g, nu)
        assert type(got) is Q and got == d_G(g, x) == oracles.d_G(g, x)
        assert (d_levi_check(g, nu) is d_levi_check(g, x)
                is oracles.d_levi(g, x, nu.levi) is True)
        assert (g.is_dominant(nu) is g.is_dominant(x)
                is oracles.is_dominant(g, x) is True)
        other = points[data.draw(st.integers(0, len(points) - 1))]
        for a, b in ((nu, other), (other, nu), (nu, top), (top, nu)):
            expect = oracles.leq(g, a.point, b.point)
            assert g.leq(a, b) is g.leq(a.point, b.point) is expect
            assert g.leq(a, b.point) is g.leq(a.point, b) is expect


def _certified(np):
    """repr of the point and face of a NewtonPoint.  The lifts differ:
    the certificate's is the floor of the point, the enumerator's 0 on
    the face.  Both are printed, so each is checked by p_M(lift) = point
    instead."""
    return repr((np.point, np.levi))


def test_certificate_and_enumerator_agree_on_gl3_top():
    g = build_group("GL3")
    assert repr(is_newton_point(g, (2, 3, 3))) \
        == repr(newton_points_below(g, (2, 3, 3))[-1])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_certificate_and_enumerator_build_one_point(data):
    # `is_newton_point` and `newton_points_below` give one point the same
    # coordinate types: ints off the face, Fractions on it
    g = build_group(data.draw(st.sampled_from(GROUPS)))
    raw = data.draw(st.tuples(*[st.integers(-3, 3)] * g.n))
    mu = g.dominant_rep(tuple(Q(c) for c in raw))[0]
    points = newton_points_below(g, mu)
    nu = points[data.draw(st.integers(0, len(points) - 1))]
    p = tuple(Q(c) for c in nu.point)
    found = [is_newton_point(g, p), newton_points_below(g, p)[-1], nu]
    assert len({_certified(np) for np in found}) == 1
    for np in found:
        assert g.p_M(np.lift, np.levi) == np.point


# a fixed criterion-8 input: the dominant representative of
# (1, -1, 2, -1) on F4, with 111 Newton points below it
F4_MU = (Q(8), Q(15), Q(11), Q(6))


def _count_calls(monkeypatch, owner, names):
    """Wrap the methods `names` of `owner` to count their calls."""
    counts = {"n": 0}
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            counts["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_poset_op_work_counts(monkeypatch):
    # one perfbench `poset` op on a plain mu, on a fresh datum.  The
    # enumeration and `hasse` check one point whatever the poset: mu in
    # `is_newton_point`.  The lift of its certificate and the torus part
    # of `central_part` are projected on ints with `solve`, unchecked.
    # The readers check mu once each in `codim` and `codim_chai`, and no
    # NewtonPoint.
    # No step compares two `Fraction`s by order.
    g = build_group("F4")
    mu = g.dominant_rep(tuple(Q(c) for c in (1, -1, 2, -1)))[0]
    assert mu == F4_MU
    checks = _count_calls(monkeypatch, RootDatum, ["point"])
    compares = _count_calls(monkeypatch, fractions.Fraction,
                            ["__lt__", "__le__", "__gt__", "__ge__"])
    points = newton_points_below(g, mu)
    hasse(g, points)
    assert len(points) == 111 and checks["n"] == 1
    for p in points:
        stratum_conditions(g, p, closed=True)
        dim_leq(g, p)
        codim(g, p, mu)
        codim_chai(g, p, mu)
        d_levi_check(g, p)
    assert checks["n"] - 1 <= 2 * len(points)
    assert compares["n"] == 0
    assert "levi" not in g._memo  # `d_levi_check` builds no Levi datum


def test_stratum_of_checks_its_input_twice(monkeypatch):
    # the integral read in `stratum_of` and the -inf read in `_finite`;
    # the central part and the lift of the certificate are projected on
    # ints with `solve`, and go back through `point` no more
    g = build_group("Gext(E6)")
    checks = _count_calls(monkeypatch, RootDatum, ["point"])
    np = stratum_of(g, (2, NEG_INF, 1, 0, -1, 3, 1))
    assert np.point[6] == 1 and checks["n"] == 2


def test_no_fraction_ordering_on_certified_points(monkeypatch):
    g = build_group("F4")
    points = newton_points_below(g, F4_MU)
    top = points[-1]
    compares = _count_calls(monkeypatch, fractions.Fraction,
                            ["__lt__", "__le__", "__gt__", "__ge__"])
    for p in points:
        assert g.leq(p, top) and (g.leq(top, p) is (p == top))
        codim(g, p, top)
        codim_chai(g, p, top)
        codim(g, p, F4_MU)  # a plain mu is checked and scaled, not compared
        codim_chai(g, p, F4_MU)
    assert compares["n"] == 0
    assert Q(1, 2) < Q(1)  # the counter sees a Fraction comparison
    assert compares["n"] == 1


@pytest.mark.parametrize("spec", ["GL3", "Gext(E6)"])
def test_carried_form_is_reduced(spec):
    # the enumerator fills `scaled` from its own ints, reduced: the very
    # form `scale_to_ints` gives of the point
    g = build_group(spec)
    mu = g.dominant_rep(tuple(Q(c) for c in (2, -1, 1, 0, 1, -1, 1)[:g.n]))[0]
    for p in newton_points_below(g, mu):
        assert "scaled" in vars(p)
        assert p.scaled == scale_to_ints(p.point)


@pytest.mark.parametrize("spec, d", [
    ("GL3", (0, 1, 3)), ("G2", (NEG_INF, 2)), ("T2", (3, -1)),
    ("Gext(E6)", (2, NEG_INF, 1, 0, -1, 3, 1))])
def test_certified_points_arrive_scaled(monkeypatch, spec, d):
    # `stratum_of` and `is_newton_point` hand back the int form they
    # certified on, so the readers after them scale nothing
    g = build_group(spec)
    np = stratum_of(g, d)
    points = [np, is_newton_point(g, np.point)]
    for p in points:
        assert "scaled" in vars(p) and p.scaled == scale_to_ints(p.point)
    counts = [_count_calls(monkeypatch, module, ["scale_to_ints"])
              for module in (rootdata, chamber)]
    for p in points:
        dim_leq(g, p)
        codim(g, p, np)
        d_G(g, p)
    assert sum(c["n"] for c in counts) == 0
    dim_leq(g, np.point)  # the counter sees a plain point scaled
    assert sum(c["n"] for c in counts) == 1


SCALARS = st.one_of(st.integers(-60, 60), st.booleans(), st.fractions(
    min_value=-20, max_value=20, max_denominator=12))


@given(st.lists(SCALARS, max_size=8).map(tuple))
@example(())
@example((True, False, 3))
@example((Q(6, 3), True, Q(1, 12)))
def test_scale_to_ints_matches_the_two_pass_form(xs):
    # one read of the denominators, and the numerators as they are when
    # the lcm is 1: the same form as the oracle's, types included
    assert repr(scale_to_ints(xs)) == repr(oracles.scale_to_ints(xs))
