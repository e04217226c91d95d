"""Every library entry point refuses a bad point with a ValueError.

`RootDatum.point` is the one check of a point entering the library.  The
table calls each entry point that reads a point with each kind of bad
input it must refuse: a wrong length, -inf in a slot where it is not
allowed, and, where a lift is read, a non-integral coordinate.  Among
the rows are five that once gave wrong answers on GL2: p_M, chi and the
character report accepted (0, 1, 5); defect read (0, 1/2) as (0, 0) and
failed its own class check, and took (0,) without a word.
`dominant_rep` sits below the gate and checks only the length.  A
certified NewtonPoint is trusted after a length check alone, so a second
table hands every reader NewtonPoints of other groups.
"""

import pytest

from newtonstrata import affine, chamber, strata
from newtonstrata.rationals import NEG_INF, Q
from newtonstrata.rootdata import build_group
from oracles import translation

G = build_group("GL2")  # n = 2, l = 1: slot 1 is semisimple, slot 2 torus

BAD = {
    "wrong length": [(0, 1, 5), (0,)],
    "-inf in a semisimple slot": [(NEG_INF, 1)],
    "-inf in a torus slot": [(0, NEG_INF)],
    "non-integral": [(0, Q(1, 2)), (Q(1, 2), 1)],
}
VALUATION = ("wrong length", "-inf in a torus slot")
FINITE = VALUATION + ("-inf in a semisimple slot",)
LIFT = FINITE + ("non-integral",)
INTEGRAL_VALUATION = VALUATION + ("non-integral",)

# name -> (call on the datum and a point x, the kinds of bad x it refuses)
ENTRIES = {
    "point": (lambda g, x: g.point(x), FINITE),
    "point neg_inf": (lambda g, x: g.point(x, neg_inf=True), VALUATION),
    "point integral": (lambda g, x: g.point(x, integral=True), LIFT),
    "point both": (lambda g, x: g.point(x, neg_inf=True, integral=True),
                   INTEGRAL_VALUATION),
    "finite_ize": (chamber.finite_ize, VALUATION),
    "retract": (chamber.retract, VALUATION),
    "stratum_of": (chamber.stratum_of, INTEGRAL_VALUATION),
    "newton_point": (chamber.newton_point, FINITE),
    "newton_points_below": (chamber.newton_points_below, FINITE),
    "is_dominant": (lambda g, x: g.is_dominant(x), FINITE),
    "leq left": (lambda g, x: g.leq(x, (1, 1)), FINITE),
    "leq right": (lambda g, x: g.leq((1, 1), x), FINITE),
    "dim_leq": (strata.dim_leq, FINITE),
    "d_G": (strata.d_G, FINITE),
    "codim_chai mu": (lambda g, x: strata.codim_chai(g, (Q(1, 2), 1), x),
                      LIFT),
    "p_M": (lambda g, x: g.p_M(x, {0}), FINITE),
    "p_M empty subset": (lambda g, x: g.p_M(x, ()), FINITE),
    "central_part": (lambda g, x: g.central_part(x[g.l:]), VALUATION),
    # the tests' constructor for `alcove_reduce`, through the same gate
    "translation": (translation, LIFT),
    "section_s": (affine.section_s, LIFT),
    "w_nu": (affine.w_nu, LIFT),
    "defect": (affine.defect, LIFT),
    "verify_defect_identity": (affine.verify_defect_identity, LIFT),
    "reflection_char_multiset_check": (
        affine.reflection_char_multiset_check, LIFT),
    "chi": (lambda g, x: affine.chi(g, 0, x), LIFT),
    "hasse": (lambda g, x: chamber.hasse(g, [(0, 1), x]), FINITE),
    "accepts": (lambda g, x: strata.stratum_conditions(
        g, (Q(1, 2), 1), closed=True).accepts(x), VALUATION),
    # a primitive below the gate: it checks the length only
    "dominant_rep": (lambda g, x: g.dominant_rep(x), ("wrong length",)),
}

ROWS = [
    (name, kind, x)
    for name, (_call, kinds) in ENTRIES.items()
    for kind in kinds
    for x in BAD[kind]
]


@pytest.mark.parametrize("name, kind, x", ROWS,
                         ids=[f"{name}-{kind}-{x}" for name, kind, x in ROWS])
def test_bad_point_raises_value_error(name, kind, x):
    call, _kinds = ENTRIES[name]
    with pytest.raises(ValueError) as exc:
        call(G, x)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("x", [x for kind in FINITE for x in BAD[kind]])
def test_is_newton_point_answers_none(x):
    # the certifier's contract: a bad point is not a Newton point
    assert chamber.is_newton_point(G, x) is None


def test_point_returns_a_checked_tuple():
    assert G.point([Q(1, 2), 1]) == (Q(1, 2), 1)
    x = (Q(1, 2), 1)
    assert G.point(x) is x  # no copy of a tuple
    assert G.point((NEG_INF, Q(3)), neg_inf=True) == (NEG_INF, 3)
    lift = G.point((Q(2), Q(-3)), integral=True)
    assert lift == (2, -3) and all(type(c) is int for c in lift)
    d = G.point((NEG_INF, Q(4)), neg_inf=True, integral=True)
    assert d[0] is NEG_INF and type(d[1]) is int


# A float is neither an int nor a Fraction: each gate refuses it, even
# an integral 1.0 or a float -inf.  `leq` on (0.5, 1) once raised
# AttributeError.
FLOATS = [(0.5, 1), (1, 1.0), (float("-inf"), 1)]
FLOAT_ENTRIES = ("point", "point neg_inf", "point integral", "point both",
                 "retract", "is_dominant", "leq left", "leq right", "d_G")


@pytest.mark.parametrize("name", FLOAT_ENTRIES)
@pytest.mark.parametrize("x", FLOATS, ids=str)
def test_float_coordinate_raises_value_error(name, x):
    call, _kinds = ENTRIES[name]
    with pytest.raises(ValueError, match="not an int or a Fraction") as exc:
        call(G, x)
    assert "\n" not in str(exc.value)


# Certified points of other groups.  A NewtonPoint is trusted after a
# length check only, so every reader must refuse one of the wrong length:
# GL3's (2, 3, 3) once gave GL2 a two-relation stratum system, and GL4 an
# IndexError from `to_json` and `d_levi_check`.
FOREIGN = {
    "GL3 (2, 3, 3)": chamber.is_newton_point(build_group("GL3"), (2, 3, 3)),
    "GL1 (4,)": chamber.is_newton_point(build_group("GL1"), (4,)),
}
READERS = {
    "newton_point": chamber.newton_point,
    "newton_points_below": chamber.newton_points_below,
    "hasse": lambda g, x: chamber.hasse(g, [x]),
    "hasse_dot": lambda g, x: chamber.hasse_dot(g, [x]),
    "scaled": lambda g, x: g.scaled(x),
    "is_dominant": lambda g, x: g.is_dominant(x),
    "leq left": lambda g, x: g.leq(x, g.point((1,) * g.n)),
    "leq right": lambda g, x: g.leq(g.point((1,) * g.n), x),
    "stratum_conditions": lambda g, x: strata.stratum_conditions(
        g, x, closed=False).to_json(),
    "stratum_conditions closed": lambda g, x: strata.stratum_conditions(
        g, x, closed=True).to_json(),
    "dim_leq": strata.dim_leq,
    "d_G": strata.d_G,
    "d_levi_check": strata.d_levi_check,
    "codim nu": lambda g, x: strata.codim(g, x, (2,) * g.n),
    "codim mu": lambda g, x: strata.codim(g, (0,) * g.n, x),
    "codim_chai nu": lambda g, x: strata.codim_chai(g, x, (2,) * g.n),
    "codim_chai mu": lambda g, x: strata.codim_chai(g, (0,) * g.n, x),
}
FOREIGN_ROWS = [(spec, name, point)
                for spec in ("GL2", "GL4")
                for name in READERS
                for point in FOREIGN]


@pytest.mark.parametrize("spec, name, point", FOREIGN_ROWS, ids=[
    f"{spec}-{name}-{point}" for spec, name, point in FOREIGN_ROWS])
def test_foreign_newton_point_raises_value_error(spec, name, point):
    with pytest.raises(ValueError) as exc:
        READERS[name](build_group(spec), FOREIGN[point])
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("call", [
    # each of these once answered without a word on GL2
    lambda: chamber.hasse(G, [(0, 1), (1, 1, 9)]),  # answered [(0, 1)]
    lambda: strata.stratum_conditions(  # answered True
        G, (Q(1, 2), 1), closed=True).accepts((0, 1, 7)),
    lambda: G.dominant_rep((0, 2, 5)),  # answered ((2, 2, 5), (0,))
], ids=["hasse", "accepts", "dominant_rep"])
def test_readers_refuse_a_wrong_length(call):
    with pytest.raises(ValueError):
        call()
