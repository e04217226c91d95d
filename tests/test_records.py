"""`rootdata.record` against `dataclasses`: each of the six record
classes behaves as the `@dataclass(frozen=True)` declaration it
replaced, rebuilt here as its twin."""

from dataclasses import dataclass, field
from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtonstrata import affine, chamber, rootdata, strata, toruseval
from newtonstrata.rationals import Q, scale_to_ints
from newtonstrata.toruseval import LaurentPoly


@dataclass(frozen=True)
class Factor:
    letter: str
    rank: int
    indices: tuple


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple


@dataclass(frozen=True)
class NewtonPoint:
    point: tuple
    levi: frozenset
    lift: tuple

    @cached_property
    def scaled(self):
        return scale_to_ints(self.point)


@dataclass(frozen=True)
class AffineWeylElement:
    translation: tuple
    linear: WeylElement


@dataclass(frozen=True)
class StratumConditions:
    mu: NewtonPoint
    closed: bool
    relations: tuple
    datum: object = field(repr=False, compare=False)


@dataclass(frozen=True)
class TorusPoint:
    values: tuple

    def __post_init__(self):
        for v in self.values:
            if not v.is_monomial():
                raise ValueError("torus coordinates must be monomials")


TWIN = {"record": {
    "Factor": rootdata.Factor,
    "WeylElement": rootdata.WeylElement,
    "NewtonPoint": chamber.NewtonPoint,
    "AffineWeylElement": affine.AffineWeylElement,
    "StratumConditions": strata.StratumConditions,
    "TorusPoint": toruseval.TorusPoint,
}, "dataclass": {
    "Factor": Factor,
    "WeylElement": WeylElement,
    "NewtonPoint": NewtonPoint,
    "AffineWeylElement": AffineWeylElement,
    "StratumConditions": StratumConditions,
    "TorusPoint": TorusPoint,
}}
FIELDS = {name: tuple(cls.__dataclass_fields__)
          for name, cls in TWIN["dataclass"].items()}

ints = st.integers(-5, 5)
scalars = st.one_of(ints, st.builds(Q, ints, st.integers(1, 4)))
ivec = st.lists(ints, max_size=4).map(tuple)
qvec = st.lists(scalars, max_size=4).map(tuple)
newton = st.tuples(qvec, st.frozensets(st.integers(0, 4), max_size=3), ivec)
# (exponent, coefficient) terms of one torus coordinate: mostly one
# monomial, else any terms, which make a non-monomial as often as not
terms = st.one_of(
    st.tuples(scalars, scalars.filter(bool)).map(lambda term: [term]),
    st.lists(st.tuples(scalars, scalars), max_size=3))

# raw field values, with nested records as their own raw values
RAW = {
    "Factor": st.tuples(st.sampled_from("ABCDEFG"), st.integers(0, 8), ivec),
    "WeylElement": st.tuples(st.lists(ivec, max_size=3).map(tuple)),
    "NewtonPoint": newton,
    "AffineWeylElement": st.tuples(
        ivec, st.tuples(st.lists(ivec, max_size=3).map(tuple))),
    "StratumConditions": st.tuples(
        newton, st.booleans(),
        st.lists(st.tuples(st.integers(0, 4), st.sampled_from(("<=", "==")),
                           scalars), max_size=3).map(tuple),
        st.lists(ints, max_size=2)),  # datum: unhashable, out of the hash
    "TorusPoint": st.tuples(st.lists(terms, max_size=3).map(tuple)),
}


def build(side, name, raw):
    """The `side` ("record" or "dataclass") instance of `name` whose
    fields, nested records included, are built from `raw`."""
    cls = TWIN[side][name]
    if name == "AffineWeylElement":
        return cls(raw[0], build(side, "WeylElement", raw[1]))
    if name == "StratumConditions":
        return cls(build(side, "NewtonPoint", raw[0]), *raw[1:])
    if name == "TorusPoint":
        return cls(tuple(LaurentPoly(terms) for terms in raw[0]))
    return cls(*raw)


def outcome(thunk):
    """What a call gives: its value, or its exception's type."""
    try:
        return "value", thunk()
    except Exception as exc:  # noqa: BLE001 - the twins must agree on it
        return "raises", type(exc)


@pytest.mark.parametrize("name", sorted(RAW))
@given(data=st.data())
def test_record_matches_its_dataclass_twin(name, data):
    raw = data.draw(RAW[name])
    other = raw if data.draw(st.booleans()) else data.draw(RAW[name])
    if name == "TorusPoint":
        # a coordinate that is not one monomial is refused by both
        got = {side: outcome(lambda side=side: build(side, name, raw))
               for side in TWIN}
        assert got["record"][0] == got["dataclass"][0]
        if got["record"][0] == "raises":
            assert got["record"][1] is got["dataclass"][1] is ValueError
            return
        if outcome(lambda: build("record", name, other))[0] == "raises":
            other = raw
    rec, twin = (build(side, name, raw) for side in TWIN)
    rec2, twin2 = (build(side, name, other) for side in TWIN)

    assert repr(rec) == repr(twin)
    assert (rec == rec2) is (twin == twin2)
    assert (rec != rec2) is (twin != twin2)
    assert outcome(lambda: hash(rec)) == outcome(lambda: hash(twin))
    # another class never compares equal, even with the same fields
    assert rec.__eq__(twin) is NotImplemented
    assert rec != twin and twin != rec

    # the same instance, by keyword
    kwargs = {f: getattr(rec, f) for f in FIELDS[name]}
    assert vars(TWIN["record"][name](**kwargs)) == vars(rec)

    for attr in (*FIELDS[name], "other"):
        errors = []
        for obj in (rec, twin):
            with pytest.raises(AttributeError) as set_exc:
                setattr(obj, attr, 0)
            with pytest.raises(AttributeError) as del_exc:
                delattr(obj, attr)
            errors.append((str(set_exc.value), str(del_exc.value)))
            assert type(set_exc.value) is not AttributeError
            assert type(del_exc.value) is not AttributeError
        assert errors[0] == errors[1]
    assert list(vars(rec)) == list(FIELDS[name])


def test_hidden_datum_is_out_of_repr_eq_and_hash():
    mu = chamber.NewtonPoint((1, 2), frozenset(), (1, 2))
    relations = ((0, "<=", 1),)
    for cls, point in ((strata.StratumConditions, mu),
                       (StratumConditions, NewtonPoint(*vars(mu).values()))):
        a, b = cls(point, False, relations, [1]), cls(point, False,
                                                      relations, "other")
        assert a == b and hash(a) == hash(b)
        assert "datum" not in repr(a) and repr(a) == repr(b)
        assert a.datum == [1]  # kept, only not compared


def test_scaled_is_out_of_repr_and_eq():
    fresh = chamber.NewtonPoint((Q(1, 2), 1), frozenset({0}), (0, 1))
    filled = chamber.NewtonPoint((Q(1, 2), 1), frozenset({0}), (0, 1))
    assert filled.scaled == (2, (1, 2)) == scale_to_ints(filled.point)
    assert "scaled" in vars(filled) and "scaled" not in vars(fresh)
    assert fresh == filled and hash(fresh) == hash(filled)
    assert repr(fresh) == repr(filled) == repr(
        NewtonPoint(*vars(fresh).values()))
    vars(fresh)["scaled"] = "set by a certificate"  # as `chamber` fills it
    assert fresh.scaled == "set by a certificate" and fresh == filled


def test_record_call_errors():
    with pytest.raises(TypeError):
        rootdata.WeylElement()
    with pytest.raises(TypeError):
        rootdata.WeylElement((), ())
    with pytest.raises(TypeError):
        rootdata.WeylElement((), matrix=())
    with pytest.raises(TypeError):
        rootdata.WeylElement(rows=())
