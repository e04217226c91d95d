"""Randomized verification suites shared by the CLI and the test suite.

`suite_defect` and `suite_chars` import `affine` when they run, so the
`rnu` suite alone loads neither `affine` nor the `strata` it imports."""

import random

from . import toruseval
from .rationals import fmt_scalar


def random_lift(datum, class_lift, rng):
    """Another integral representative of the same class: add random coroots."""
    lift = list(class_lift)
    for j in range(datum.l):
        # simple coroots are the standard basis vectors in omega-coordinates
        lift[j] += rng.randint(-3, 3)
    return tuple(lift)


def _report(suite, datum, count, failures):
    return {"suite": suite, "group": datum.label, "count": count,
            "failures": failures, "pass": not failures}


def suite_rnu(datum, seed=0, count=1000):
    """Theorem-style retraction check on seeded monomial torus points, of
    denominators 1, 2, 3 in turn."""
    rng = random.Random(seed)
    failures = []
    for k in range(count):
        a = toruseval.random_torus_point(datum, rng, denominator=k % 3 + 1)
        rep = toruseval.check_thm_rnu(datum, a)
        if not rep["pass"]:
            failures.append({"case": k, "report": _jsonable(rep)})
    return _report("rnu", datum, count, failures)


def suite_defect(datum, seed=0):
    """Defect identity for every component-group class, three lifts each."""
    from . import affine

    rng = random.Random(seed)
    failures = []
    cases = 0
    for class_lift in datum.component_classes():
        reps = [class_lift] + [
            random_lift(datum, class_lift, rng) for _ in range(2)
        ]
        base = None
        for lift in reps:
            cases += 1
            rep = affine.verify_defect_identity(datum, lift)
            if base is None:
                base = rep["defect"]
            if not rep["pass"] or rep["defect"] != base:
                failures.append({"lift": list(lift), "report": _jsonable(rep)})
    return _report("defect", datum, cases, failures)


def suite_chars(datum):
    """Cyclotomic character-multiset check for every class."""
    from . import affine

    failures = []
    cases = 0
    for class_lift in datum.component_classes():
        cases += 1
        rep = affine.reflection_char_multiset_check(datum, class_lift)
        if not rep["pass"]:
            failures.append({"lift": list(class_lift), "report": _jsonable(rep)})
    return _report("chars", datum, cases, failures)


# name -> a function of (datum, seed, count); each suite gets what it reads
SUITES = {
    "rnu": suite_rnu,
    "defect": lambda datum, seed, count: suite_defect(datum, seed),
    "chars": lambda datum, seed, count: suite_chars(datum),
}


def run_suites(datum, names, seed=0, count=1000):
    return [SUITES[name](datum, seed, count) for name in names]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)):
        return obj
    return fmt_scalar(obj)  # a Fraction or -inf
