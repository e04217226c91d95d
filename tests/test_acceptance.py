"""Acceptance gate: eight end-to-end criteria, exact arithmetic throughout.

Each test prints a single pass/fail line; any assertion failure fails the
corresponding criterion.
"""

import itertools
import random

from newtonstrata.affine import (
    chi,
    defect,
    reflection_char_multiset_check,
    verify_defect_identity,
)
from newtonstrata.chamber import (
    finite_ize,
    newton_points_below,
    retract,
    stratum_of,
)
from newtonstrata.rationals import NEG_INF, Q
from newtonstrata.rootdata import build_group
from newtonstrata.strata import (
    codim,
    codim_chai,
    d_G,
    d_levi_check,
    stratum_conditions,
)
from newtonstrata.toruseval import check_thm_rnu, classical_newton_slopes
from newtonstrata.verify import random_lift
from oracles import change_extension, retract_closest, slopes_to_coords


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_classical_equivalence():
    """GL_n, n=2..6: exhaustive valuation vectors with -inf patterns."""
    checked = 0
    for n in range(2, 7):
        g = build_group(f"GL{n}")
        vals = [Q(v) for v in range(-3, 4)] + [NEG_INF]
        for head in itertools.product(vals, repeat=n - 1):
            for last in range(-3, 4):
                d = head + (Q(last),)
                y, _s = retract(g, d)
                assert slopes_to_coords(classical_newton_slopes(d)) == y
                checked += 1
    assert checked == 262136
    _report("1 (classical equivalence)", True)


def test_criterion_2_retraction_axioms():
    """Idempotence, majorization, dominance, fiber law, minimality,
    agreement with the Euclidean projection; 10,000 points per group."""
    specs = ("GL2", "GL3", "GL4", "A2", "B2", "C3", "G2", "Gext(E6)")
    for spec in specs:
        g = build_group(spec)
        rng = random.Random(20240 + g.n)
        for _ in range(10000):
            x = tuple(
                Q(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
                for _ in range(g.n)
            )
            y, s = retract(g, x)
            assert g.is_dominant(y)
            assert g.leq(x, y)
            assert retract(g, y) == (y, s)
            assert g.p_M(x, s) == y
            assert retract_closest(g, x) == y
            # minimality: every sampled dominant majorant of x dominates y
            for _ in range(100):
                mu = list(x)
                for j in range(g.l):
                    mu[j] += rng.randint(0, 5)
                if g.is_dominant(mu):
                    assert g.leq(y, mu)
    _report("2 (retraction axioms)", True)


def test_criterion_3_torus_evaluation():
    """Retraction of orbit-sum valuations equals the dominant Weyl
    representative; 1,000 seeded monomial points per group."""
    specs = ("GL2", "GL3", "GL4", "GL5", "A1", "A2", "B2", "C3", "G2")
    for spec in specs:
        g = build_group(spec)
        rng = random.Random(977)
        from newtonstrata.toruseval import random_torus_point

        for k in range(1000):
            a = random_torus_point(g, rng, denominator=(k % 3) + 1)
            rep = check_thm_rnu(g, a)
            assert rep["pass"], (spec, k, rep)
    # E7 and E8 by the reverse-search orbit sums: 20 seeded E7 points with
    # denominators 1 to 3, and one E8 point
    for spec, count in (("E7", 20), ("E8", 1)):
        g = build_group(spec)
        rng = random.Random(977)
        for k in range(count):
            a = random_torus_point(g, rng, denominator=(k % 3) + 1)
            rep = check_thm_rnu(g, a)
            assert rep["pass"], (spec, k, rep)
    _report("3 (torus evaluation)", True)


def test_criterion_4_stratum_partition():
    """Exactly one open condition system accepts each integral vector,
    and d and its finite point d' retract alike."""
    for spec in ("GL2", "GL3", "B2"):
        g = build_group(spec)
        l, n = g.l, g.n
        vals = list(range(-4, 5)) + [NEG_INF]
        for torus in itertools.product(range(-4, 5), repeat=n - l):
            top = tuple(Q(4) for _ in range(l)) + tuple(Q(t) for t in torus)
            mu_max, _ = retract(g, top)
            systems = [
                stratum_conditions(g, p, closed=False)
                for p in newton_points_below(g, mu_max)
            ]
            for head in itertools.product(vals, repeat=l):
                d = head + torus
                hits = [s for s in systems if s.accepts(d)]
                nu = stratum_of(g, d)
                assert len(hits) == 1, (spec, d)
                assert hits[0].mu.point == nu.point, (spec, d)
                assert retract(g, finite_ize(g, d)) == retract(g, d), (spec, d)
    _report("4 (stratum partition)", True)


def test_criterion_5_defect_identity():
    """d_G = defect/2 and twice the character sum equals the defect,
    for every component-group class with three lifts each."""
    specs = (
        "GL2", "GL3", "GL4", "GL5", "GL6", "GL7", "GL8",
        "Gext(E6)", "Gext(E7)", "Gext(D4)", "Gext(D5)",
        "Gext(C3)", "Gext(B3)",
    )
    rng = random.Random(55)
    for spec in specs:
        g = build_group(spec)
        for cls in g.component_classes():
            for lift in (
                cls,
                random_lift(g, cls, rng),
                random_lift(g, cls, rng),
            ):
                rep = verify_defect_identity(g, lift)
                assert rep["pass"], (spec, lift, rep)
    # closed form for GL_n
    for n in range(2, 9):
        g = build_group(f"GL{n}")
        for k in range(n):
            lift = tuple([0] * (n - 1) + [k])
            assert defect(g, lift) == n - _gcd(k, n)
    _report("5 (defect identity)", True)


def test_criterion_6_character_multisets():
    """Cyclotomic factor multiplicities match character denominators;
    the GL_n and extended-E6 character patterns hold exactly."""
    specs = (
        "GL2", "GL3", "GL4", "GL5", "GL6", "GL7", "GL8",
        "Gext(E6)", "Gext(E7)", "Gext(D4)", "Gext(D5)",
        "Gext(C3)", "Gext(B3)",
    )
    for spec in specs:
        g = build_group(spec)
        for cls in g.component_classes():
            assert reflection_char_multiset_check(g, cls)["pass"], (spec, cls)
    for n in range(2, 9):
        g = build_group(f"GL{n}")
        for cls in g.component_classes():
            c1 = chi(g, 0, cls)
            for i in range(g.l):
                v = Q(i + 1) * c1
                assert chi(g, i, cls) == v - int(v)
    e6 = build_group("Gext(E6)")
    for cls in e6.component_classes():
        chis = [chi(e6, i, cls) for i in range(e6.n)]
        assert chis[1] == 0 and chis[3] == 0
        assert chis[0] == chis[4] and chis[2] == chis[5]
        if any(c != 0 for c in chis):
            assert chis[0] != chis[2]
    _report("6 (character multisets)", True)


def test_criterion_7_extension_independence():
    """d_G, codim, codim_chai are unchanged under extension changes,
    and the two codimension formulas agree."""
    rng = random.Random(300)
    for spec in ("GL2", "GL3", "GL4", "Gext(E6)"):
        g = build_group(spec)
        cases = []
        while len(cases) < 25:
            raw = tuple(rng.randint(-4, 4) for _ in range(g.n))
            mu, _w = g.dominant_rep(tuple(Q(c) for c in raw))
            below = []
            for _ in range(30):
                d = tuple(
                    int(c) - rng.randint(0, 4) if i < g.l else int(c)
                    for i, c in enumerate(mu)
                )
                nu = stratum_of(g, d)
                if g.leq(nu.point, mu):
                    below.append(nu)
            if len(below) > 1:
                cases.append((mu, below))
        for _ in range(20):
            rows = [
                [rng.randint(-2, 2) for _ in range(g.n - g.l)]
                for _ in range(g.l)
            ]
            g2, conv = change_extension(g, rows)
            for mu, below in cases[:5]:
                mu2 = conv(mu)
                for nu in below:
                    nu2 = conv(nu.point)
                    assert d_G(g2, nu2) == d_G(g, nu.point)
                    assert codim(g2, nu2, mu2) == codim(g, nu.point, mu)
                    assert codim_chai(g2, nu2, mu2) == codim_chai(
                        g, nu.point, mu)
        pairs = 0
        for mu, below in cases:
            for nu in below:
                assert codim_chai(g, nu.point, mu) == codim(g, nu.point, mu)
                pairs += 1
                if pairs >= 500:
                    break
    _report("7 (extension independence)", True)


def test_criterion_8_levi_reduction():
    """d_G agrees with its value computed inside the Newton point's own
    Levi, over the full poset below 50 sampled dominant points per group."""
    specs = ("GL2", "GL3", "GL4", "A2", "B2", "C3", "G2", "Gext(E6)")
    for spec in specs:
        g = build_group(spec)
        rng = random.Random(808)
        # keep the enumeration boxes at desk scale for the rank-6 group
        spread = 1 if g.l > 4 else 3
        for _ in range(50):
            raw = tuple(rng.randint(-spread, spread) for _ in range(g.n))
            mu, _w = g.dominant_rep(tuple(Q(c) for c in raw))
            for nu in newton_points_below(g, mu):
                assert d_levi_check(g, nu), (spec, nu)
    _report("8 (Levi reduction)", True)
