"""The four workloads: seeded inputs, one operation, its check, its
canonical output.

Every workload builds its inputs from a `random.Random` the runner seeds,
in cycles: one cycle is a fixed schedule of groups (or queries), shuffled,
with fresh inputs each time.  The library only ever receives the finished
inputs.  Library functions are always looked up through their module at
call time, so that the tracer's wrappers are the ones called.
"""

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys

from hostclock import HostClock

MODULES = ("rationals", "rootdata", "chamber", "strata", "affine",
           "toruseval", "cli")


class Workload:
    name = ""
    specs = ()  # group descriptors built during set-up
    trace_cycles = 1  # cycles in the traced (and digested) prefix

    def __init__(self, root):
        self.root = root
        self.groups = {}

    def import_library(self):
        for mod in MODULES:
            setattr(self, mod, importlib.import_module(f"newtonstrata.{mod}"))

    def setup(self, seed):
        """Import, build the groups, then an untimed warm-up pass on
        inputs from a different seed so the library's caches fill."""
        self.import_library()
        self.groups = {s: self.rootdata.build_group(s) for s in self.specs}
        self.after_build()
        for op in self.warmup(random.Random(f"{self.name}:warmup:{seed}")):
            self.run(op)

    def after_build(self):
        pass

    def warmup(self, rng):
        return self.cycle(rng)

    def cycle(self, rng):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def canon(self, op, out):
        raise NotImplementedError

    def label(self, op):
        """The op's class in the run's time-share breakdown."""
        return op[0]

    # -- shared checks ------------------------------------------------------

    def face(self, g, y):
        return frozenset(j for j in range(g.l) if g.root_pairing(j, y) == 0)

    def certified(self, g, np):
        """The lift certificate of a NewtonPoint: integral lift, the face of
        the point, a dominant point, and p_M(lift, face) == point."""
        Q = self.rationals.Q
        return (all(Q(c).denominator == 1 for c in np.lift)
                and np.levi == self.face(g, np.point)
                and g.is_dominant(np.point)
                and g.p_M(np.lift, np.levi) == np.point)

    def jsonable(self, obj):
        """Canonical JSON-ready form: scalars as "p/q" or "-inf"."""
        if isinstance(obj, dict):
            return {str(k): self.jsonable(v) for k, v in obj.items()}
        if isinstance(obj, (frozenset, set)):
            return sorted(self.jsonable(v) for v in obj)
        if isinstance(obj, (list, tuple)):
            return [self.jsonable(v) for v in obj]
        if isinstance(obj, (bool, int, str)) or obj is None:
            return obj
        return self.rationals.fmt_scalar(obj)

    def dumps(self, obj):
        return json.dumps(self.jsonable(obj), sort_keys=True)


class Retract(Workload):
    """Valuation vectors in the style of acceptance criterion 2: entries
    p/q with |p| <= 12 and q in 1..4, about 10% of the semisimple slots
    -inf, and a quarter of the vectors integral.  One op is `retract`,
    plus `stratum_of` when the vector is integral."""

    name = "retract"
    specs = ("GL4", "C3", "G2", "B4", "D5*T1", "Gext(E6)", "E8")
    trace_cycles = 100

    def cycle(self, rng):
        order = list(self.specs)
        rng.shuffle(order)
        return [self._vector(spec, rng) for spec in order]

    def warmup(self, rng):
        return [op for _ in range(30) for op in self.cycle(rng)]

    def _vector(self, spec, rng):
        g = self.groups[spec]
        Q, NEG_INF = self.rationals.Q, self.rationals.NEG_INF
        integral = rng.random() < 0.25
        d = []
        for i in range(g.n):
            if i < g.l and rng.random() < 0.1:
                d.append(NEG_INF)
            else:
                den = 1 if integral else rng.choice((1, 2, 3, 4))
                d.append(Q(rng.randint(-12, 12), den))
        return spec, tuple(d), integral

    def run(self, op):
        spec, d, integral = op
        g = self.groups[spec]
        y, face = self.chamber.retract(g, d)
        np = self.chamber.stratum_of(g, d) if integral else None
        return y, face, np

    def check(self, op, out):
        spec, d, integral = op
        g = self.groups[spec]
        y, face, np = out
        dprime = self.chamber.finite_ize(g, d)
        ok = (g.is_dominant(y) and g.leq(dprime, y)
              and g.p_M(dprime, face) == y and face == self.face(g, y))
        if integral:
            ok = ok and np.point == y and self.certified(g, np)
        return ok

    def canon(self, op, out):
        y, face, np = out
        return self.dumps([op[0], y, face, np.to_json() if np else None])


class Poset(Workload):
    """Dominant mu in the style of acceptance criterion 8 (the dominant
    representative of a random integral vector with entries in
    [-spread, spread]).  One op is `newton_points_below(mu)` and `hasse`,
    then `stratum_conditions`, `dim_leq`, `codim`, `codim_chai` and
    `d_levi_check` for every point found.

    mu is kept only when its enumeration box (the number of candidate
    lattice points, summed over all faces) lies in the group's band,
    which holds each group's op cost to a steady range."""

    name = "poset"
    SIZES = {  # spec -> (spread, smallest box, largest box)
        "GL4": (3, 60, 200), "B3": (3, 150, 400), "C3": (3, 150, 500),
        "G2": (4, 50, 200), "D4": (2, 300, 700), "F4": (2, 1500, 3100),
        "Gext(E6)": (1, 4000, 5000),
    }
    specs = tuple(SIZES)
    trace_cycles = 4

    def cycle(self, rng):
        order = list(self.specs)
        rng.shuffle(order)
        return [(spec, self._mu(spec, rng)) for spec in order]

    def box(self, g, mu):
        r = self.rationals
        z = g.central_part(mu[g.l:])
        size = 1
        for i in range(g.l):
            size *= 2 + max(-1, r.qfloor(mu[i]) - r.qceil(z[i]))
        return size

    def _mu(self, spec, rng):
        g = self.groups[spec]
        spread, lo, hi = self.SIZES[spec]
        Q = self.rationals.Q
        while True:
            raw = tuple(Q(rng.randint(-spread, spread)) for _ in range(g.n))
            mu, _w = g.dominant_rep(raw)
            if lo <= self.box(g, mu) <= hi:
                return mu

    def run(self, op):
        spec, mu = op
        g = self.groups[spec]
        ch, st = self.chamber, self.strata
        points = ch.newton_points_below(g, mu)
        edges = ch.hasse(g, points)
        rows = [
            (st.stratum_conditions(g, p, closed=True), st.dim_leq(g, p),
             st.codim(g, p, mu), st.codim_chai(g, p, mu),
             st.d_levi_check(g, p))
            for p in points
        ]
        return points, edges, rows

    def check(self, op, out):
        spec, mu = op
        g = self.groups[spec]
        points, edges, rows = out
        if not points or points[-1].point != mu:
            return False
        for p, (conds, dim, cd, chai, levi_ok) in zip(points, rows):
            if not (g.is_dominant(p.point) and g.leq(p.point, mu)
                    and self.certified(g, p)
                    and self.chamber.is_newton_point(g, p.point) is not None
                    and conds.mu is not None and conds.mu.point == p.point
                    and cd == chai == self.strata.dim_leq(g, mu) - dim
                    and levi_ok is True):
                return False
        return all(g.leq(points[a].point, points[b].point) for a, b in edges)

    def canon(self, op, out):
        points, edges, rows = out
        return self.dumps([
            op[0], edges,
            [[p.to_json(), c.to_json(), dim, cd, chai, ok]
             for p, (c, dim, cd, chai, ok) in zip(points, rows)],
        ])


class Orbits(Workload):
    """Torus points for `check_thm_rnu` in the style of acceptance
    criterion 3 (monomials c*pi^(p/q), c in {1,-1,2,-2}, |p/q| <= 3, q in
    1..3; integral exponents on Gext(E6), whose op cost grows with q),
    interleaved with class ops: `verify_defect_identity` and
    `reflection_char_multiset_check` on a random lift of a random
    component class.  Each class slot has its own lift spread, from 2 to
    8, so alcove words run from short to long."""

    name = "orbits"
    trace_cycles = 2
    TORUS = ("GL5", "C3", "B4", "D5", "F4", "Gext(E6)", "Gext(E6)")
    CLASS = (("GL8", 2), ("Gext(D5)", 8), ("Gext(E6)", 4), ("Gext(E7)", 2),
             ("GL8", 6), ("Gext(E6)", 8), ("Gext(E7)", 5))
    specs = tuple(dict.fromkeys(TORUS + tuple(s for s, _ in CLASS)))

    def after_build(self):
        self.classes = {s: self.groups[s].component_classes()
                        for s, _spread in self.CLASS}

    def warmup(self, rng):
        # class representatives without lifts, and no Gext(E6) torus
        # point: those take 0.4 s each and fill no cache
        return ([self._torus(s, rng) for s in dict.fromkeys(self.TORUS)
                 if s != "Gext(E6)"]
                + [self._class(s, rng, 0) for s in self.classes])

    def cycle(self, rng):
        ops = ([self._torus(s, rng) for s in self.TORUS]
               + [self._class(s, rng, spread) for s, spread in self.CLASS])
        rng.shuffle(ops)
        return ops

    def _torus(self, spec, rng):
        g = self.groups[spec]
        Q, te = self.rationals.Q, self.toruseval
        den = 1 if spec == "Gext(E6)" else rng.choice((1, 2, 3))
        values = tuple(
            te.LaurentPoly.monomial(Q(rng.choice((1, -1, 2, -2))),
                                    Q(rng.randint(-3 * den, 3 * den), den))
            for _ in range(g.n)
        )
        return "torus", spec, te.TorusPoint(values)

    def _class(self, spec, rng, spread):
        g = self.groups[spec]
        lift = list(rng.choice(self.classes[spec]))
        for j in range(g.l):
            lift[j] += rng.randint(-spread, spread)
        return "class", spec, tuple(lift)

    def run(self, op):
        kind, spec, arg = op
        g = self.groups[spec]
        if kind == "torus":
            return (self.toruseval.check_thm_rnu(g, arg),)
        return (self.affine.verify_defect_identity(g, arg),
                self.affine.reflection_char_multiset_check(g, arg))

    def check(self, op, out):
        return all(rep["pass"] is True for rep in out)

    def canon(self, op, out):
        return self.dumps([op[0], op[1], list(out)])

    def label(self, op):
        return f"{op[0]}:{op[1]}"


# (argv, documented stdout or None).  The first six are the README examples.
# Apart from the README `verify` (about 0.75 s), the four slowest queries
# (0.18-0.28 s, the last four) form one tier clearly above the rest, so
# that p90 (the slowest tenth) falls inside that tier's samples.
QUERIES = (
    (["retract", "--group", "GL2", "--d", "0,2"],
     '{"y": ["1", "2"], "levi": [1], "slopes": ["1", "1"]}'),
    (["newton-points", "--group", "GL3", "--mu", "2,3,3", "--dot"], None),
    (["codim", "--group", "GL2", "--nu", "1/2,1", "--mu", "1,1"],
     '{"codim": 1}'),
    (["defect", "--group", "GL3", "--nu", "0,0,1"], None),
    (["eval", "--group", "GL2", "--a", "1*pi^(-1),-1*pi^(-2)"], None),
    (["verify", "--group", "GL3", "--suite", "all", "--seed", "7",
      "--count", "1000"], None),
    (["describe", "--group", "B2*T1"], None),
    (["describe", "--group", "E8"], None),
    (["describe", "--group", "Gext(E6)", "--format", "text"], None),
    (["retract", "--group", "GL3", "--d=-inf,0,0"], None),
    (["retract", "--group", "E8", "--d", "1,-2,3,0,1/2,-1,2,5"], None),
    (["retract", "--group", "B2*T1", "--d", "3,-1,2"], None),
    (["stratum", "--group", "GL5", "--d", "0,1,3,2,4"], None),
    (["stratum", "--group", "Gext(E6)", "--d", "1,0,-2,3,1,0,2"], None),
    (["conditions", "--group", "GL4", "--mu", "3/2,3,7/2,4"], None),
    (["conditions", "--group", "GL6", "--mu", "1,2,11/4,7/2,17/4,5",
      "--closed"], None),
    (["dim", "--group", "Gext(E6)", "--mu", "1,2,2,3,2,1,0"], None),
    (["codim", "--group", "GL4", "--nu", "4/3,8/3,4,4", "--mu", "2,3,4,4",
      "--chai"], None),
    (["newton-points", "--group", "B2*T1", "--mu", "4,3,1", "--format",
      "text"], None),
    (["defect", "--group", "GL6", "--nu", "0,0,0,0,0,3"], None),
    (["dg", "--group", "GL4", "--nu", "1/4,1/2,3/4,1"], None),
    (["dg", "--group", "E8", "--nu", "1/2,1,3/2,2,5/2,3,7/2,4"], None),
    (["eval", "--group", "GL3", "--a", "2*pi^(1),-1*pi^(0),1*pi^(-1)"],
     None),
    (["verify", "--group", "GL2", "--suite", "rnu", "--seed", "3",
      "--count", "400"], None),
    (["verify", "--group", "Gext(E6)", "--suite", "defect"], None),
    (["newton-points", "--group", "Gext(E6)", "--mu", "1,2,2,3,2,1,0"], None),
    (["verify", "--group", "B2", "--suite", "rnu", "--seed", "5",
      "--count", "200"], None),
)
# one query per subcommand, run as the untimed warm-up processes
WARMUP = (6, 9, 12, 14, 16, 17, 1, 3, 20, 4, 23)
CLI_EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected", "cli_stdout.json")
ENTRY = "import sys; from newtonstrata.cli import main; sys.exit(main())"


def query_key(argv):
    return " ".join(argv)


class Cli(Workload):
    """Cold `newtonstrata` processes, one after another: each op is one
    query of QUERIES, in a seeded order.  With `in_process` set (the
    traced run) each query goes through `cli.main` with stdout captured."""

    name = "cli"
    trace_cycles = 2
    in_process = False

    def setup(self, seed):
        with open(CLI_EXPECTED) as fh:
            self.expected = json.load(fh)
        if self.in_process:
            self.import_library()
        clock = HostClock()
        for i in WARMUP:
            clock.probe_if_due()
            clock.run(self.run, i)
        self.warmup_s = list(clock.normalized)

    def cycle(self, rng):
        order = list(range(len(QUERIES)))
        rng.shuffle(order)
        return order

    def run(self, i):
        argv = QUERIES[i][0]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
            return code, buf.getvalue()
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv],
                              cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout

    def check(self, i, out):
        argv, documented = QUERIES[i]
        code, stdout = out
        return (code == 0 and stdout == self.expected[query_key(argv)]
                and (documented is None or stdout.strip() == documented))

    def canon(self, i, out):
        return json.dumps([query_key(QUERIES[i][0]), out[0], out[1]])

    def label(self, i):
        return QUERIES[i][0][0]


WORKLOADS = {w.name: w for w in (Retract, Poset, Orbits, Cli)}
