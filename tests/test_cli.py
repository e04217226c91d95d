"""CLI dispatch, formats, exit codes."""

import contextlib
import io
import json
import pathlib
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonstrata.chamber import (
    RetractionError, newton_points_below, retract, stratum_of)
from newtonstrata import cli
from newtonstrata.cli import main
from newtonstrata.rationals import NEG_INF, Q, fmt_point
from newtonstrata.rootdata import RootDatum, build_group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_retract_json(capsys):
    code, out, _ = run(capsys, "retract", "--group", "GL2", "--d", "0,2")
    assert code == 0
    assert json.loads(out) == {
        "y": ["1", "2"], "levi": [1], "slopes": ["1", "1"]
    }


def test_retract_neg_inf(capsys):
    code, out, _ = run(capsys, "retract", "--group", "GL3", "--d=-inf,0,0")
    assert code == 0
    assert json.loads(out)["y"] == ["0", "0", "0"]


@pytest.mark.parametrize("spaced, joined", [
    ("retract --group GL3 --d -inf,0,0", "retract --group GL3 --d=-inf,0,0"),
    ("stratum --group GL3 --d -inf,-1,0", "stratum --group GL3 --d=-inf,-1,0"),
    ("dim --group GL2 --mu -1,-2", "dim --group GL2 --mu=-1,-2"),
    ("conditions --group GL2 --mu -1,-2 --closed",
     "conditions --group GL2 --mu=-1,-2 --closed"),
    ("codim --group GL2 --nu -1,-2 --mu 0,-2",
     "codim --group GL2 --nu=-1,-2 --mu 0,-2"),
    ("dg --group GL2 --nu -1/2,0", "dg --group GL2 --nu=-1/2,0"),
    ("defect --group GL2 --nu -1,0", "defect --group GL2 --nu=-1,0"),
    ("eval --group GL2 --a -1*pi^(0),1*pi^(1)",
     "eval --group GL2 --a=-1*pi^(0),1*pi^(1)"),
])
def test_dash_value_both_spellings(capsys, spaced, joined):
    # a point value beginning with '-' may follow its flag after a space
    code, out, err = run(capsys, *spaced.split())
    assert code == 0 and err == "" and out
    assert run(capsys, *joined.split()) == (code, out, err)


def test_no_slopes_outside_gln(capsys):
    code, out, _ = run(capsys, "retract", "--group", "B2", "--d", "0,1")
    assert code == 0
    assert "slopes" not in json.loads(out)


@pytest.mark.parametrize("n", range(2, 10))
def test_retract_on_gln_prints_slopes(capsys, n):
    # (1, 2, ..., n) pairs to zero with every simple root: its own image
    code, out, _ = run(capsys, "retract", "--group", f"GL{n}", "--d",
                       ",".join(str(i) for i in range(1, n + 1)))
    assert code == 0 and json.loads(out) == {
        "y": [str(i) for i in range(1, n + 1)],
        "levi": list(range(1, n)), "slopes": ["1"] * n}


def test_stratum(capsys):
    code, out, _ = run(capsys, "stratum", "--group", "GL2", "--d", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == ["1/2", "1"]
    assert payload["levi"] == [1]


def test_conditions(capsys):
    code, out, _ = run(capsys, "conditions", "--group", "GL2",
                       "--mu", "1/2,1")
    assert code == 0
    assert json.loads(out) == [
        {"i": 1, "rel": "<=", "bound": "1/2"},
        {"i": 2, "rel": "=", "bound": "1"},
    ]


def test_dim_and_codim(capsys):
    code, out, _ = run(capsys, "dim", "--group", "GL2", "--mu", "1,1")
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out, _ = run(capsys, "codim", "--group", "GL2",
                       "--nu", "1/2,1", "--mu", "1,1")
    assert code == 0 and json.loads(out) == {"codim": 1}
    code, out, _ = run(capsys, "codim", "--group", "GL2",
                       "--nu", "1/2,1", "--mu", "1,1", "--chai")
    assert code == 0 and json.loads(out) == {"codim": 1}


def test_newton_points(capsys):
    code, out, _ = run(capsys, "newton-points", "--group", "GL2",
                       "--mu", "1,1")
    assert code == 0
    pts = json.loads(out)
    assert [p["point"] for p in pts] == [["1/2", "1"], ["1", "1"]]


def test_newton_points_a8(capsys):
    # its box held 16,777,216 candidates, over the guard on one face
    code, out, err = run(capsys, "newton-points", "--group", "A8",
                         "--mu", "6,6,6,6,6,6,6,6")
    assert code == 0 and not err
    pts = json.loads(out)
    assert len(pts) == 4314 and pts[-1]["point"] == ["6"] * 8


def test_newton_points_dot(capsys):
    code, out, _ = run(capsys, "newton-points", "--group", "GL2",
                       "--mu", "1,1", "--dot")
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_defect(capsys):
    code, out, _ = run(capsys, "defect", "--group", "GL2", "--nu", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 1
    assert payload["d_G"] == "1/2"
    assert payload["pass"] is True


def test_dg(capsys):
    code, out, _ = run(capsys, "dg", "--group", "GL4",
                       "--nu", "1/4,1/2,3/4,1")
    assert code == 0 and json.loads(out) == {"d_G": "3/2"}


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--group", "GL2",
                       "--a", "1*pi^(-1),-1*pi^(-2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["d_c"] == ["-inf", "2"]
    assert payload["nu_a"] == ["1", "2"]


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--group", "GL3",
                       "--suite", "rnu", "--seed", "7", "--count", "100")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["pass"] and reports[0]["count"] == 100


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--group", "GL2",
                       "--count", "30")
    assert code == 0
    assert {r["suite"] for r in json.loads(out)} == {
        "rnu", "defect", "chars"}


def test_verify_reports_planted_failures(capsys, monkeypatch):
    # every suite's failure path: each report fails and carries a
    # Fraction and -inf, which the payload turns into JSON strings; text
    # output marks each suite FAIL with one line per failure, and exits 1
    from newtonstrata import affine, toruseval, verify

    def failing(datum, x):
        return {"value": Q(1, 2), "vals": (NEG_INF, Q(-3)), "pass": False}

    monkeypatch.setattr(toruseval, "check_thm_rnu", failing)
    monkeypatch.setattr(affine, "verify_defect_identity", lambda d, x: dict(
        failing(d, x), defect=0))
    monkeypatch.setattr(affine, "reflection_char_multiset_check", failing)
    g = build_group("GL2")
    reports = verify.run_suites(g, list(verify.SUITES), count=2)
    assert [(r["suite"], r["pass"], len(r["failures"])) for r in reports] \
        == [("rnu", False, 2), ("defect", False, 6), ("chars", False, 2)]
    for r in reports:
        for f in r["failures"]:
            assert f["report"]["value"] == "1/2"
            assert f["report"]["vals"] == ["-inf", "-3"]
    assert json.loads(json.dumps(reports)) == reports
    code, out, _ = run(capsys, "verify", "--group", "GL2", "--count", "2",
                       "--format", "text")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("  failure: ")] \
        == ["rnu: FAIL (2 cases, 2 failures)",
            "defect: FAIL (6 cases, 6 failures)",
            "chars: FAIL (2 cases, 2 failures)"]
    failures = [json.loads(line[len("  failure: "):]) for line in lines
                if line.startswith("  failure: ")]
    assert failures == [f for r in reports for f in r["failures"]]


def test_verify_deterministic(capsys):
    args = ("verify", "--group", "B2", "--suite", "rnu",
            "--seed", "5", "--count", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_text_format(capsys):
    code, out, _ = run(capsys, "retract", "--group", "GL2",
                       "--format", "text", "--d", "0,2")
    assert code == 0
    assert "y:" in out and "levi:" in out
    # a dict entry with a scalar value is one line; each dict of a list is
    # indented under it
    assert run(capsys, "dim", "--group", "GL2", "--mu", "1,2",
               "--format", "text") == (0, "dim: 1\n", "")
    code, out, _ = run(capsys, "conditions", "--group", "GL3", "--mu",
                       "1,2,3", "--format", "text")
    assert code == 0 and out.splitlines() == [
        "  i: 1", "  rel: <=", "  bound: 1",
        "  i: 2", "  rel: <=", "  bound: 2",
        "  i: 3", "  rel: =", "  bound: 3"]


def test_roundtrip_mu(capsys):
    _, out, _ = run(capsys, "retract", "--group", "GL2", "--d", "0,1")
    y = json.loads(out)["y"]
    code, out2, _ = run(capsys, "dim", "--group", "GL2", "--mu", ",".join(y))
    assert code == 0 and json.loads(out2) == {"dim": 0}


def test_bad_group_exit_2(capsys):
    for bad in ("Q9", "GL10", "Gext(A2;m=ex)", "Gext(A2;m=e)",
                "Gext(A2;m=-e)",
                # outside the grammar: a sign, a space, a non-ASCII digit or
                # an underscore in a number, or a space inside Gext(...)
                "GL+3", "GL 3", "GL\u0663", "A 2", "T+1", "GL1_0",
                "Gext( A2 )", "Gext(A2;m=+1,0)", "Gext(A2;m=1, 0)"):
        code, out, err = run(capsys, "describe", "--group", bad)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bad, message", [
    # a torus of rank 0, alone or in a product
    ("T0", "torus rank must be >= 1"),
    ("GL2*T0", "torus rank must be >= 1"),
    # a basis index m = +-e_k out of 1..rank
    ("Gext(A2;m=e3)", "basis index out of range in 'Gext(A2;m=e3)'"),
    ("Gext(A2;m=-e0)", "basis index out of range in 'Gext(A2;m=-e0)'"),
])
def test_parse_refusals_exit_2(capsys, bad, message):
    # in the grammar, refused by `_parse_factor`'s range checks
    code, out, err = run(capsys, "describe", "--group", bad)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


# A SCALAR is "-inf" or ["-"] INT ["/" INT] with a nonzero denominator,
# INT ASCII digits: an exponent, a decimal point, an underscore, a "+",
# a non-ASCII digit or a non-ASCII space is refused.
BAD_SCALARS = ("zzz", "x", "1/0", "1/00", "", "2/", "--1", "inf", "1e3",
               "1.5", "1_0", "+2", "\u0661", "\u00a01")


def test_bad_point_exit_2(capsys):
    for bad in BAD_SCALARS:
        code, out, err = run(capsys, "retract", "--group", "GL2",
                             f"--d={bad},0")
        assert code == 2 and out == "" and err.startswith("error: --d ")
        assert err.count("\n") == 1 and "bad rational" in err


def test_ascii_whitespace_around_a_scalar(capsys):
    spaced = run(capsys, "retract", "--group", "GL2", "--d", " 0 ,\t2 ")
    assert spaced == run(capsys, "retract", "--group", "GL2", "--d", "0,2")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["retract", "--group", "GL2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, needle", [
    # an enumeration box over its size guard
    (("newton-points", "--group", "A8", "--mu", "30,30,30,30,30,30,30,30"),
     "guard"),
    # points that are not Newton points
    (("newton-points", "--group", "GL3", "--mu", "0,5,1"), "--mu"),
    (("dim", "--group", "GL2", "--mu=-1/2,1"), "--mu"),
    (("dim", "--group", "GL2", "--mu", "1,1,1"), "--mu"),
    (("conditions", "--group", "GL2", "--mu", "1/3,1"), "--mu"),
    (("codim", "--group", "GL2", "--nu", "0,1", "--mu", "1/3,1"), "--nu"),
    (("codim", "--group", "GL2", "--nu", "1/2,1", "--mu", "1/3,1",
      "--chai"), "--mu"),
    # lifts that are not integral vectors of the right length
    (("defect", "--group", "GL3", "--nu", "0,0,1/2"), "--nu"),
    (("defect", "--group", "GL3", "--nu", "0,1"), "--nu"),
    # a zero denominator in a torus exponent
    (("eval", "--group", "GL2", "--a", "1*pi^(1/0),1*pi^(0)"), "denominator"),
    # a --nu of the wrong length, a negative --count
    (("dg", "--group", "GL2", "--nu", "1"), "--nu"),
    (("dg", "--group", "GL2", "--nu", "1,2,3"), "--nu"),
    (("verify", "--group", "GL2", "--count", "-3"), "--count"),
    # a --mu of the wrong length or with -inf, a torus point of the
    # wrong length: refused by the library, not only by the CLI
    (("dim", "--group", "GL3", "--mu", "1,2"), "--mu"),
    (("dim", "--group", "GL3", "--mu=-inf,1,1"), "--mu"),
    (("eval", "--group", "GL3", "--a", "1*pi^0,1*pi^1"), "wrong length"),
    # an unclosed parenthesis in a torus exponent
    (("eval", "--group", "GL2", "--a", "1*pi^(2,1*pi^(0)"), "1*pi^(2"),
])
def test_bad_input_exit_2(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("defect", "--group", "B2", "--nu", "1,25000"),
    ("defect", "--group", "GL3", "--nu", "0,0,100000"),
])
def test_alcove_guard_overrun_exit_2(capsys, argv):
    # a lift so long that alcove reduction passes its step guard: bad
    # input, not a failed self-check
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "guard" in err


def test_failed_certificate_exit_3(capsys, monkeypatch):
    # a solver with the sign of adj flipped: the projection moves d' down,
    # some c_j > 0 so d' <= y fails, and `retract` must raise rather than
    # answer
    pm_solver = RootDatum.pm_solver

    def negated(self, subset):
        idx, adj, den = pm_solver(self, subset)
        return idx, [[-a for a in row] for row in adj], den

    monkeypatch.setattr(RootDatum, "pm_solver", negated)
    with pytest.raises(RetractionError):
        retract(build_group("GL3"), (Q(1), Q(0), Q(0)))
    code, out, err = run(capsys, "retract", "--group", "GL3", "--d", "1,0,0")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_key_error_is_a_bug_not_bad_input(monkeypatch):
    # no input raises KeyError, so `main` must not report one as exit 2
    def broken(datum, args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_describe", broken)
    with pytest.raises(KeyError, match="lost"):
        main(["describe", "--group", "GL2"])


# The CLI contract as a property: every argv that argparse accepts gets
# exit 0 with JSON on stdout, or exit 2 with empty stdout and one `error:`
# line; never exit 3, and no exception escapes `main`.  Ranks, coordinates
# and --count are capped so that the 40 argvs of a subcommand take well
# under a second.  `--dot` and `--format text` are left out: not JSON.
GOOD_SPECS = ("GL1", "GL2", "GL3", "A2", "B2", "G2", "B2*T1", "T1")
BAD_SPECS = ("Q9", "GL0", "A0", "", "GL2*", "Gext(A2;m=ex)", "B2*")


def _newton_strings(spec):
    g = build_group(spec)
    mu = stratum_of(g, (2,) * g.n)
    return [",".join(fmt_point(p.point)) for p in newton_points_below(g, mu)]


RANK = {spec: build_group(spec).n for spec in GOOD_SPECS}
NEWTON = {spec: _newton_strings(spec) for spec in GOOD_SPECS}
COORD = st.sampled_from(
    ["0", "1", "-1", "2", "3", "-3", "1/2", "-2/3", "5/3", "-inf"])
BAD_SCALAR = st.sampled_from(BAD_SCALARS)


def _point(n, coord=COORD):
    """Comma-joined points: n coordinates, a wrong length, or n
    coordinates with a bad scalar among them."""
    right = st.lists(coord, min_size=n, max_size=n)
    wrong = st.sampled_from([n - 1, n + 1]).flatmap(
        lambda k: st.lists(coord, min_size=max(k, 0), max_size=max(k, 0)))
    bad = st.tuples(right, st.integers(0, max(n - 1, 0)), BAD_SCALAR).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
    return st.one_of(right, right, wrong, bad).map(",".join)


def _newton(spec):
    """A Newton point of the group, or any point: most are not one."""
    return st.one_of(st.sampled_from(NEWTON[spec]), _point(RANK[spec]))


def _lift(spec):
    """An integral lift, or any point: non-integral, -inf, bad scalars."""
    ints = st.sampled_from(["0", "1", "-1", "2", "-3"])
    return st.one_of(_point(RANK[spec], ints), _point(RANK[spec]))


def _torus_point(spec):
    mono = st.sampled_from(["1*pi^(0)", "-1*pi^(1)", "2*pi^(-1/2)",
                            "1*pi^(1/0)", "0*pi^(1)", "pi^2", "1"])
    n = RANK[spec]
    return st.sampled_from([n - 1, n, n, n + 1]).flatmap(
        lambda k: st.lists(mono, min_size=max(k, 1), max_size=max(k, 1))
    ).map(",".join)


def _flags(command, spec):
    """The flags of a subcommand, drawn for the group spec."""
    if command == "describe":
        return st.just([])
    if command in ("retract", "stratum"):
        return _point(RANK[spec]).map(lambda d: [f"--d={d}"])
    if command in ("conditions", "dim", "newton-points"):
        extra = ["--closed"] if command == "conditions" else []
        return st.tuples(_newton(spec), st.booleans()).map(
            lambda t: [f"--mu={t[0]}"] + extra[:t[1]])
    if command == "codim":
        return st.tuples(_newton(spec), _newton(spec), st.booleans()).map(
            lambda t: [f"--nu={t[0]}", f"--mu={t[1]}"] + ["--chai"][:t[2]])
    if command == "defect":
        return _lift(spec).map(lambda nu: [f"--nu={nu}"])
    if command == "dg":
        return _point(RANK[spec]).map(lambda nu: [f"--nu={nu}"])
    if command == "eval":
        return _torus_point(spec).map(lambda a: [f"--a={a}"])
    return st.tuples(st.sampled_from(["all", "rnu", "defect", "chars"]),
                     st.integers(0, 9), st.integers(-2, 3)).map(
        lambda t: ["--suite", t[0], f"--seed={t[1]}", f"--count={t[2]}"])


def _argv(command):
    good = st.sampled_from(GOOD_SPECS).flatmap(
        lambda spec: _flags(command, spec).map(
            lambda flags: [command, "--group", spec] + flags))
    # a bad spec, with the flags of a good group
    bad = st.tuples(st.sampled_from(BAD_SPECS), good).map(
        lambda t: t[1][:2] + [t[0]] + t[1][3:])
    return st.one_of(good, good, good, bad)


COMMANDS = ("describe", "retract", "stratum", "conditions", "dim", "codim",
            "newton-points", "defect", "dg", "eval", "verify")


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_contract(command):
    @settings(max_examples=40)
    @given(_argv(command))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), (argv, code, err)
        if code == 0:
            json.loads(out)
            assert err == ""
        else:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, err

    check()


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _readme_examples():
    """(argv, documented stdout or None) for each `newtonstrata ...` line of
    README.md.  A `# {...}` comment, trailing or on the next line, documents
    the output."""
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = []
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("newtonstrata "):
            continue
        command, _, comment = line.partition("#")
        comment = comment.strip()
        if not comment and after.startswith("# {"):
            comment = after[1:].strip()
        argv = shlex.split(command)[1:]
        examples.append((argv, comment if comment.startswith("{") else None))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, documented", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples(capsys, argv, documented):
    with open(ROOT / "perfbench" / "expected" / "cli_stdout.json") as fh:
        expected = json.load(fh)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected[" ".join(argv)]
    if documented is not None:
        assert out.strip() == documented
