"""Command-line front end: parse group specs and points, dispatch, emit
JSON (default), text, or DOT deterministically.

Each `cmd_*` handler imports the modules it calls, so a cold process
loads only what its subcommand runs (`describe` needs `rootdata` alone).
"""

import argparse
import json
import re
import sys

from .rationals import Q, fmt_point, fmt_scalar, parse_point
from .rootdata import OrbitGuardError, build_group

_GLN = re.compile(r"^GL(\d+)$")


def _is_gln(datum):
    return bool(_GLN.match(datum.label))


def coords_to_slopes(coords):
    """The GL_n slopes of a point in omega-coordinates: the differences of
    its successive coordinates, the first taken from 0."""
    coords = [Q(0)] + [Q(c) for c in coords]
    return tuple(b - a for a, b in zip(coords, coords[1:]))


def _slopes(point):
    return [fmt_scalar(s) for s in coords_to_slopes(point)]


def _emit(args, payload):
    if args.format == "text":
        for line in _text_lines(payload, ""):
            print(line)
    else:
        print(json.dumps(payload))


def _text_lines(obj, prefix):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"


def _arg(read, datum, value, flag):
    """read(datum, x) for the point x that a flag's value spells.  A
    ValueError from the parse or the read is raised again with the flag
    and its value in front, so every point error names its flag."""
    try:
        return read(datum, parse_point(value))
    except ValueError as e:
        raise ValueError(f"{flag} {value}: {e}") from None


def cmd_describe(datum, args):
    payload = {
        "group": datum.label,
        "n": datum.n,
        "l": datum.l,
        "factors": [
            {"type": f.letter, "rank": f.rank, "simple_roots":
             [j + 1 for j in f.indices]}
            for f in datum.factors
        ],
        "component_group": list(datum.component_group()),
    }
    _emit(args, payload)
    return 0


def cmd_retract(datum, args):
    from . import chamber
    y, face = _arg(chamber.retract, datum, args.d, "--d")
    payload = {"y": fmt_point(y), "levi": sorted(j + 1 for j in face)}
    if _is_gln(datum):
        payload["slopes"] = _slopes(y)
    _emit(args, payload)
    return 0


def cmd_stratum(datum, args):
    from . import chamber
    np = _arg(chamber.stratum_of, datum, args.d, "--d")
    payload = np.to_json()
    if _is_gln(datum):
        payload["slopes"] = _slopes(np.point)
    _emit(args, payload)
    return 0


def cmd_conditions(datum, args):
    from . import chamber, strata
    mu = _arg(chamber.newton_point, datum, args.mu, "--mu")
    conds = strata.stratum_conditions(datum, mu, closed=args.closed)
    _emit(args, conds.to_json())
    return 0


def cmd_dim(datum, args):
    from . import chamber, strata
    mu = _arg(chamber.newton_point, datum, args.mu, "--mu")
    _emit(args, {"dim": strata.dim_leq(datum, mu)})
    return 0


def cmd_codim(datum, args):
    from . import chamber, strata
    nu = _arg(chamber.newton_point, datum, args.nu, "--nu")
    mu = _arg(chamber.newton_point, datum, args.mu, "--mu")
    if args.chai:
        # Chai's form needs an integral mu: name the flag when it is not
        _arg(lambda d, x: d.point(x, integral=True), datum, args.mu, "--mu")
        c = strata.codim_chai(datum, nu, mu)
    else:
        c = strata.codim(datum, nu, mu)
    _emit(args, {"codim": c})
    return 0


def cmd_newton_points(datum, args):
    from . import chamber
    points = _arg(chamber.newton_points_below, datum, args.mu, "--mu")
    if args.dot:
        print(chamber.hasse_dot(datum, points))
        return 0
    _emit(args, [np.to_json() for np in points])
    return 0


def cmd_defect(datum, args):
    from . import affine
    rep = _arg(affine.verify_defect_identity, datum, args.nu, "--nu")
    payload = {
        "nu": rep["nu"],
        "w_word": rep["w_word"],
        "defect": rep["defect"],
        "d_G": fmt_scalar(rep["d_G"]),
        "pass": rep["pass"],
    }
    _emit(args, payload)
    return 0 if rep["pass"] else 1


def cmd_dg(datum, args):
    from . import strata
    # d_G is defined for every finite point, not only for Newton points
    _emit(args, {"d_G": fmt_scalar(_arg(strata.d_G, datum, args.nu, "--nu"))})
    return 0


def cmd_eval(datum, args):
    from . import toruseval
    a = toruseval.parse_torus_point(args.a)
    values, d_c = toruseval.eval_c(datum, a)
    payload = {
        "c": [v.to_json() for v in values],
        "d_c": fmt_point(d_c),
        "nu_a": fmt_point(toruseval.nu_a(datum, a)),
    }
    _emit(args, payload)
    return 0


def cmd_verify(datum, args):
    from . import verify
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(datum, names, seed=args.seed, count=args.count)
    ok = all(r["pass"] for r in reports)
    if args.format == "json":
        print(json.dumps(reports))
    else:
        for r in reports:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{r['suite']}: {status} ({r['count']} cases,"
                  f" {len(r['failures'])} failures)")
            for f in r["failures"]:
                print(f"  failure: {json.dumps(f)}")
    return 0 if ok else 1


def build_parser():
    top = argparse.ArgumentParser(
        prog="newtonstrata",
        description="Newton stratification of the adjoint quotient:"
        " retraction, strata, dimensions, defect, torus evaluation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        p.add_argument("--group", required=True,
                       help='group spec, e.g. "GL3", "B2*T1", "Gext(E6)"')
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
        return p

    add("describe", cmd_describe)
    add("retract", cmd_retract, **{"--d": {"required": True}})
    add("stratum", cmd_stratum, **{"--d": {"required": True}})
    add("conditions", cmd_conditions, **{
        "--mu": {"required": True},
        "--closed": {"action": "store_true"},
    })
    add("dim", cmd_dim, **{"--mu": {"required": True}})
    add("codim", cmd_codim, **{
        "--nu": {"required": True},
        "--mu": {"required": True},
        "--chai": {"action": "store_true"},
    })
    add("newton-points", cmd_newton_points, **{
        "--mu": {"required": True},
        "--dot": {"action": "store_true"},
    })
    add("defect", cmd_defect, **{"--nu": {"required": True}})
    add("dg", cmd_dg, **{"--nu": {"required": True}})
    add("eval", cmd_eval, **{"--a": {"required": True}})
    add("verify", cmd_verify, **{
        "--suite": {"choices": ("all", "rnu", "defect", "chars"),
                    "default": "all"},
        "--seed": {"type": int, "default": 0},
        "--count": {"type": int, "default": 1000},
    })
    return top


# flags whose values may begin with '-' (`--d -inf,0,0`, `--a -1*pi^(0)`)
_POINT_FLAGS = ("--d", "--mu", "--nu", "--a")


def _join_point_values(argv):
    """Rewrite `FLAG VALUE` as `FLAG=VALUE` for a point flag whose value
    begins with a single '-', which argparse would read as an option."""
    out = []
    for tok in argv:
        if (out and out[-1] in _POINT_FLAGS and tok.startswith("-")
                and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(
        _join_point_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(build_group(args.group), args)
    except (ValueError, OrbitGuardError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:  # a failed self-check: a bug, not bad input
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
