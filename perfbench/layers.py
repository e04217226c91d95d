"""What the traced run reports per layer, derived from a `Tracer`'s spans.

The layers are the modules of `newtonstrata`.  A span is named
`<layer>.<function>` or `<layer>.<Class>.<method>`; the span `bench.op`
is the benchmark's own root span around each operation.

Calls are counted at a boundary: `<layer>.calls` counts calls into the
layer from another layer (or from the benchmark), and a function metric
`<layer>.<f>.calls` counts calls into that function (or function family)
from outside it.  `self_s` is span time minus the time covered by child
spans, summed over the traced operations.
"""

from tracer import Tracer

PACKAGE = "newtonstrata"
LAYERS = ("rationals", "exactlinalg", "dynkin", "rootdata", "chamber",
          "strata", "affine", "toruseval", "verify", "cli")
CLASSES = {"rootdata": ("RootDatum",), "toruseval": ("LaurentPoly",)}
SCALAR = "newtonstrata.rationals.Q"

HOOKS = {
    "rootdata.RootDatum.weyl_orbit": ("rootdata.weyl_orbit.elements", len),
    "affine.alcove_reduce": ("affine.alcove_word_len", lambda r: len(r[1])),
    "chamber.newton_points_below": ("chamber.npb_points", len),
}

P_M = ("rootdata.RootDatum.p_M", "rootdata.RootDatum.p_M_with_coeffs")
LAURENT_OPS = tuple(
    f"toruseval.LaurentPoly.{m}"
    for m in ("__add__", "__sub__", "__mul__", "__neg__", "power", "invert")
)
NPB = "chamber.newton_points_below"

# metric -> (statistic, span family); the family is one or more span names
# treated as one boundary.
FUNCTION_METRICS = {
    "rootdata.root_pairing.calls": ("calls", ("rootdata.RootDatum.root_pairing",)),
    "rootdata.p_M.calls": ("calls", P_M),
    "rootdata.p_M.self_s": ("self_s", P_M),
    "rootdata.central_part.calls": ("calls", ("rootdata.RootDatum.central_part",)),
    "rootdata.weyl_orbit.self_s": ("self_s", ("rootdata.RootDatum.weyl_orbit",)),
    "rootdata.levi.self_s": ("self_s", ("rootdata.RootDatum.levi",)),
    "rootdata.build_group.self_s": ("self_s", ("rootdata.build_group",)),
    "exactlinalg.inverse.calls": ("calls", ("exactlinalg.inverse",)),
    "chamber.retract.calls": ("calls", ("chamber.retract",)),
    "chamber.retract.self_s": ("self_s", ("chamber.retract",)),
    "chamber.newton_points_below.self_s": ("self_s", (NPB,)),
    "chamber.hasse.self_s": ("self_s", ("chamber.hasse",)),
    "strata.d_levi_check.self_s": ("self_s", ("strata.d_levi_check",)),
    "toruseval.eval_c.self_s": ("self_s", ("toruseval.eval_c",)),
    "toruseval.check_thm_rnu.self_s": ("self_s", ("toruseval.check_thm_rnu",)),
    "toruseval.laurent_ops": ("calls", LAURENT_OPS),
    "affine.alcove_reduce.self_s": ("self_s", ("affine.alcove_reduce",)),
    "affine.section_s.calls": ("calls", ("affine.section_s",)),
    "affine.stabilizes_base_alcove.self_s": ("self_s", ("affine.stabilizes_base_alcove",)),
    "affine.reflection_char_multiset_check.self_s": (
        "self_s", ("affine.reflection_char_multiset_check",)),
    "cli.main.self_s": ("self_s", ("cli.main",)),
}

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.{stat}", unit, "lower")
     for layer in LAYERS
     for stat, unit in (("self_s", "s"), ("calls", "count"))]
    + [("rationals.q_ops", "count", "lower")]
    + [(name, "s" if stat == "self_s" else "count", "lower")
       for name, (stat, _fam) in FUNCTION_METRICS.items()]
    + [
        ("rootdata.weyl_orbit.elements", "count", "lower"),
        ("affine.alcove_word_len", "count", "lower"),
        ("chamber.npb_points", "count", "higher"),
        ("chamber.npb_yield", "points/call", "higher"),
        ("chamber.retract_fallbacks", "count", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def make_tracer():
    return Tracer(PACKAGE, LAYERS, CLASSES, HOOKS, SCALAR)


def _family_calls(pairs, family):
    fam = set(family)
    return sum(v for (name, parent), v in pairs.items()
               if name in fam and parent not in fam)


def layer_metrics(tracer):
    """Every per-layer metric the spans and counters can give.

    Returns (values, absent): a metric whose layer, functions or counter
    no longer exist in the traced code is listed in `absent` instead of
    being reported.  `cli.import_s` and `trace.overhead_ratio` are
    measured by the caller.
    """
    agg = tracer.log.aggregate()
    present = tracer.present
    values = {}
    absent = []

    def layer_of(span):
        return span.split(".", 1)[0] if span else None

    for layer in LAYERS:
        if layer not in present:
            absent += [f"{layer}.self_s", f"{layer}.calls"]
            continue
        values[f"{layer}.self_s"] = sum(
            (v for k, v in agg["self_s"].items() if layer_of(k) == layer), 0.0)
        values[f"{layer}.calls"] = sum(
            v for (name, parent), v in agg["pairs"].items()
            if layer_of(name) == layer and layer_of(parent) != layer)

    if "q_ops" in present:
        values["rationals.q_ops"] = tracer.counts["q_ops"]
    else:
        absent.append("rationals.q_ops")

    for metric, (stat, family) in FUNCTION_METRICS.items():
        if not any(span in present for span in family):
            absent.append(metric)
        elif stat == "calls":
            values[metric] = _family_calls(agg["pairs"], family)
        else:
            values[metric] = sum(agg["self_s"].get(span, 0.0) for span in family)

    for span, (counter, _fn) in HOOKS.items():
        if span in present:
            values[counter] = tracer.counts[counter]
        else:
            absent.append(counter)

    if NPB in present and any(span in present for span in P_M):
        projections = tracer.log.count_within(P_M, NPB)
        values["chamber.npb_yield"] = (
            values["chamber.npb_points"] / projections if projections else 0.0)
    else:
        absent.append("chamber.npb_yield")

    if "chamber.retract_exhaustive" in present:
        values["chamber.retract_fallbacks"] = agg["pairs"].get(
            ("chamber.retract_exhaustive", "chamber.retract"), 0)
    else:
        absent.append("chamber.retract_fallbacks")
    return values, absent
