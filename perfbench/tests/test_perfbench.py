"""Tests of the benchmark harness itself (not of newtonstrata).

    python3 -m pytest perfbench/tests
"""

import fractions
import json
import os
import random
import subprocess
import sys

import pytest

import hostclock
import layers
from conftest import BENCH, ROOT
from stats import latency_summary
from tracer import SpanLog
from workloads import WORKLOADS


def test_latency_summary_counts_the_tail():
    s = latency_summary([float(x) for x in range(100, 0, -1)])
    assert s == {"p50": 50.5, "p90": 90.0, "n": 100, "beyond_p90": 10}
    s = latency_summary([3.0, 1.0, 2.0])
    assert s == {"p50": 2.0, "p90": 3.0, "n": 3, "beyond_p90": 0}
    with pytest.raises(ValueError):
        latency_summary([])


def test_host_clock_scales_out_a_slow_spell():
    nominal = hostclock.NOMINAL_PROBE_S
    speed = [1.0]
    clock = hostclock.HostClock(probe_fn=lambda: nominal * speed[0])
    clock.probe_now()
    clock.record(0.010)
    speed[0] = 2.0  # the host slows to half speed, and so does the op
    for _ in range(hostclock.RECENT_PROBES):
        clock.probe_now()
    clock.record(0.020)
    assert list(clock.normalized) == pytest.approx([0.010, 0.010])
    assert clock.last == pytest.approx(0.010)
    assert clock.normalized_total == pytest.approx(0.020)
    assert clock.raw_total == pytest.approx(0.030)
    assert clock.count == 2


def test_host_clock_memory_stops_growing():
    clock = hostclock.HostClock(probe_fn=lambda: hostclock.NOMINAL_PROBE_S)
    clock.probe_now()
    for _ in range(hostclock.KEEP + 10):
        clock.record(0.001)
    assert len(clock.raw) == len(clock.normalized) == hostclock.KEEP
    assert clock.count == hostclock.KEEP + 10


def test_probe_ignores_a_patched_fraction(monkeypatch):
    calls = []
    add = fractions.Fraction.__add__
    monkeypatch.setattr(fractions.Fraction, "__add__",
                        lambda a, b: calls.append(1) or add(a, b))
    assert hostclock.probe() > 0 and calls == []


def hand_built_log():
    log = SpanLog()
    root = log.add("bench.op", -1, 0, 0.0, 10.0)
    a = log.add("chamber.retract", root, 0, 1.0, 4.0)
    log.add("rootdata.RootDatum.p_M", a, 0, 2.0, 3.0)
    b = log.add("rootdata.RootDatum.p_M", root, 0, 5.0, 9.0)
    log.add("rootdata.RootDatum.p_M_with_coeffs", b, 0, 6.0, 8.5)
    return log


def test_self_time_on_a_hand_built_tree():
    log = hand_built_log()
    assert log.self_times() == [3.0, 2.0, 1.0, 1.5, 2.5]
    agg = log.aggregate()
    assert agg["calls"]["rootdata.RootDatum.p_M"] == 2
    assert agg["self_s"]["rootdata.RootDatum.p_M"] == 2.5
    assert agg["pairs"][("chamber.retract", "bench.op")] == 1
    assert log.op_self_error() == 0.0
    # p_M family entries below chamber.retract: one; below the root: two
    assert log.count_within(layers.P_M, "chamber.retract") == 1
    assert log.count_within(layers.P_M, "bench.op") == 2


def test_span_log_round_trip(tmp_path):
    log = hand_built_log()
    path = tmp_path / "spans.bin"
    log.save(path)
    back = SpanLog.load(path)
    assert back.names == log.names
    for col in ("name", "parent", "op", "start", "end"):
        assert getattr(back, col) == getattr(log, col)


def bindings():
    """Every module attribute of newtonstrata.* and every attribute of
    the traced classes, by identity."""
    import newtonstrata.cli  # noqa: F401  (imports every layer)

    out = {}
    owners = [m for name, m in sys.modules.items()
              if name == "newtonstrata" or name.startswith("newtonstrata.")]
    from newtonstrata.rootdata import RootDatum
    from newtonstrata.toruseval import LaurentPoly

    owners += [RootDatum, LaurentPoly, fractions.Fraction]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            out[owner, attr] = value
    return out


def test_uninstalled_tracer_restores_every_binding():
    from newtonstrata import affine, chamber, strata, toruseval
    from newtonstrata.rootdata import RootDatum

    before = bindings()
    tracer = layers.make_tracer()
    tracer.install()
    try:
        # aliases made by `from ... import` share the one wrapper
        assert chamber.retract is not before[chamber, "retract"]
        assert toruseval.retract is chamber.retract
        assert strata.stratum_of is chamber.stratum_of
        assert affine.d_G is strata.d_G
        assert vars(RootDatum)["p_M"] is not before[RootDatum, "p_M"]
        assert fractions.Fraction.__add__ is not before[
            fractions.Fraction, "__add__"]
        assert len(tracer.bindings()) > 100
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_a_vanished_function_is_reported_absent(monkeypatch):
    from newtonstrata import chamber, rootdata

    monkeypatch.delattr(chamber, "retract_exhaustive")
    tracer = layers.make_tracer()
    tracer.install()
    try:
        g = rootdata.build_group("GL3")
        with tracer.op(0):
            chamber.retract(g, (0, 2, 1))
    finally:
        tracer.uninstall()
    values, absent = layers.layer_metrics(tracer)
    assert "chamber.retract_fallbacks" in absent
    assert "chamber.retract_fallbacks" not in values
    assert values["chamber.retract.calls"] == 1
    assert values["rationals.q_ops"] > 0


def test_a_seed_changes_the_inputs():
    for name, cls in WORKLOADS.items():
        w = cls(ROOT)
        if name == "cli":
            one = w.cycle(random.Random(1))
            assert one == w.cycle(random.Random(1))
            assert one != w.cycle(random.Random(2))
            continue
        w.import_library()
        w.groups = {s: w.rootdata.build_group(s) for s in w.specs}
        w.after_build()
        canon = [repr(w.cycle(random.Random(seed))) for seed in (1, 1, 2)]
        assert canon[0] == canon[1] != canon[2], name


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


COUNTS = ("calls", "q_ops", "elements", "alcove_word_len", "npb_points",
          "retract_fallbacks")


@pytest.fixture(scope="module")
def retract_runs():
    return {
        "trace_a": bench("--workload", "retract", "--seed", "3", "--trace", "1"),
        "trace_b": bench("--workload", "retract", "--seed", "3", "--trace", "1"),
        "trace_other": bench("--workload", "retract", "--seed", "4",
                             "--trace", "1"),
        "timed": bench("--workload", "retract", "--seed", "3", "--trace", "0",
                       "--seconds", "0.5"),
        "timed_other": bench("--workload", "retract", "--seed", "4",
                             "--trace", "0", "--seconds", "0.5"),
    }


def test_traced_and_untraced_outputs_agree(retract_runs):
    detail, result = retract_runs["trace_a"]
    assert result["correct"] and result["failed"] == 0
    assert detail["digest"] == detail["untraced_digest"]
    assert detail["digest"] == retract_runs["timed"][0]["digest"]
    assert detail["op_self_time_error_s"] < 1e-6
    assert detail["absent"] == []


def test_exact_counts_repeat_for_a_seed(retract_runs):
    a = retract_runs["trace_a"][1]["metrics"]
    b = retract_runs["trace_b"][1]["metrics"]
    counts = [m for m in a if m.rsplit(".", 1)[-1] in COUNTS]
    assert "rationals.q_ops" in counts and "rootdata.p_M.calls" in counts
    assert {m: a[m] for m in counts} == {m: b[m] for m in counts}
    assert a["chamber.retract_fallbacks"]["value"] == 0


def test_another_seed_keeps_the_metric_names(retract_runs):
    for mode in ("trace", "timed"):
        a_detail, a = retract_runs[f"{mode}_a" if mode == "trace" else mode]
        b_detail, b = retract_runs[f"{mode}_other"]
        assert a_detail["digest"] != b_detail["digest"]
        assert a["metrics"].keys() == b["metrics"].keys()


def test_benchmark_json_lists_what_the_runs_report(retract_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    timed = retract_runs["timed"][1]["metrics"]
    assert {k: v["unit"] for k, v in timed.items()} == e2e
    traced = retract_runs["trace_a"][1]["metrics"]
    assert {k: v["unit"] for k, v in traced.items()} == {
        n: u for n, u, _b in layers.PER_LAYER}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
