"""newtonstrata benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload retract --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
With --trace 0 the run sets up, then runs fresh operations one at a
time in a closed loop (one client; input generation and checks are not
timed) for at least --seconds and MIN_OPS operations, in whole schedule
cycles, and prints the end-to-end metrics.  Times are scaled to a
nominal host speed (see hostclock.py); the raw figures are in the detail
line.  With --trace 1 it runs the traced prefix of the same operation
stream twice, traced and untraced, and prints the per-layer metrics.
Every output is checked outside the timed region; a failed check counts
as a failed op.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details
(stamp, sample counts, output digest).
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import layers
from hostclock import HostClock, timed_once
from stats import latency_summary
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "expected", "digests.json")
SPANS_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 1
MIN_OPS = 100
SETUP_REPEATS = 5  # set-ups per run whose median is setup_s
IMPORT_REPEATS = 5
HARD_LIMIT_S = 120  # stop a timed loop mid-cycle past this


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "newtonstrata", "__init__.py")):
        sys.exit("perfbench: ./src/newtonstrata not found;"
                 " run from the root of a newtonstrata checkout")
    sys.path.insert(0, SRC)


def pin_to_one_cpu():
    """Keep this process, and the children it starts, on the CPU it runs
    on now, so that the host-speed probes run where the ops run."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError):  # not Linux: run unpinned
        pass


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def stamp():
    from newtonstrata.rationals import Q

    git = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a checkout may not be
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git = sha.stdout.strip() if sha.returncode == 0 else None
        except OSError:
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "newtonstrata")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "q_backend": f"{Q.__module__}.{Q.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git,
        "src_sha256": src.hexdigest(),
    }


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload)


def attempt(clock, w, op):
    """Run one op under `clock`; returns its output, or None on error."""
    try:
        return clock.run(w.run, op)
    except Exception:  # a failing op is counted, never fatal
        return None


def checked(w, op, out):
    if out is None:
        return False
    try:
        return bool(w.check(op, out))
    except Exception:  # a check that raises is a failed check
        return False


def canon(w, op, out):
    return "error" if out is None else w.canon(op, out)


def child_setup(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_run(name, seed, seconds):
    w = WORKLOADS[name](ROOT)
    setup_s, setup_raw = timed_once(w.setup, seed)

    rng = random.Random(f"{name}:{seed}")
    clock = HostClock()
    digest = hashlib.sha256()
    share = {}  # op label -> normalized seconds
    failed = cycles = 0
    begin = time.perf_counter()
    while True:
        for op in w.cycle(rng):
            clock.probe_if_due()
            out = attempt(clock, w, op)
            label = w.label(op)
            share[label] = share.get(label, 0.0) + clock.last
            failed += not checked(w, op, out)
            if cycles < w.trace_cycles:
                digest.update(canon(w, op, out).encode() + b"\n")
        cycles += 1
        elapsed = time.perf_counter() - begin
        if (elapsed >= seconds and clock.count >= MIN_OPS
                and cycles >= w.trace_cycles) or elapsed > HARD_LIMIT_S:
            break

    if name == "cli":
        setups = w.warmup_s
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_s] + [child_setup(name, seed)
                              for _ in range(SETUP_REPEATS - 1)]
    ops = clock.count
    lat, lat_raw = latency_summary(clock.normalized), latency_summary(clock.raw)
    metrics = {
        "throughput_ops_s": ((ops - failed) / clock.normalized_total, "ops/s"),
        "latency_p50_ms": (lat["p50"] * 1e3, "ms"),
        "latency_p90_ms": (lat["p90"] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }
    detail = {
        "ops": ops, "ops_failed": failed, "cycles": cycles,
        "latency_samples": lat["n"], "beyond_p90": lat["beyond_p90"],
        "probe_median_ms": clock.probe_median() * 1e3,
        "raw": {"throughput_ops_s": (ops - failed) / clock.raw_total,
                "latency_p50_ms": lat_raw["p50"] * 1e3,
                "latency_p90_ms": lat_raw["p90"] * 1e3,
                "setup_s": setup_raw},
        "setup_samples_s": setups,
        "time_share": {k: v / clock.normalized_total
                       for k, v in sorted(share.items())},
        "digest": digest.hexdigest(),
    }
    return ops, failed, metrics, detail, True


def run_pass(w, ops, tracer=None):
    """Run `ops` once; returns (summed normalized op seconds, failures,
    digest).  With a tracer, each op is one traced operation; the host
    probes run outside it."""
    clock = HostClock()
    digest = hashlib.sha256()
    failed = 0
    for i, op in enumerate(ops):
        clock.probe_if_due()
        if tracer is None:
            out = attempt(clock, w, op)
        else:
            with tracer.op(i):
                out = attempt(clock, w, op)
        failed += not checked(w, op, out)
        digest.update(canon(w, op, out).encode() + b"\n")
    return clock.normalized_total, failed, digest.hexdigest()


def import_seconds():
    """Median time of a cold `import newtonstrata.cli` in a fresh
    interpreter."""
    code = ("import time; t = time.perf_counter(); import newtonstrata.cli;"
            " print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def traced_run(name, seed):
    w = WORKLOADS[name](ROOT)
    w.in_process = True  # only the cli workload reads this
    w.setup(seed)
    rng = random.Random(f"{name}:{seed}")
    ops = [op for _ in range(w.trace_cycles) for op in w.cycle(rng)]

    tracer = layers.make_tracer()
    tracer.install()
    try:
        traced_s, traced_failed, traced_digest = run_pass(w, ops, tracer)
    finally:
        tracer.uninstall()
    plain_s, plain_failed, plain_digest = run_pass(w, ops)

    values, absent = layers.layer_metrics(tracer)
    values["cli.import_s"] = import_seconds()
    values["trace.overhead_ratio"] = traced_s / plain_s
    units = {m: u for m, u, _b in layers.PER_LAYER}
    metrics = {m: (values[m], units[m]) for m, _u, _b in layers.PER_LAYER
               if m in values}

    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans-{name}.bin")
    tracer.log.save(spans_path)
    self_error = tracer.log.op_self_error()
    detail = {
        "ops": len(ops), "ops_failed": traced_failed + plain_failed,
        "traced_s": traced_s, "untraced_s": plain_s,
        "spans": len(tracer.log), "op_self_time_error_s": self_error,
        "absent": absent, "digest": traced_digest,
        "untraced_digest": plain_digest,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    ok_extra = traced_digest == plain_digest and self_error < 1e-6
    return 2 * len(ops), traced_failed + plain_failed, metrics, detail, ok_extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the set-up time (internal)")
    args = ap.parse_args(argv)
    require_sources()
    pin_to_one_cpu()

    if args.setup_only:
        setup_s, _raw = timed_once(WORKLOADS[args.workload](ROOT).setup,
                                   args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        attempted, failed, metrics, detail, ok_extra = traced_run(
            args.workload, args.seed)
    else:
        attempted, failed, metrics, detail, ok_extra = timed_run(
            args.workload, args.seed, args.seconds)
    want = expected_digest(args.workload, args.seed)
    if want is not None:
        detail["digest_expected"] = want
        ok_extra = ok_extra and detail["digest"] == want
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "stamp": stamp(), **detail}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and ok_extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
