"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are trusted.  It writes
expected/cli_stdout.json (stdout of every CLI query, each run as a cold
process) and expected/digests.json (per workload, the digest of the
canonical outputs of the traced prefix for the default seed).  A later
commit must reproduce both exactly: the library's outputs are exact.
"""

import json
import random
import sys

import run
from workloads import CLI_EXPECTED, QUERIES, WORKLOADS, Cli, query_key


def record_cli():
    cli = Cli(run.ROOT)
    stdout = {}
    for i, (argv, documented) in enumerate(QUERIES):
        code, out = cli.run(i)
        if code != 0 or (documented is not None and out.strip() != documented):
            sys.exit(f"record: query {argv} gave exit code {code}: {out!r}")
        stdout[query_key(argv)] = out
    with open(CLI_EXPECTED, "w") as fh:
        json.dump(stdout, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_digests():
    digests = {}
    for name, cls in WORKLOADS.items():
        w = cls(run.ROOT)
        w.setup(run.DEFAULT_SEED)
        rng = random.Random(f"{name}:{run.DEFAULT_SEED}")
        ops = [op for _ in range(w.trace_cycles) for op in w.cycle(rng)]
        _s, failed, digest = run.run_pass(w, ops)
        if failed:
            sys.exit(f"record: {failed} failed ops in workload {name}")
        digests[name] = digest
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    run.require_sources()
    record_cli()
    record_digests()
