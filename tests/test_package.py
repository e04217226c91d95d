"""The package surface and what a cold process loads.  Each check runs
in a child process, where no module the tests imported can hide one."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "newtonstrata").glob("*.py")
                 if path.stem != "__init__")


def child(code, *args):
    """The JSON that `code` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


SURFACE = """
import importlib, json, sys
import newtonstrata as pkg
facts = {"loaded_by_import": sorted(
    m for m in sys.modules if m.startswith("newtonstrata."))}
from newtonstrata import chamber
facts["submodule"] = chamber is sys.modules["newtonstrata.chamber"]
facts["not_home"] = [
    name for name in pkg.__all__
    if getattr(pkg, name) is not vars(importlib.import_module(
        "newtonstrata." + pkg._HOME[name]))[name]]
facts["defined_elsewhere"] = [
    name for name in pkg.__all__
    if getattr(getattr(pkg, name), "__module__", "").startswith("newtonstrata.")
    and getattr(pkg, name).__module__ != "newtonstrata." + pkg._HOME[name]]
facts["bound"] = [name for name in pkg.__all__ if name in vars(pkg)]
star = {}
exec("from newtonstrata import *", star)
facts["star"] = sorted(set(star) - {"__builtins__"})
facts["dir"] = dir(pkg)
try:
    pkg.no_such_name
    facts["unknown"] = None
except AttributeError as exc:
    facts["unknown"] = str(exc)
facts["all"] = pkg.__all__
print(json.dumps(facts))
"""


def test_package_resolves_names_on_first_use():
    facts = child(SURFACE)
    assert facts["loaded_by_import"] == []  # `import newtonstrata` alone
    assert facts["submodule"]
    assert facts["not_home"] == []
    assert facts["defined_elsewhere"] == []
    assert facts["bound"] == []  # read through, never cached
    assert facts["star"] == sorted(facts["all"])
    assert set(facts["all"]) <= set(facts["dir"])
    assert "no_such_name" in facts["unknown"]


LOADED = """
import io, json, sys
before = set(sys.modules)
import newtonstrata.cli
stdout, sys.stdout = sys.stdout, io.StringIO()
code = newtonstrata.cli.main(sys.argv[1:])
sys.stdout = stdout
new = set(sys.modules) - before
print(json.dumps({
    "code": code,
    "modules": sorted(m.split(".", 1)[1] for m in new
                      if m.startswith("newtonstrata.")),
    "dataclasses": "dataclasses" in new,
}))
"""

BASE = {"cli", "rationals", "dynkin", "exactlinalg", "rootdata"}
# one query per subcommand, and a retract and a stratum off GL_n (no
# slopes): the `newtonstrata.*` modules it loads
LOADS = [
    ("describe --group GL3", BASE),
    ("retract --group GL2 --d 0,2", BASE | {"chamber"}),
    ("retract --group B2 --d 0,2", BASE | {"chamber"}),
    ("stratum --group GL3 --d 0,1,2", BASE | {"chamber"}),
    ("stratum --group B2 --d 0,1", BASE | {"chamber"}),
    ("conditions --group GL2 --mu 1,1", BASE | {"chamber", "strata"}),
    ("dim --group GL2 --mu 1,1", BASE | {"chamber", "strata"}),
    ("codim --group GL2 --nu 1/2,1 --mu 1,1", BASE | {"chamber", "strata"}),
    ("dg --group B2 --nu 1,1", BASE | {"chamber", "strata"}),
    ("newton-points --group GL3 --mu 2,3,3", BASE | {"chamber"}),
    ("defect --group GL3 --nu 0,0,1", BASE | {"affine", "chamber", "strata"}),
    ("eval --group GL2 --a 1*pi^(-1),-1*pi^(-2)",
     BASE | {"chamber", "toruseval"}),
    ("verify --group GL2 --suite rnu --count 3",
     BASE | {"chamber", "toruseval", "verify"}),
    ("verify --group GL2 --suite defect", set(MODULES)),
]


@pytest.mark.parametrize("query, modules", LOADS,
                         ids=[query for query, _ in LOADS])
def test_a_cold_query_loads_only_what_it_runs(query, modules):
    facts = child(LOADED, *query.split())
    assert facts["code"] == 0
    assert facts["modules"] == sorted(modules)
    assert not facts["dataclasses"]


def test_every_subcommand_is_pinned():
    from newtonstrata.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {query.split()[0] for query, _ in LOADS} == set(sub.choices)
    assert len(MODULES) == 10
