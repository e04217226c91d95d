"""Checks on the library source itself."""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "newtonstrata"


def test_no_assert_in_src():
    # `python -O` strips asserts: a load-bearing check must raise
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


CACHES = {"cache", "lru_cache"}


def _cache_decorators(tree):
    """Line of each `cache` or `lru_cache` decorator, bare, called or read
    off a module (`functools.cache`)."""
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "attr", getattr(target, "id", None))
            if name in CACHES:
                yield dec.lineno


def test_cache_decorators_are_seen():
    tree = ast.parse("@functools.cache\ndef f(): pass\n"
                     "@lru_cache(maxsize=None)\ndef g(): pass\n"
                     "@cache\ndef h(): pass\n"
                     "class C:\n    @cached_property\n    def k(self): pass\n")
    assert list(_cache_decorators(tree)) == [1, 3, 5]


def test_no_function_cache_in_src():
    # `RootDatum.memo` is the one cache: a process-wide function cache
    # outlives the datum it was built for (a per-object `cached_property`
    # dies with its object)
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _cache_decorators(ast.parse(path.read_text()))]
    assert found == []


# Imported names that their module never reads, each with the reason it
# stays.
UNREAD_IMPORTS = {
    "strata.stratum_of": "re-exported: perfbench/tests/test_perfbench.py"
    " reads it as `strata.stratum_of`",
}


def test_every_imported_name_is_read():
    # the stdlib stand-in for a linter's unused-import rule, over src/
    # and tests/
    found = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads:
                        found.append(f"{path.stem}.{name}")
    assert sorted(found) == sorted(UNREAD_IMPORTS)


# Public names that no module in src/ calls and that `__all__` does not
# export, each with the reason it stays in the library.
KEPT = {
    "chamber.retract_exhaustive": "perfbench reads its span"
    " (layers.py, retract_fallbacks) and test_perfbench deletes it",
    "chamber.finite_ize": "the d -> d' map of the retraction; perfbench's"
    " retract check calls it (workloads.py Retract.check), and"
    " test_chamber.py checks it against the oracle `finite_ize`",
    "rationals.qfloor": "the floor of a `Fraction`; perfbench's poset"
    " workload sizes its boxes with it (workloads.py Poset.box), and the"
    " test oracles floor with it",
    "rootdata.RootDatum.weyl_orbit": "perfbench hooks its span"
    " (layers.py HOOKS, weyl_orbit.elements)",
    "strata.d_levi_check": "the poset workload calls it"
    " (workloads.py Poset.run); acceptance criterion 8",
    "affine.chi": "the paper's character chi_i; the acceptance gate"
    " checks it",
    "affine.defect": "the paper's defect; acceptance criterion 5 checks it",
    "affine.alcove_reduce": "perfbench hooks its span (layers.py HOOKS,"
    " alcove_word_len); no query runs it, it is the plain reference walk"
    " the tests compare `section_s` with, and it moves to the test oracles"
    " once those metrics are redefined",
    "strata.StratumConditions.accepts": "membership in a stratum, the"
    " paper's condition system; acceptance criterion 4 checks it",
    "rootdata.RootDatum.leq": "the partial order on points; the library"
    " reads it through `leq_scaled`, perfbench's checks call it"
    " (workloads.py) and acceptance criterion 2 checks it",
    "rootdata.RootDatum.is_dominant": "dominance of a point; perfbench's"
    " checks call it (workloads.py) and acceptance criterion 2 checks it",
    "rootdata.RootDatum.levi": "the Levi sub-datum of a face; perfbench"
    " hooks its span (layers.py, rootdata.levi.self_s) and the oracle"
    " `d_levi` builds it for acceptance criterion 8; it moves to the test"
    " oracles once that metric is retired",
}


# Every raise of a self-check error in src/, keyed by (module, function,
# message with each formatted field as "..."): the test that reaches it,
# as "file::test[id]", or "unreachable: " and the argument.  A key shared
# by several sites maps to a tuple, one entry per site in source order.
# `BROKEN_CERTIFICATES` below breaks a certificate of each module under
# `python -O`; a site that is no certificate says why after its test.
GUARD = ", a guard: it bounds the work and certifies no result"
RAISES = {
    ("affine", "_build_affine_tables", "highest root marks are not integers"):
        "test_affine.py::test_affine_tables_theta_check_raises",
    ("affine", "_build_affine_tables",
     "affine Cartan matrix has a diagonal entry != 2"):
        "test_affine.py::test_affine_cartan_diagonal_check_raises",
    ("affine", "_weyl_element", "rebuilt Weyl element misses the image"):
        "test_affine.py::test_weyl_element_certifies_its_rows",
    ("affine", "alcove_reduce", "sample point hit an affine wall"):
        "test_affine.py::test_alcove_reduce_refuses_a_sample_point_on_a_wall",
    ("affine", "alcove_reduce", "alcove reduction exceeds guard ..."):
        "test_affine.py::test_alcove_guard_boundary_gl2" + GUARD,
    ("affine", "alcove_reduce", "descent failed: not a Weyl group element"):
        "test_affine.py::test_alcove_reduce_checks_the_descent_end",
    ("affine", "section_s", "alcove reduction exceeds guard ..."):
        "test_affine.py::test_section_guard_boundary_gl2" + GUARD,
    ("affine", "section_s",
     "two integral vertices of the base alcove in the class of nu"):
        "test_affine.py::test_section_vertex_certificate_fires[GL3]",
    ("affine", "section_s",
     "no integral vertex of the base alcove in the class of nu"):
        "test_affine.py::test_section_vertex_certificate_fires[GL3]",
    ("affine", "section_s", "alcove reduction changed the class of nu"):
        "test_affine.py::test_section_checks_the_class",
    ("affine", "section_s",
     "reduced element does not stabilize the base alcove"):
        "test_affine.py::test_section_raises_if_base_alcove_moves",
    ("affine", "weyl_word", "descent failed: not a Weyl group element"):
        "test_affine.py::test_weyl_word_rejects_non_weyl_matrix[descent_end]",
    ("affine", "_build_weyl_invariants",
     "eigenvalues of order ... are not whole Galois orbits"):
        "test_affine.py::test_weyl_invariants_refuse_a_partial_galois_orbit",
    ("chamber", "retract_exhaustive", "... accepting faces for ..."):
        "test_chamber.py::test_retract_exhaustive_refuses_two_accepting_faces",
    ("chamber", "_retract", "retraction of ... fails its certificate"):
        "test_chamber.py::test_retract_certificate_zero_den",
    ("chamber", "_certify", "lift ... does not project to ..."):
        "test_chamber.py::test_is_newton_point_certificate_raises",
    ("chamber", "stratum_of", "retraction of an integral vector must certify"):
        "test_chamber.py::test_stratum_of_certificate_raises",
    ("chamber", "newton_points_below",
     "... passes the walk on the face ... but not its checks"):
        "test_chamber.py::test_newton_points_below_self_checks_raise[checks]",
    ("chamber", "newton_points_below", "p_M(...) leaves the face ..."):
        "test_chamber.py::test_newton_points_below_face_check",
    ("chamber", "newton_points_below", "... found under two faces"):
        "test_chamber.py::test_newton_points_below_self_checks_raise[twice]",
    ("chamber", "descend", "lattice enumeration exceeds guard ..."):
        "test_chamber.py::test_newton_points_below_guard" + GUARD,
    ("dynkin", "cartan_matrix", "Cartan entry ...,... is not an integer"):
        "test_rootdata.py::test_cartan_matrix_non_integral_raises",
    ("exactlinalg", "unimodular_inverse", "matrix is not unimodular"):
        "test_exactlinalg.py::test_unimodular_inverse",
    ("rootdata", "orbit_tree", "orbit size exceeds guard ..."):
        "test_rootdata.py::test_orbit_tree_fundamental_weights" + GUARD,
    ("rootdata", "_component_smith", "component group is not finite"):
        "test_rootdata.py::test_component_group_not_finite_raises[dependent]",
    ("strata", "_codim", "negative codimension ... for nu <= mu"):
        "test_strata.py::test_codim_self_checks_raise",
    ("toruseval", "_orbit_sums", "scaled orbit coefficient is not integral"): (
        "test_toruseval.py::"
        "test_orbit_sums_refuse_a_fractional_root_coefficient",
        "test_toruseval.py::"
        "test_orbit_sums_refuse_a_fractional_walk_coefficient"),
}
RAISED = {"RuntimeError", "RetractionError", "OrbitGuardError"}


def _message(node):
    """The text of a raise's message, each formatted field as "..."."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "..."
                       for part in node.values)
    return "..."


def _sites(node, hit, function=None):
    """(function, n) for each node n under node that `hit` accepts, in
    source order; function is the innermost enclosing def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _sites(child, hit, child.name)
            continue
        if hit(child):
            yield function, child
        yield from _sites(child, hit, function)


def _raise_sites(node, module):
    """(module, function, message) of each raise of a `RAISED` error under
    node, in source order (`_sites`)."""
    for function, child in _sites(node, lambda n: (
            isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
            and getattr(n.exc.func, "id", None) in RAISED)):
        yield module, function, _message(child.exc.args[0])


def test_every_raise_site_is_reached_or_argued_unreachable():
    sites = collections.Counter(
        site for path in sorted(SRC.glob("*.py"))
        for site in _raise_sites(ast.parse(path.read_text()), path.stem))
    assert sum(sites.values()) == 28
    listed = collections.Counter(
        {key: 1 if isinstance(reach, str) else len(reach)
         for key, reach in RAISES.items()})
    assert sorted(sites - listed) == []  # list it, with what reaches it
    assert sorted(listed - sites) == []  # a stale entry
    for reach in RAISES.values():
        for entry in (reach,) if isinstance(reach, str) else reach:
            if entry.startswith("unreachable: "):
                continue
            file, _sep, test = entry.split(", ")[0].partition("::")
            name, _sep, param = test.partition("[")
            source = (TESTS / file).read_text()
            defined = {node.name for node in ast.parse(source).body
                       if isinstance(node, ast.FunctionDef)}
            assert name in defined, entry  # a named test that does not exist
            assert not param or f'"{param[:-1]}"' in source, entry


def _callers(node, attr):
    """The enclosing def of each call `x.<attr>(...)` under node
    (`_sites`)."""
    return [function for function, _call in _sites(node, lambda n: (
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == attr))]


def test_p_M_is_called_only_by_the_reference_face_test():
    # every projection the library computes runs on the int solver
    # `RootDatum.solve`; its `Fraction` front door `p_M` serves the
    # reference `_accepts` of `retract_exhaustive`, and callers outside
    # src/
    assert _callers(ast.parse("def f():\n    g(x.p_M(y))\n"
                              "def h():\n    x.p_M\n"), "p_M") == ["f"]
    found = [(path.stem, function) for path in sorted(SRC.glob("*.py"))
             for function in _callers(ast.parse(path.read_text()), "p_M")]
    assert found == [("chamber", "_accepts")]


def _public_defs(tree, module):
    """(qualified name, node) of each public module-level function and
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def _reads(tree, inside=None):
    """What `tree` reads (Load context only), except in the body of a
    function named `inside` (a call to itself): the set of bare names,
    the set of attribute reads as (the bare name the attribute is read
    off, or None; the attribute), and the set of attributes called as
    `x.attr(...)`."""
    names, attrs, calls = set(), set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == inside:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls.add(node.func.attr)
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                base = node.value
                attrs.add((base.id if isinstance(base, ast.Name) else None,
                           node.attr))
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs, calls


def _record_fields(trees):
    """The field names of every `record` class: its annotated names."""
    return {
        item.target.id
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(
            isinstance(dec, ast.Call) and getattr(dec.func, "id", None)
            == "record" for dec in node.decorator_list)
        for item in node.body if isinstance(item, ast.AnnAssign)}


def _is_referenced(qual, trees):
    """A module-level function is referenced as a bare name (a `from`
    import) or as `<module>.<name>`; a method by a call `x.name(...)`, or
    by any read of `.name` unless a `record` class has a field `name`
    (`nu.levi` reads a field, not `RootDatum.levi`)."""
    module, *cls, name = qual.split(".")
    read = False  # a method read as `.name`, but not called
    for tree in trees.values():
        names, attrs, calls = _reads(tree, name)
        if not cls:
            if name in names or (module, name) in attrs:
                return True
        elif name in calls:
            return True
        else:
            read = read or any(attr == name for _base, attr in attrs)
    return read and name not in _record_fields(trees)


def test_a_reference_is_a_read_through_the_home_module():
    trees = {"m": ast.parse("def f(): f()\nx.f = 1\ny.f\nf = 2\n"),
             "n": ast.parse("from m import g\ng()\nm.h()\n"),
             "r": ast.parse("@record()\nclass P:\n    k: int\n    j: int\n"
                            "p.k\nq.j()\n")}
    assert not _is_referenced("m.f", trees)  # self-call, stores, y.f
    assert _is_referenced("m.C.f", trees)  # a method: any read of .f
    assert _is_referenced("m.g", trees)  # a bare name
    assert _is_referenced("m.h", trees)  # <module>.<name>
    assert not _is_referenced("n.h", trees)  # read off another module
    assert not _is_referenced("m.C.k", trees)  # p.k reads the field P.k
    assert _is_referenced("m.C.j", trees)  # q.j() calls, though P has j


def test_every_public_function_is_called_exported_or_kept():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = next(
        ast.literal_eval(node.value) for node in trees["__init__"].body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["_HOME"])
    uncalled = set()
    for module, tree in trees.items():
        for qual, node in _public_defs(tree, module):
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if not _is_referenced(qual, trees):
                uncalled.add(qual)
    assert sorted(uncalled - KEPT.keys()) == []  # delete it, or keep it
    assert sorted(KEPT.keys() - uncalled) == []  # a stale KEPT entry


def test_memo_is_the_only_cache_on_a_root_datum():
    tree = ast.parse((SRC / "rootdata.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "RootDatum")
    slots = next(ast.literal_eval(node.value) for node in cls.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["__slots__"])
    # the datum itself, the root supports built with it, and `memo`'s table
    assert slots == ("n", "l", "alpha", "factors", "label", "_root_support",
                     "_memo")


# Every `memo` table in src/, with what bounds its number of entries on
# one datum (l simple roots, n coordinates).
MEMO_TABLES = {
    "pm": "one per subset of the simple roots: at most 2^l",
    "levi": "one per subset of the simple roots: at most 2^l",
    "faces": "one entry: every face, a subset of the simple roots, once,"
    " with its solver's indices and denominator and its unit forms: 2^l"
    " faces",
    "central": "unbounded: keyed by the raw torus coordinates it is given,"
    " so it grows with the number of distinct inputs; each entry is the"
    " central part and its int form",
    "orbit_skeleton": "one per fundamental weight omega_k: at most l",
    "orbit_coordinate_bounds": "one entry",
    "affine_tables": "one entry: the simple affine roots, and p0, the"
    " vertices and the 2 rho weights over one denominator",
    "weyl_invariants": "keyed by the matrix of w_nu, which depends only on"
    " the class of nu: at most one per component class",
}


def test_every_memo_table_is_listed_with_its_bound():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "memo"):
                table = node.args[0]
                # a computed table name could not be listed here
                assert isinstance(table, ast.Constant), \
                    f"{path.name}:{node.lineno}"
                found.add(table.value)
    assert sorted(found - MEMO_TABLES.keys()) == []  # list it, with its bound
    assert sorted(MEMO_TABLES.keys() - found) == []  # a stale entry


# Each snippet breaks one certificate (or hands it an input it must
# refuse); run under `python -O`, it prints whether the call raised that
# certificate's RuntimeError (its message holds `expect`), and
# __debug__: the certificate is a raise, not an assert.
BROKEN_CERTIFICATES = {
    "is_newton_point solve": """
from newtonstrata.chamber import is_newton_point
from newtonstrata.rationals import Q
from newtonstrata.rootdata import RootDatum, build_group
g = build_group("GL2")
RootDatum.solve = lambda self, subset, x, pairings: ([], 1, [], [9] * self.n)
call = lambda: is_newton_point(g, (Q(1, 2), 1))
expect = "does not project"
""",
    "_weyl_element rows": """
from newtonstrata.affine import section_s
from newtonstrata.rootdata import RootDatum, build_group
g = build_group("GL3")
section_s(g, (0, 0, 1))
wrong = (tuple((i, g.alpha[i][0] + 1) for i in range(g.n)),
         ) + g._root_support[1:]
descend = RootDatum.dominant_rep
def planted(self, x):
    found = descend(self, x)
    self._root_support = wrong  # read by the row rebuild alone
    return found
RootDatum.dominant_rep = planted
call = lambda: section_s(g, (0, 0, 1))
expect = "misses the image"
""",
    "section_s vertex": """
from newtonstrata import affine
from newtonstrata.rootdata import build_group
g = build_group("GL3")
roots, den, p0, vertices, weights = affine._build_affine_tables(g)
g.memo("affine_tables", None, lambda d: (roots, den, p0, (), weights))
call = lambda: affine.section_s(g, (0, 0, 1))
expect = "no integral vertex"
""",
    "newton_points_below face": """
from newtonstrata.chamber import newton_points_below
from newtonstrata.rationals import Q
from newtonstrata.rootdata import build_group
g = build_group("GL2")
g.memo("pm", frozenset({0}), lambda d: ([0], [[0]], 1))
call = lambda: newton_points_below(g, (Q(1), Q(1)))
expect = "leaves the face"
""",
    "stratum_of certify": """
from newtonstrata import chamber
from newtonstrata.rootdata import build_group
g = build_group("GL3")
chamber._certify = lambda datum, form: None
call = lambda: chamber.stratum_of(g, (0, 2, 1))
expect = "must certify"
""",
    "_orbit_sums coefficient": """
from newtonstrata.rootdata import build_group
from newtonstrata.toruseval import eval_c, parse_torus_point
g = build_group("GL2")
g.memo("orbit_coordinate_bounds", None, lambda d: [[0, 1]])
call = lambda: eval_c(g, parse_torus_point("2*pi^(-1),1*pi^(-1)"))
expect = "not integral"
""",
    "weyl_invariants orbits": """
from newtonstrata import affine, exactlinalg
from newtonstrata.rootdata import WeylElement, build_group
g = build_group("A2")
w = WeylElement(((0, -1), (1, -1)))  # s_1 s_2, of order 3
kernel = exactlinalg.integer_kernel
exactlinalg.integer_kernel = lambda m: kernel(m)[0 if any(map(any, m)) else 1:]
call = lambda: affine._build_weyl_invariants(g, w)
expect = "not whole Galois orbits"
""",
    "unimodular_inverse": """
from newtonstrata.exactlinalg import unimodular_inverse
call = lambda: unimodular_inverse([[2, 0], [0, 1]])
expect = "not unimodular"
""",
    "component group": """
from newtonstrata.rootdata import RootDatum, build_group
g = build_group("GL2*GL2")
basis = g._central_kernel()
RootDatum._central_kernel = lambda self: [basis[0], basis[0]]
call = lambda: g.component_group()
expect = "component group is not finite"
""",
    "codim": """
from newtonstrata import strata
from newtonstrata.rationals import Q
from newtonstrata.rootdata import build_group
g = build_group("GL2")
strata._floor_sum = lambda datum, form: -Q(form[1][0], form[0])
call = lambda: strata.codim(g, (Q(1, 2), Q(1)), (Q(1), Q(1)))
expect = "negative codimension"
""",
    "cartan_matrix": """
from newtonstrata import dynkin
dynkin.root_norms = lambda letter, l: [2, 3]
call = lambda: dynkin.cartan_matrix("G", 2)
expect = "is not an integer"
""",
}
CATCH = """
try:
    call()
except RuntimeError as exc:
    print(expect in str(exc), __debug__)
"""


@pytest.mark.parametrize("name", sorted(BROKEN_CERTIFICATES))
def test_broken_certificate_raises_under_python_O(name):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CERTIFICATES[name] + CATCH],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "False"]
