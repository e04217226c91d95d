"""Checks on the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "newtonstrata"


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


# Public names that no module in src/ calls and that `__all__` does not
# export, each with the reason it stays in the library.
KEPT = {
    "chamber.retract_exhaustive": "perfbench reads its span"
    " (layers.py, retract_fallbacks) and test_perfbench deletes it",
    "rootdata.RootDatum.weyl_orbit": "perfbench hooks its span"
    " (layers.py HOOKS, weyl_orbit.elements)",
    "toruseval.LaurentPoly.one": "the unit of the LaurentPoly arithmetic"
    " whose spans perfbench counts (layers.py LAURENT_OPS)",
    "toruseval.LaurentPoly.is_zero": "the zero test of the LaurentPoly"
    " arithmetic whose spans perfbench counts (layers.py LAURENT_OPS)",
    "toruseval.LaurentPoly.power": "perfbench counts its span"
    " (layers.py LAURENT_OPS)",
    "toruseval.LaurentPoly.invert": "perfbench counts its span"
    " (layers.py LAURENT_OPS)",
    "strata.d_levi_check": "the poset workload calls it"
    " (workloads.py Poset.run); acceptance criterion 8",
    "affine.chi": "the paper's character chi_i; the acceptance gate"
    " checks it",
    "affine.defect": "the paper's defect; acceptance criterion 5 checks it",
    "strata.StratumConditions.accepts": "membership in a stratum, the"
    " paper's condition system; acceptance criterion 4 checks it",
    "rootdata.RootDatum.leq": "the partial order on points; the library"
    " reads it through `leq_scaled`, perfbench's checks call it"
    " (workloads.py) and acceptance criterion 2 checks it",
    "rootdata.RootDatum.is_dominant": "dominance of a point; perfbench's"
    " checks call it (workloads.py) and acceptance criterion 2 checks it",
}


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


def _references(tree, inside=None):
    """Every name read in `tree`, as a Name or an attribute, except in
    the body of a function named `inside` (a call to itself)."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_function_is_called_exported_or_kept():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = next(
        ast.literal_eval(node.value) for node in trees["__init__"].body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["__all__"])
    uncalled = set()
    for module, tree in trees.items():
        for qual, node in _public_defs(tree, module):
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if not any(name in _references(t, name) for t in trees.values()):
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
