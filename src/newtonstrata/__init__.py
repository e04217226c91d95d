"""Exact computation with Newton strata of the adjoint quotient of a
split reductive group: retraction onto the dominant chamber, Newton
points and their poset, stratum conditions and dimensions, the defect
via the extended affine Weyl group, and symbolic torus evaluation."""

import importlib

__version__ = "1.0.0"

# name -> the submodule that defines it.  A name is looked up there on
# each read (PEP 562) and never bound here, so `import newtonstrata`
# loads no submodule and a caller reads whatever the module holds now.
_HOME = {
    "NEG_INF": "rationals",
    "Q": "rationals",
    "GroupSpecError": "rootdata",
    "RootDatum": "rootdata",
    "build_group": "rootdata",
    "NewtonPoint": "chamber",
    "retract": "chamber",
    "is_newton_point": "chamber",
    "stratum_of": "chamber",
    "newton_points_below": "chamber",
    "stratum_conditions": "strata",
    "dim_leq": "strata",
    "codim": "strata",
    "codim_chai": "strata",
    "d_G": "strata",
    "LaurentPoly": "toruseval",
    "TorusPoint": "toruseval",
}
__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
