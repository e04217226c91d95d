"""Exact computation with Newton strata of the adjoint quotient of a
split reductive group: retraction onto the dominant chamber, Newton
points and their poset, stratum conditions and dimensions, the defect
via the extended affine Weyl group, and symbolic torus evaluation."""

from .chamber import (
    NewtonPoint,
    is_newton_point,
    newton_points_below,
    retract,
    stratum_of,
)
from .rationals import NEG_INF, Q
from .rootdata import GroupSpecError, RootDatum, build_group
from .strata import codim, codim_chai, d_G, dim_leq, stratum_conditions
from .toruseval import LaurentPoly, TorusPoint, classical_newton_slopes

__all__ = [
    "NEG_INF",
    "Q",
    "GroupSpecError",
    "RootDatum",
    "build_group",
    "NewtonPoint",
    "retract",
    "is_newton_point",
    "stratum_of",
    "newton_points_below",
    "stratum_conditions",
    "dim_leq",
    "codim",
    "codim_chai",
    "d_G",
    "LaurentPoly",
    "TorusPoint",
    "classical_newton_slopes",
]

__version__ = "1.0.0"
