"""Exact learning-theoretic and homological invariants of Boolean function classes.

The core objects: subsets of [n] doubling as Boolean functions,
function classes and their squarefree ideals, inclusion posets with
Moebius functions, order complexes with exact reduced homology over a
configurable field, multigraded Betti tables, and brute-force oracles
cross-checking every fast path.
"""

from .betti import (
    BettiTable,
    betti_via_intervals,
    betti_via_mobius,
    homological_dimension,
)
from .bitsets import (
    PartialFunction,
    SquarefreeMonomial,
    Subset,
    delta,
    intersect,
    monomial,
)
from .classes import (
    FunctionClass,
    IdealGenerators,
    class_from_poset,
    collapse_membership,
    dual_ideal,
    extentures,
    flip_class,
    is_shattered,
    shatter_complex,
    suboplex_ideal,
    vc_dimension,
    warn_if_degenerate,
)
from .complexes import (
    HomologyProfile,
    SimplicialComplex,
    interval_homology,
    is_cohen_macaulay,
    is_interval_cm,
    order_complex,
    reduced_euler_characteristic,
    reduced_homology,
    truncated_order_complex,
)
from .errors import CapExceededError, ValidationError
from .linalg import GF2, GF3, QQ, FieldSpec
from .oracles import betti_oracle, regularity_oracle, vc_oracle
from .posets import Interval, SubsetPoset, intersection_closure

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CapExceededError",
    "FieldSpec",
    "FunctionClass",
    "GF2",
    "GF3",
    "HomologyProfile",
    "IdealGenerators",
    "Interval",
    "PartialFunction",
    "QQ",
    "SimplicialComplex",
    "SquarefreeMonomial",
    "Subset",
    "SubsetPoset",
    "ValidationError",
    "betti_oracle",
    "betti_via_intervals",
    "betti_via_mobius",
    "class_from_poset",
    "collapse_membership",
    "delta",
    "dual_ideal",
    "extentures",
    "flip_class",
    "homological_dimension",
    "intersect",
    "intersection_closure",
    "interval_homology",
    "is_cohen_macaulay",
    "is_interval_cm",
    "is_shattered",
    "monomial",
    "order_complex",
    "reduced_euler_characteristic",
    "reduced_homology",
    "regularity_oracle",
    "shatter_complex",
    "suboplex_ideal",
    "truncated_order_complex",
    "vc_dimension",
    "vc_oracle",
    "warn_if_degenerate",
]
