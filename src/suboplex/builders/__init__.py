"""Constructors for the standard example families: matroids, cell
complexes, and Boolean-formula classes."""

from .cells import CellComplexInput, cube_complex, cube_faces, face_poset, simplex_input
from .formulas import FormulaClassSpec, formula_class
from .matroids import (
    DirectSumMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    MinorMatroid,
    UniformMatroid,
)

__all__ = [
    "CellComplexInput",
    "DirectSumMatroid",
    "FormulaClassSpec",
    "GraphicMatroid",
    "LinearMatroid",
    "Matroid",
    "MinorMatroid",
    "UniformMatroid",
    "cube_complex",
    "cube_faces",
    "face_poset",
    "formula_class",
    "simplex_input",
]
