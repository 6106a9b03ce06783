"""Constructors for the standard example families: matroids, cell
complexes, and Boolean-formula classes.

Each submodule runs on first use, as in the ``suboplex`` package."""

from .. import _lazy_package

__all__, __getattr__, __dir__ = _lazy_package(globals(), {
    "cells": ("CellComplexInput", "cube_complex", "cube_faces", "face_poset"),
    "formulas": ("FormulaClassSpec", "formula_class"),
    "matroids": (
        "DirectSumMatroid", "GraphicMatroid", "LinearMatroid", "Matroid", "UniformMatroid",
    ),
})
