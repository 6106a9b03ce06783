import importlib

import suboplex
import suboplex.builders

# Adding or removing an export must show up as a diff of these lists.

SUBOPLEX_EXPORTS = [
    "BettiTable",
    "CapExceededError",
    "FieldSpec",
    "FunctionClass",
    "GF2",
    "GF3",
    "HomologyProfile",
    "IdealGenerators",
    "Interval",
    "LabeledComplex",
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
    "cellular_resolution",
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
    "verify_acyclic",
    "warn_if_degenerate",
]

BUILDERS_EXPORTS = [
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


def test_package_exports():
    assert sorted(suboplex.__all__) == SUBOPLEX_EXPORTS


def test_builders_exports():
    assert sorted(suboplex.builders.__all__) == BUILDERS_EXPORTS


def test_every_export_resolves():
    for module in (suboplex, suboplex.builders):
        for name in module.__all__:
            assert hasattr(module, name), name


# Every (module, attribute) that ``install()`` in perfbench/tracer.py
# patches.  The tracer skips a name that no longer resolves without any
# error, so removing or renaming one of these silently drops declared
# per-layer metrics (such as ``complexes.link.*``) from ``--trace 1``
# results.  Methods are patched on the class that defines them.
TRACED_NAMES = [
    ("suboplex.io", "poset_from_json"),
    ("suboplex.io", "class_from_json"),
    ("suboplex.io", "complex_from_json"),
    ("suboplex.io", "matroid_from_json"),
    ("suboplex.io", "cells_from_json"),
    ("suboplex.io", "formula_from_json"),
    ("suboplex.builders.matroids", "Matroid.flats"),
    ("suboplex.builders.cells", "cube_complex"),
    ("suboplex.builders.cells", "face_poset"),
    ("suboplex.builders.formulas", "formula_class"),
    ("suboplex.posets", "SubsetPoset.__init__"),
    ("suboplex.posets", "SubsetPoset.interval"),
    ("suboplex.posets", "SubsetPoset.rank"),
    ("suboplex.posets", "SubsetPoset.mobius"),
    ("suboplex.posets", "SubsetPoset.chain_masks"),
    ("suboplex.complexes", "order_complex"),
    ("suboplex.complexes", "SimplicialComplex.from_faces"),
    ("suboplex.complexes", "SimplicialComplex.link"),
    ("suboplex.complexes", "reduced_homology"),
    ("suboplex.complexes", "ChainHomology.boundary_rank"),
    ("suboplex.complexes", "ChainHomology.betti"),
    ("suboplex.complexes", "truncated_order_complex"),
    ("suboplex.linalg", "rank_from_columns"),
    ("suboplex.betti", "betti_via_intervals"),
    ("suboplex.betti", "betti_via_mobius"),
    ("suboplex.betti", "homological_dimension"),
    ("suboplex.classes", "vc_dimension"),
    ("suboplex.classes", "is_shattered"),
    ("suboplex.classes", "shatter_complex"),
    ("suboplex.classes", "extentures"),
    ("suboplex.classes", "dual_ideal"),
    ("suboplex.classes", "suboplex_ideal"),
    ("suboplex.oracles", "betti_oracle"),
]


def test_every_traced_name_resolves():
    for module_name, attr in TRACED_NAMES:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
