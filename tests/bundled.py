"""The standing example instances used by tests and the documentation.

The flagship matroid is U(1,1) + U(2,3) in three representations that
must produce identical flat lattices: as a direct sum, as columns of a
GF(2) matrix, and as the cycle matroid of a triangle with a pendant
edge (edge 0 the pendant, edges 1,2,3 the triangle).
"""

from __future__ import annotations

from suboplex.builders import (
    CellComplexInput,
    DirectSumMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    UniformMatroid,
    cube_complex,
    face_poset,
    simplex_input,
)
from suboplex.classes import FunctionClass, class_from_poset
from suboplex.posets import SubsetPoset


def u11_u23_direct_sum() -> Matroid:
    return DirectSumMatroid([UniformMatroid(1, 1), UniformMatroid(2, 3)])


def u11_u23_matrix() -> Matroid:
    return LinearMatroid.from_rows(2, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]])


def u11_u23_graph() -> Matroid:
    # Vertices 0,1 and 2 form the triangle (edges 1,2,3); edge 0 is pendant.
    return GraphicMatroid(4, [(2, 3), (0, 1), (1, 2), (0, 2)])


def u11_u23_flats() -> SubsetPoset:
    return u11_u23_direct_sum().flats()


def u11_u23_class() -> FunctionClass:
    return class_from_poset(u11_u23_flats())


U11_U23_BETTI_TEXT = "total: 10 17 10 2\n4: 10 11 3 .\n5: . 6 7 2"


def bowtie_poset() -> SubsetPoset:
    """Two 2-chains glued at a common bottom; its order complex is a bowtie.

    Interval Cohen-Macaulay but not Cohen-Macaulay.
    """
    return SubsetPoset.from_masks(4, [0b0000, 0b0001, 0b0100, 0b0011, 0b1100])


def delta_class(n: int) -> FunctionClass:
    """The n delta functions on [n] (singleton 1-preimages)."""
    return FunctionClass.from_masks(n, [1 << i for i in range(n)])


def k4_matroid() -> Matroid:
    return GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def triangle_square_input() -> CellComplexInput:
    """A triangle and a square glued along an edge (vertices 1, 2)."""
    return CellComplexInput.from_vertex_lists(
        5,
        [
            [0, 1, 2],
            [1, 2, 3, 4],
            [0, 1],
            [1, 2],
            [0, 2],
            [2, 3],
            [3, 4],
            [1, 4],
            [0],
            [1],
            [2],
            [3],
            [4],
        ],
    )


def bundled_matroids() -> dict[str, Matroid]:
    out: dict[str, Matroid] = {}
    for k in range(1, 4):
        for m in range(k, 7):
            out[f"uniform_{k}_{m}"] = UniformMatroid(k, m)
    out["u11_u23_direct_sum"] = u11_u23_direct_sum()
    out["u11_u23_matrix"] = u11_u23_matrix()
    out["u11_u23_graph"] = u11_u23_graph()
    out["graphic_k4"] = k4_matroid()
    return out


def bundled_face_posets() -> dict[str, SubsetPoset]:
    out: dict[str, SubsetPoset] = {}
    for d in range(1, 4):
        out[f"cube_{d}"] = cube_complex(d)
    for k in range(2, 5):
        out[f"simplex_{k}"] = face_poset(simplex_input(k))
    out["triangle_square"] = face_poset(triangle_square_input())
    return out


def bundled_posets() -> dict[str, SubsetPoset]:
    out = {name: m.flats() for name, m in bundled_matroids().items()}
    out.update(bundled_face_posets())
    out["bowtie"] = bowtie_poset()
    return out
