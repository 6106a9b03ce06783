"""Face posets of polyhedral cell complexes given combinatorially.

A cell complex enters as the vertex sets of its cells; the face poset
is the intersection closure of that family under inclusion, with the
empty set included exactly when it arises as an intersection.  The
cube builder enumerates the faces of [0,1]^d on the vertex set [2^d],
identifying vertex i with the binary string whose j-th coordinate is
bit j of i.
"""

from __future__ import annotations

from itertools import product

from ..bitsets import Subset, Value, check_ground
from ..errors import CapExceededError, ValidationError
from ..posets import SubsetPoset, intersection_closure

CUBE_MAX_DIM = 4


class CellComplexInput(Value):
    """Vertex sets of the cells of a complex, as masks over the vertex range.

    List every face whose vertex set should appear in the poset; lower
    faces that arise as intersections of listed ones may be omitted.
    """

    _fields = ("num_vertices", "faces")
    num_vertices: int
    faces: tuple[int, ...]

    def __init__(self, num_vertices: int, faces: tuple[int, ...]) -> None:
        check_ground(num_vertices)
        seen = set()
        for f in faces:
            if f <= 0 or f >> num_vertices:
                raise ValidationError(
                    f"cell 0x{f:x} must be a nonempty subset of range({num_vertices})"
                )
            if f in seen:
                raise ValidationError("cell complex faces must be distinct")
            seen.add(f)
        if not faces:
            raise ValidationError("cell complex needs at least one face")
        self._assign(num_vertices, faces)

    @classmethod
    def from_vertex_lists(cls, num_vertices: int, faces) -> "CellComplexInput":
        masks = []
        for face in faces:
            masks.append(Subset.from_indices(num_vertices, face).bits)
        return cls(num_vertices, tuple(masks))


def face_poset(x: CellComplexInput) -> SubsetPoset:
    """Intersection closure of the given cells, ordered by inclusion."""
    return SubsetPoset.from_masks(x.num_vertices, intersection_closure(x.faces))


def cube_faces(d: int) -> list[int]:
    """Vertex-set masks of all 3^d faces of the d-cube."""
    faces = []
    for assignment in product((0, 1, None), repeat=d):
        mask = 0
        for v in range(1 << d):
            if all(a is None or (v >> j & 1) == a for j, a in enumerate(assignment)):
                mask |= 1 << v
        faces.append(mask)
    return faces


def cube_symmetry(d: int, reflect: bool = True) -> list[list[int]]:
    """Generators of the d-cube's symmetries, as permutations of its 2^d vertices.

    A swap of bits 0 and 1 and a cycle of all d bits generate the
    permutations of the coordinates; with ``reflect``, v -> v ^ 1 adds
    the reflections, for the hyperoctahedral group.
    """
    n = 1 << d
    gens = [[v ^ 1 for v in range(n)]] if reflect else []
    if d >= 2:
        gens.append([v & ~3 | (v & 1) << 1 | v >> 1 & 1 for v in range(n)])
    if d >= 3:
        gens.append([(v << 1 | v >> (d - 1)) & (n - 1) for v in range(n)])
    return gens


def cube_complex(d: int) -> SubsetPoset:
    """Face poset of [0,1]^d on vertex set [2^d], empty face included.

    The associated function class is the class of conjunctions of
    literals in d variables: faces are exactly the conjunction
    supports, the full cube the empty conjunction, and the empty set
    the contradictory one.  The poset carries the cube's symmetries.
    """
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"cube dimension must be a positive integer, got {d!r}")
    if d > CUBE_MAX_DIM:
        raise CapExceededError(f"cube builder is capped at dimension {CUBE_MAX_DIM}, got {d}")
    return SubsetPoset.from_masks(1 << d, intersection_closure(cube_faces(d)), cube_symmetry(d))
