"""Reduced homology of the open intervals of a subset poset, and interval
Cohen-Macaulayness.

Every interval invariant that needs homology (Betti numbers, homological
dimension, interval Cohen-Macaulayness) reads it from
``interval_homology``, which builds the chain complex of one open
interval (e_i, e_j) straight from the poset's comparability masks: no
sub-poset and no ``SimplicialComplex``.  On an intersection-closed
poset every closed interval is a lattice with bitwise AND as meet, so
Rota's crosscut theorem (Bjorner, "Topological methods", Handbook of
Combinatorics, 1995, Thm 10.8) gives that homology from the complex of
atom sets with an upper bound below e_j, or of coatom sets with a lower
bound above e_i; the order complex of the interior is used where it has
fewer faces, and on other posets.  ``ChainHomology`` takes the boundary
ranks over the field lazily, one dimension at a time.  The simplicial
complexes of ``complexes`` take their homology from the same class, and
the Betti oracle its slices'.  This module is apart from ``complexes``
so that the sweeps (``betti``, ``hdim``, ``check --interval-cm``)
compile no ``SimplicialComplex``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .bitsets import _bits
from .errors import ValidationError
from .linalg import GF2, FieldSpec, rank_from_columns

if TYPE_CHECKING:
    from .posets import SubsetPoset


class ChainHomology:
    """Lazy Betti numbers of the augmented chain complex of a face family.

    Boundary ranks are computed and cached per dimension on demand, so a
    caller that only needs the top few degrees never pays for the rest.
    """

    def __init__(self, faces_by_dim: dict[int, list[int]], fieldspec: FieldSpec) -> None:
        self.faces = faces_by_dim
        self.field = fieldspec
        self._ranks: dict[int, int] = {}

    def boundary_rank(self, d: int) -> int:
        """Rank of the boundary map from dimension d to dimension d-1."""
        if d in self._ranks:
            return self._ranks[d]
        rows = self.faces.get(d - 1, ())
        cols = self.faces.get(d, ())
        if not rows or not cols:
            self._ranks[d] = 0
            return 0
        row_index = {f: i for i, f in enumerate(rows)}
        columns = []
        for f in cols:
            col = []
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                col.append((row_index[f ^ low], sign))
                sign = -sign
            columns.append(col)
        r = rank_from_columns(columns, len(rows), self.field)
        self._ranks[d] = r
        return r

    def betti(self, d: int) -> int:
        n_d = len(self.faces.get(d, ()))
        if n_d == 0:
            return 0
        return n_d - self.boundary_rank(d) - self.boundary_rank(d + 1)


def _crosscut_faces(
    verts: list[int], bounds: list[int], interior: int, limit: int
) -> list[int] | None:
    """Sets of ``verts`` with a common bound inside ``interior``, the empty one included.

    None once there are more than ``limit``.  ``bounds[v]`` is the strict
    upper (or lower) set of v.  A face's running AND of ``bounds[v] | 1 << v``
    over its vertices is the set of its common bounds in the interior, so a
    face extends only while that AND is nonzero.  Bit k stands for ``verts[k]``.
    """
    faces = [0]
    stack = [(0, interior, 0)]
    while stack:
        face, common, start = stack.pop()
        for k in range(start, len(verts)):
            v = verts[k]
            narrowed = common & (bounds[v] | 1 << v)
            if narrowed:
                faces.append(face | 1 << k)
                if len(faces) > limit:
                    return None
                stack.append((face | 1 << k, narrowed, k + 1))
    return faces


def interval_homology(
    p: SubsetPoset, i: int, j: int, chains: int, fieldspec: FieldSpec
) -> ChainHomology:
    """Reduced homology of the open interval (e_i, e_j) of ``p`` over the field.

    The faces come straight from the comparability masks of ``p``, with
    no sub-poset and no ``SimplicialComplex``, grouped by ``_by_dim`` as
    ``SimplicialComplex.faces_by_dim`` groups them.  i == j gives no
    faces, and a cover gives only the empty face.

    When ``p`` is intersection-closed, every interval is a lattice with
    bitwise AND as meet, and the faces are those of the crosscut complex
    on the atoms or on the coatoms, whichever are fewer: the sets of
    atoms with a common upper bound below e_j, or of coatoms with a
    common lower bound above e_i.  Rota's crosscut theorem makes it
    homotopy equivalent to the order complex of (e_i, e_j) (Rota 1964;
    Bjorner, "Topological methods", Handbook of Combinatorics, 1995, Thm
    10.8).  On other posets, whose intervals need not be lattices, or
    when the crosscut complex has more than ``chains`` faces, the faces
    are the chains of the interior, on the vertices of ``p``; there are
    ``chains`` of them, the empty chain included, as
    ``SubsetPoset.intervals_above`` counts them.
    """
    up, down = p._up_strict, p._down_strict
    if i == j:
        return ChainHomology({}, fieldspec)
    if not up[i] >> j & 1:
        raise ValidationError(f"interval endpoints must satisfy e_{i} < e_{j}")
    interior = up[i] & down[j]
    if not interior:
        return ChainHomology({-1: [0]}, fieldspec)
    if p.is_intersection_closed():
        atoms = _bits(p._covers_up[i] & down[j])
        coatoms = _bits(p._covers_down[j] & up[i])
        verts, bounds = (atoms, up) if len(atoms) <= len(coatoms) else (coatoms, down)
        faces = _crosscut_faces(verts, bounds, interior, chains)
        if faces is not None:
            return _chain_homology(faces, fieldspec)
    return _chain_homology(p.chain_masks(interior), fieldspec)


def _by_dim(faces: Iterable[int]) -> dict[int, list[int]]:
    """Faces grouped by dimension, ascending within each; the empty face is dimension -1."""
    by_dim: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    return by_dim


def _chain_homology(faces: Iterable[int], fieldspec: FieldSpec) -> ChainHomology:
    """Homology of a face family, grouped by ``_by_dim`` as ``faces_by_dim`` groups it."""
    return ChainHomology(_by_dim(faces), fieldspec)


def interval_is_cm(p: SubsetPoset, row: tuple, fieldspec: FieldSpec) -> bool:
    """``is_interval_cm``'s test of one ``SubsetPoset.intervals`` row."""
    i, j, rank, graded, _, chains = row
    if rank <= 1:
        return True
    if not graded:
        return False
    chain = interval_homology(p, i, j, chains, fieldspec)
    return not any(chain.betti(d) for d in range(-1, rank - 2))


def is_interval_cm(p: SubsetPoset, fieldspec: FieldSpec = GF2) -> bool:
    """True iff every open interval of ``p`` has a Cohen-Macaulay order complex.

    Checked without Reisner's links: ``p`` is interval Cohen-Macaulay
    over the field iff every closed interval [a, b] of rank r >= 2 is
    graded and the reduced homology of its open interval (a, b) vanishes
    below the top degree r - 2.  Every link of a chain in the order
    complex of (a, b) is a join of order complexes of smaller open
    intervals, so homology concentrated in the top degree of every
    interval is exactly Reisner's criterion on each of them (Baclawski
    1980; Bjorner, Garsia and Stanley, "An introduction to Cohen-Macaulay
    posets", 1982).  On a bounded poset this is also Cohen-Macaulayness
    of its order complex (Baclawski 1980; a topological property by
    Munkres 1984), which is how ``complexes.is_cohen_macaulay`` and
    ``check --cm`` use it.  The answer depends on the field: homology is taken
    over ``fieldspec``.  Rank-0 and rank-1 intervals count as
    Cohen-Macaulay.  The scan takes one interval per orbit under the
    poset's symmetry and stops at the first that fails.
    """
    return all(interval_is_cm(p, row, fieldspec) for row, _ in p.interval_orbits())
