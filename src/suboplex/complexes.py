"""Simplicial complexes, order complexes, and exact reduced homology.

Faces are bit masks over a vertex universe.  The augmented chain
complex always carries the empty face in dimension -1, so the
(-1)-st reduced homology is nonzero exactly for the empty complex
{emptyset}.  Two degenerate complexes are kept distinct throughout:

* the null complex (no faces at all), and
* the empty complex {emptyset} (one face, the empty set).

Boundary signs come from ascending vertex order within each face,
which matters over fields other than GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitsets import MAX_GROUND
from .errors import CapExceededError, ValidationError
from .linalg import GF2, FieldSpec, rank_from_columns
from .posets import Interval, SubsetPoset


def _submasks(mask: int):
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


class SimplicialComplex:
    """An abstract simplicial complex with faces stored as bit masks."""

    __slots__ = ("num_vertices", "_facets", "_face_set", "_faces_by_dim")

    def __init__(self, num_vertices: int, facets: tuple[int, ...] | None) -> None:
        self.num_vertices = num_vertices
        self._facets = facets  # None until first asked for, on from_faces complexes
        self._face_set: set[int] | None = None
        self._faces_by_dim: dict[int, list[int]] | None = None

    @classmethod
    def null(cls) -> "SimplicialComplex":
        return cls(0, ())

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        """The empty complex {emptyset}."""
        return cls(0, (0,))

    @classmethod
    def from_facets(cls, num_vertices: int, facets) -> "SimplicialComplex":
        masks = sorted(set(facets))
        for f in masks:
            if f < 0 or f >> num_vertices:
                raise ValidationError(
                    f"facet 0x{f:x} uses vertices outside range({num_vertices})"
                )
        maximal = [
            f
            for f in masks
            if not any(f != g and f & g == f for g in masks)
        ]
        return cls(num_vertices, tuple(sorted(maximal)))

    @classmethod
    def from_faces(cls, num_vertices: int, faces) -> "SimplicialComplex":
        """Build from an explicit subset-closed family of faces.

        The empty face is implied whenever the family is nonempty.
        """
        face_set = set(faces)
        if not face_set:
            return cls.null()
        face_set.add(0)
        for f in face_set:
            if f < 0 or f >> num_vertices:
                raise ValidationError(
                    f"face 0x{f:x} uses vertices outside range({num_vertices})"
                )
        k = cls(num_vertices, None)
        k._face_set = face_set
        by_dim: dict[int, list[int]] = {}
        for f in face_set:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
        for faces_d in by_dim.values():
            faces_d.sort()
        k._faces_by_dim = by_dim
        return k

    def _compute_facets(self) -> tuple[int, ...]:
        assert self._face_set is not None
        faces = self._face_set
        nv = self.num_vertices
        maximal = []
        for f in faces:
            if not any(
                f | (1 << v) in faces for v in range(nv) if not f >> v & 1
            ):
                maximal.append(f)
        return tuple(sorted(maximal))

    @property
    def facets(self) -> tuple[int, ...]:
        """Maximal faces, computed on first access; homology never needs them."""
        if self._facets is None:
            self._facets = self._compute_facets()
        return self._facets

    @property
    def is_null(self) -> bool:
        return self._facets == ()

    @property
    def is_empty_complex(self) -> bool:
        return self.dim == -1

    def face_set(self) -> set[int]:
        if self._face_set is None:
            faces: set[int] = set()
            for f in self._facets:
                for sub in _submasks(f):
                    faces.add(sub)
            self._face_set = faces
        return self._face_set

    def faces_by_dim(self) -> dict[int, list[int]]:
        """Faces grouped by dimension; includes {-1: [0]} for nonnull complexes."""
        if self._faces_by_dim is None:
            by_dim: dict[int, list[int]] = {}
            for f in self.face_set():
                by_dim.setdefault(f.bit_count() - 1, []).append(f)
            for faces_d in by_dim.values():
                faces_d.sort()
            self._faces_by_dim = by_dim
        return self._faces_by_dim

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex, -2 for the null complex."""
        if self.is_null:
            return -2
        if self._faces_by_dim is not None:
            return max(self._faces_by_dim)
        return max(f.bit_count() for f in self._facets) - 1

    def f_vector(self) -> dict[int, int]:
        return {d: len(fs) for d, fs in self.faces_by_dim().items()}

    def __contains__(self, face: int) -> bool:
        return face in self.face_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self.is_null or other.is_null:
            return self.is_null and other.is_null
        return self.face_set() == other.face_set()

    def link(self, face: int) -> "SimplicialComplex":
        """The link of ``face``: all G disjoint from it with G | face a face."""
        faces = self.face_set()
        if face not in faces:
            raise ValidationError(f"link of a non-face 0x{face:x}")
        return SimplicialComplex.from_faces(
            self.num_vertices, [h ^ face for h in faces if h & face == face]
        )


def reduced_euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating face-count sum over dimensions >= -1; 0 for the null complex."""
    if k.is_null:
        return 0
    total = 0
    for d, faces in k.faces_by_dim().items():
        total += len(faces) if d % 2 == 0 else -len(faces)
    return total


@dataclass(frozen=True)
class HomologyProfile:
    """Dimensions of reduced homology per degree, zeros omitted from storage."""

    nonzero: dict[int, int] = field(default_factory=dict)
    complex_dim: int = -2

    def __getitem__(self, degree: int) -> int:
        return self.nonzero.get(degree, 0)

    @property
    def is_zero(self) -> bool:
        return not self.nonzero

    def degrees(self) -> range:
        return range(-1, self.complex_dim + 1)

    def render(self) -> str:
        if self.complex_dim < -1:
            return "H~ = []"
        body = ", ".join(str(self[d]) for d in self.degrees())
        return f"H~[-1..{self.complex_dim}] = [{body}]"


class ChainHomology:
    """Lazy Betti numbers of the augmented chain complex of a face family.

    Boundary ranks are computed and cached per dimension on demand, so a
    caller that only needs the top few degrees never pays for the rest.
    """

    def __init__(self, faces_by_dim: dict[int, list[int]], fieldspec: FieldSpec) -> None:
        self.faces = faces_by_dim
        self.field = fieldspec
        self._ranks: dict[int, int] = {}
        self._indexes: dict[int, dict[int, int]] = {}

    def _index(self, d: int) -> dict[int, int]:
        if d not in self._indexes:
            self._indexes[d] = {f: i for i, f in enumerate(self.faces.get(d, ()))}
        return self._indexes[d]

    def boundary_rank(self, d: int) -> int:
        """Rank of the boundary map from dimension d to dimension d-1."""
        if d in self._ranks:
            return self._ranks[d]
        rows = self.faces.get(d - 1, ())
        cols = self.faces.get(d, ())
        if not rows or not cols:
            self._ranks[d] = 0
            return 0
        row_index = self._index(d - 1)
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


def reduced_homology(k: SimplicialComplex, fieldspec: FieldSpec = GF2) -> HomologyProfile:
    """Reduced simplicial homology dimensions over the given field."""
    if k.is_null:
        return HomologyProfile({}, -2)
    chain = ChainHomology(k.faces_by_dim(), fieldspec)
    nonzero = {}
    for d in range(-1, k.dim + 1):
        b = chain.betti(d)
        if b:
            nonzero[d] = b
    return HomologyProfile(nonzero, k.dim)


def order_complex(p: SubsetPoset) -> SimplicialComplex:
    """The complex of chains of ``p``; vertex i is the i-th poset element."""
    return SimplicialComplex.from_faces(len(p), p.chain_masks())


def truncated_order_complex(interval: Interval) -> SimplicialComplex:
    """Order complex of the open interior of a closed interval.

    Degenerate cases: a rank-1 interval gives the empty complex
    {emptyset}, a rank-0 interval gives the null complex.
    """
    if interval.is_open:
        raise ValidationError("truncated order complex is taken on a closed interval")
    if interval.lo == interval.hi:
        return SimplicialComplex.null()
    interior = interval.open_members()
    if not len(interior):
        return SimplicialComplex.empty()
    return order_complex(interior)


def _chain_count(down: list[int], interior: int) -> int:
    """Number of chains of the elements in ``interior``, the empty chain included.

    ``counts[x]`` is the number of chains with top x; ascending indices
    follow the linear extension, so every element below x is done first.
    """
    counts: dict[int, int] = {}
    total = 1
    rest = interior
    while rest:
        low = rest & -rest
        rest ^= low
        x = low.bit_length() - 1
        c = 1
        below = down[x] & interior
        while below:
            y = below & -below
            below ^= y
            c += counts[y.bit_length() - 1]
        counts[x] = c
        total += c
    return total


def _crosscut_faces(
    verts: list[int], bounds: list[int], interior: int, limit: int
) -> list[int] | None:
    """Sets of ``verts`` with a common bound inside ``interior``; None past ``limit``.

    ``bounds[v]`` is the strict upper (or lower) set of v.  A face's
    running AND of ``bounds[v] | 1 << v`` over its vertices is the set
    of its common bounds in the interior, so a face extends only while
    that AND is nonzero.  Face bit k stands for ``verts[k]``.
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


def interval_complex(
    p: SubsetPoset, i: int, j: int, crosscut: bool = True
) -> SimplicialComplex:
    """A complex with the reduced homology of the open interval (e_i, e_j) of ``p``.

    Built from the comparability masks of ``p``; no sub-poset is made.
    As in ``truncated_order_complex``, i == j gives the null complex and
    a cover gives the empty complex {emptyset}.

    With ``crosscut``, which is valid when [e_i, e_j] is a lattice (every
    interval of an intersection-closed poset is one, with bitwise AND as
    meet), the result is the crosscut complex on the atoms or on the
    coatoms, whichever are fewer: the sets of atoms with a common upper
    bound below e_j, or of coatoms with a common lower bound above e_i.
    Rota's crosscut theorem makes it homotopy equivalent to the order
    complex of (e_i, e_j) (Rota 1964; Bjorner, "Topological methods",
    Handbook of Combinatorics, 1995, Thm 10.8).  When the crosscut
    complex has more faces than the interior has chains, or without
    ``crosscut``, the result is the order complex of the interior, on
    the vertices of ``p``.
    """
    up, down = p._up_strict, p._down_strict
    if i == j:
        return SimplicialComplex.null()
    if not up[i] >> j & 1:
        raise ValidationError(f"interval endpoints must satisfy e_{i} < e_{j}")
    interior = up[i] & down[j]
    if not interior:
        return SimplicialComplex.empty()
    if crosscut:
        atoms = _bits(p._covers_up[i] & down[j])
        coatoms = [x for x in _bits(interior) if not up[x] & interior]
        verts, bounds = (atoms, up) if len(atoms) <= len(coatoms) else (coatoms, down)
        # At most 2^k crosscut faces against at least 1 + |interior| chains:
        # the chains need counting only when the first can pass the second.
        limit = 1 << len(verts)
        if limit > 1 + interior.bit_count():
            limit = _chain_count(down, interior)
        faces = _crosscut_faces(verts, bounds, interior, limit)
        if faces is not None:
            return SimplicialComplex.from_faces(len(verts), faces)
    return SimplicialComplex.from_faces(len(p), p.chain_masks(interior))


def _face_poset(k: SimplicialComplex) -> SubsetPoset:
    """The faces of ``k``, the empty face included, ordered by inclusion.

    Vertices in no face are dropped, so the ground set is the used
    vertices, renumbered in ascending order.
    """
    faces = k.face_set()
    union = 0
    for f in faces:
        union |= f
    used = _bits(union)
    if len(used) > MAX_GROUND:
        raise CapExceededError(
            f"Cohen-Macaulay check is capped at {MAX_GROUND} used vertices, got {len(used)}"
        )
    pos = {v: t for t, v in enumerate(used)}
    return SubsetPoset.from_masks(
        len(used), [sum(1 << pos[v] for v in _bits(f)) for f in faces]
    )


def is_cohen_macaulay(k: SimplicialComplex, fieldspec: FieldSpec = GF2) -> bool:
    """True iff ``k`` is Cohen-Macaulay over the field; no link is built.

    Cohen-Macaulayness is a topological property (Munkres, "Topological
    results in combinatorics", 1984), and the order complex of the
    nonempty faces of ``k`` is its barycentric subdivision.  The order
    complex of a poset P is Cohen-Macaulay iff P with a bottom and a top
    adjoined is interval Cohen-Macaulay (Baclawski, "Cohen-Macaulay
    ordered sets", J. Algebra 1980).  So this is ``is_interval_cm`` on
    the face poset of ``k`` with the empty face as its bottom, made
    bounded.  The null complex and the empty complex {emptyset} are
    Cohen-Macaulay.
    """
    if k.dim < 0:
        return True
    return is_interval_cm(_face_poset(k).bounded(), fieldspec)


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
    Munkres 1984), which is how ``is_cohen_macaulay`` and ``check --cm``
    use it.  The answer depends on the field: homology is taken
    over ``fieldspec``.  Rank-0 and rank-1 intervals give the null and
    empty complexes, which count as Cohen-Macaulay.  The homology comes
    from ``interval_complex``, through crosscuts only when ``p`` is
    intersection-closed: other posets can have intervals that are not
    lattices.
    """
    crosscut = p.is_intersection_closed()
    for i, j, rank, graded in p.interval_ranks():
        if rank <= 1:
            continue
        if not graded:
            return False
        k = interval_complex(p, i, j, crosscut)
        chain = ChainHomology(k.faces_by_dim(), fieldspec)
        if any(chain.betti(d) for d in range(-1, rank - 2)):
            return False
    return True
