"""Simplicial complexes, order complexes, and exact reduced homology.

Faces are bit masks over a vertex universe, and a complex is its
facets, fixed at construction.  The augmented chain
complex always carries the empty face in dimension -1, so the
(-1)-st reduced homology is nonzero exactly for the empty complex
{emptyset}.  Two degenerate complexes are kept distinct throughout:

* the null complex (no faces at all), and
* the empty complex {emptyset} (one face, the empty set).

Boundary signs come from ascending vertex order within each face,
which matters over fields other than GF(2).

Homology is taken by ``homology.ChainHomology``, the class the interval
sweeps use; the sweeps themselves live in ``homology`` and build no
``SimplicialComplex``, so a ``betti``, ``hdim`` or ``check
--interval-cm`` call never runs this module.  Cohen-Macaulayness of a
complex is read from interval homology of its face poset.
"""

from __future__ import annotations

from .bitsets import MAX_GROUND, Value, _bits
from .errors import CapExceededError, ValidationError
from .homology import ChainHomology, _by_dim, is_interval_cm
from .linalg import GF2, FieldSpec
from .posets import Interval, SubsetPoset

CM_MAX_FACES = 1024


def _submasks(mask: int):
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class SimplicialComplex:
    """An abstract simplicial complex, given by ``facets``: its maximal faces as
    ascending bit masks, ``()`` for the null complex, set by every constructor.
    The face set is a cache, filled when a constructor has it or on first use."""

    __slots__ = ("num_vertices", "facets", "_face_set")

    def __init__(self, num_vertices: int, facets: tuple[int, ...]) -> None:
        self.num_vertices = num_vertices
        self.facets = facets
        self._face_set: set[int] | None = None

    @classmethod
    def null(cls) -> "SimplicialComplex":
        return cls(0, ())

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        """The empty complex {emptyset}."""
        return cls(0, (0,))

    @classmethod
    def from_facets(cls, num_vertices: int, facets) -> "SimplicialComplex":
        """Build from any family of faces, keeping the maximal ones.

        Column v has bit i set iff mask i holds v.  Mask j is maximal iff
        the AND of its vertices' columns is bit j alone; the empty face,
        an AND over no column, is maximal only alone.  The columns are
        ORed up from set bits: the vertex count has no cap, so dense rows
        transposed by ``bitsets._columns`` would cost masks x vertices.
        """
        masks = sorted(set(facets))
        columns: dict[int, int] = {}
        for i, f in enumerate(masks):
            if f < 0 or f >> num_vertices:
                raise ValidationError(
                    f"facet 0x{f:x} uses vertices outside range({num_vertices})"
                )
            for v in _bits(f):
                columns[v] = columns.get(v, 0) | 1 << i
        everyone = (1 << len(masks)) - 1
        maximal = []
        for j, f in enumerate(masks):
            above = everyone
            for v in _bits(f):
                above &= columns[v]
            if above == 1 << j:
                maximal.append(f)
        return cls(num_vertices, tuple(maximal))

    @classmethod
    def from_faces(cls, num_vertices: int, faces) -> "SimplicialComplex":
        """Build from an explicit subset-closed family of faces.

        The empty face is implied whenever the family is nonempty.  The
        facets are the faces that are no face less one vertex: in a
        subset-closed family a face under a larger face lies under one
        with one more vertex.
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
        facets = face_set.difference(f ^ 1 << v for f in face_set for v in _bits(f))
        k = cls(num_vertices, tuple(sorted(facets)))
        k._face_set = face_set
        return k

    @property
    def is_null(self) -> bool:
        return self.facets == ()

    @property
    def is_empty_complex(self) -> bool:
        return self.dim == -1

    def face_set(self) -> set[int]:
        if self._face_set is None:
            faces: set[int] = set()
            for f in self.facets:
                for sub in _submasks(f):
                    faces.add(sub)
            self._face_set = faces
        return self._face_set

    def faces_by_dim(self) -> dict[int, list[int]]:
        """Faces grouped by dimension; includes {-1: [0]} for nonnull complexes."""
        return _by_dim(self.face_set())

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex, -2 for the null complex."""
        if self.is_null:
            return -2
        return max(f.bit_count() for f in self.facets) - 1

    def __contains__(self, face: int) -> bool:
        return face in self.face_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def link(self, face: int) -> "SimplicialComplex":
        """The link of ``face``: all G disjoint from it with G | face a face."""
        faces = self.face_set()
        if face not in faces:
            raise ValidationError(f"link of a non-face 0x{face:x}")
        return SimplicialComplex.from_faces(
            self.num_vertices, [h ^ face for h in faces if h & face == face]
        )


class HomologyProfile(Value):
    """Dimensions of reduced homology per degree, zeros omitted from storage.

    ``nonzero`` defaults to a new empty dict.
    """

    _fields = ("nonzero", "complex_dim")
    nonzero: dict[int, int]
    complex_dim: int

    def __init__(self, nonzero: dict[int, int] | None = None, complex_dim: int = -2) -> None:
        self._assign({} if nonzero is None else nonzero, complex_dim)

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


def _face_poset(k: SimplicialComplex) -> SubsetPoset:
    """The faces of ``k``, the empty face included, ordered by inclusion.

    Vertices in no face are dropped, so the ground set is the used
    vertices, renumbered in ascending order.  Before any facet is
    expanded, the face count, at most sum(2^|F|) over the facets F, is capped.
    """
    size = len(k._face_set or ()) or sum(1 << f.bit_count() for f in k.facets)
    if size > CM_MAX_FACES:
        raise CapExceededError(f"Cohen-Macaulay check is capped at {CM_MAX_FACES} faces, got {size}")
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


