"""Matroids given by rank functions, and their flat lattices.

Supported constructions: uniform matroids, linear matroids over a
prime field (columns of a matrix are the ground elements), graphic
matroids (cycle matroids of edge lists), and direct sums.  Flats are
enumerated level by level, one closure per cover, and a linear
matroid's closure takes one row elimination.
"""

from __future__ import annotations

from typing import Sequence

from .. import linalg  # runs on first use: uniform, graphic and direct-sum flats never need it
from ..errors import CapExceededError, ValidationError
from ..posets import SubsetPoset, check_members

FLATS_MAX_GROUND = 16


class Matroid:
    """A matroid on ground set [m], defined by its rank function.

    ``symmetry`` lists permutations of [m] known to preserve the rank
    function; ``flats`` hands them to its poset.  None by default.
    """

    symmetry: Sequence[Sequence[int]] = ()

    def __init__(self, m: int) -> None:
        if not isinstance(m, int) or m < 1:
            raise ValidationError(f"matroid ground size must be a positive integer, got {m!r}")
        self.m = m
        self._rank_cache: dict[int, int] = {}

    def _rank_mask(self, mask: int) -> int:
        raise NotImplementedError

    def rank_mask(self, mask: int) -> int:
        hit = self._rank_cache.get(mask)
        if hit is None:
            hit = self._rank_mask(mask)
            self._rank_cache[mask] = hit
        return hit

    def closure_mask(self, mask: int) -> int:
        r = self.rank_mask(mask)
        out = mask
        for e in range(self.m):
            bit = 1 << e
            if not mask & bit and self.rank_mask(mask | bit) == r:
                out |= bit
        return out

    def flats(self) -> SubsetPoset:
        """The lattice of flats, built level by level from the bottom flat
        through ``_cover_masks``; the member cap is checked at each new flat."""
        if self.m > FLATS_MAX_GROUND:
            raise CapExceededError(
                f"flat enumeration is capped at ground size {FLATS_MAX_GROUND}, got {self.m}"
            )
        bottom = self.closure_mask(0)
        collected = {bottom}
        frontier = [bottom]
        while frontier:
            fresh = []
            for f in frontier:
                for g in self._cover_masks(f):
                    if g not in collected:
                        collected.add(g)
                        check_members(len(collected), "flat enumeration")
                        fresh.append(g)
            frontier = fresh
        return SubsetPoset.from_masks(self.m, collected, self.symmetry)

    def _cover_masks(self, f: int) -> list[int]:
        """The flats covering the flat ``f``.

        They partition the elements outside ``f`` (Oxley, *Matroid Theory*,
        section 1.4), so each takes one closure, of its lowest element
        left, and clears all of its elements.
        """
        covers, rest = [], (1 << self.m) - 1 ^ f
        while rest:
            g = self.closure_mask(f | rest & -rest)
            covers.append(g)
            rest &= ~g
        return covers

class UniformMatroid(Matroid):
    """U(k, m): rank of A is min(|A|, k)."""

    def __init__(self, k: int, m: int) -> None:
        super().__init__(m)
        if not 0 <= k <= m:
            raise ValidationError(f"uniform matroid needs 0 <= k <= m, got k={k}, m={m}")
        self.k = k

    @property
    def symmetry(self) -> list[list[int]]:
        """A transposition and an m-cycle, generating S_m.

        Built on demand: they take O(m) memory, and ``flats`` reads them
        only after its ground-size cap.
        """
        m = self.m
        return [[1, 0, *range(2, m)], [*range(1, m), 0]] if m > 1 else []

    def _rank_mask(self, mask: int) -> int:
        return min(mask.bit_count(), self.k)


class LinearMatroid(Matroid):
    """Columns of a matrix over GF(p); rank is column-space rank."""

    def __init__(
        self, p: int, columns: list[tuple[int, ...]], symmetry: Sequence[Sequence[int]] = ()
    ) -> None:
        super().__init__(len(columns))
        self.symmetry = symmetry
        heights = {len(c) for c in columns}
        if len(heights) != 1:
            raise ValidationError("matrix columns must all have the same height")
        if not isinstance(p, int):
            raise ValidationError(f"field characteristic must be a prime integer, got {p!r}")
        self.field = linalg.FieldSpec(p)
        self.p = p
        self.columns = tuple(tuple(int(x) % p for x in c) for c in columns)
        self._sparse = tuple([(r, x) for r, x in enumerate(c) if x] for c in self.columns)
        self._rows = tuple(
            [(e, c[r]) for e, c in enumerate(self.columns) if c[r]] for r in range(heights.pop())
        )
        self._row_bits = tuple(sum(1 << e for e, _ in row) for row in self._rows)

    @classmethod
    def from_rows(cls, p: int, rows: list[list[int]]) -> "LinearMatroid":
        if not rows or not rows[0]:
            raise ValidationError("matrix must be nonempty")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValidationError("matrix rows must all have the same width")
        columns = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]
        return cls(p, columns)

    def _rank_mask(self, mask: int) -> int:
        chosen = [self._sparse[i] for i in range(self.m) if mask >> i & 1]
        return linalg.rank_from_columns(chosen, len(self.columns[0]), self.field)

    def closure_mask(self, mask: int) -> int:
        """The columns in the span of those in ``mask``, from one elimination.

        Row operations keep every linear relation among the columns.  So the
        rows are reduced with the coordinates of ``mask`` ordered above all
        others; the pivots whose top lies outside ``mask`` span the row
        vectors that vanish on ``mask``, and the closure is the columns on
        which they all vanish.  Over GF(2) a row is a bit mask over the
        columns, otherwise a ``{column: coefficient}`` dict.
        """
        m = self.m
        if self.p == 2:
            pivots = linalg.pivot_bits([r & ~mask | (r & mask) << m for r in self._row_bits])
        else:
            shifted = [[(e + m if mask >> e & 1 else e, x) for e, x in row] for row in self._rows]
            pivots = linalg.pivot_columns(shifted, self.field)
        loose = 0
        for top, u in pivots.items():
            if top < m:
                loose |= u if self.p == 2 else sum(1 << e for e in u)
        return (1 << m) - 1 ^ loose


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph: rank of an edge set is |V touched| - #components.

    Only vertices that some edge touches matter; they are numbered once,
    so a rank call takes memory in the number of edges, not of vertices.
    """

    def __init__(self, num_vertices: int, edges: list[tuple[int, int]]) -> None:
        super().__init__(len(edges))
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValidationError(f"edge ({u}, {v}) out of range({num_vertices})")
        self.num_vertices = num_vertices
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        touched = {x: i for i, x in enumerate(sorted({x for e in self.edges for x in e}))}
        self._ends = tuple((touched[u], touched[v]) for u, v in self.edges)
        self._touched = len(touched)

    def _rank_mask(self, mask: int) -> int:
        parent = list(range(self._touched))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for i in range(self.m):
            if mask >> i & 1:
                a, b = map(find, self._ends[i])
                if a != b:
                    parent[a] = b
                    rank += 1
        return rank


class DirectSumMatroid(Matroid):
    """Direct sum; part grounds occupy consecutive index blocks."""

    def __init__(self, parts: list[Matroid]) -> None:
        if not parts:
            raise ValidationError("direct sum needs at least one part")
        super().__init__(sum(p.m for p in parts))
        self.parts = tuple(parts)
        offsets = []
        at = 0
        for p in parts:
            offsets.append(at)
            at += p.m
        self._offsets = tuple(offsets)

    def _rank_mask(self, mask: int) -> int:
        total = 0
        for part, off in zip(self.parts, self._offsets):
            total += part.rank_mask((mask >> off) & ((1 << part.m) - 1))
        return total
