"""Cellular resolutions on order complexes and multigraded Betti tables.

For an intersection-closed poset P the chain complex built on the order
complex of P, with each chain labeled by the monomial m(min, max),
resolves the dual ideal of the associated function class.  That it is a
resolution needs no computation.  By the Bayer-Sturmfels criterion
("Cellular resolutions of monomial modules", J. reine angew. Math.
1998) it is one when each subcomplex of a degree m(L, U) has zero
reduced homology.  That subcomplex is the order complex of the members
x with L <= x <= U.  Any nonempty set of them is closed under AND, so it
has a least element and the subcomplex is a cone.  This is the paper's
proof, and ``check --acyclic`` answers from it alone: yes for every
intersection-closed poset, and a refusal for any other.  Multigraded
Betti numbers are read off per closed interval [A, B] from the reduced
homology of the open interval (A, B), or, on interval Cohen-Macaulay
posets, directly from Moebius values.  Interval Cohen-Macaulayness
depends on the field, so ``betti_via_mobius`` checks it over the
field it is given and refuses posets that fail it.

Every closed interval of P is a lattice with bitwise AND as meet, so
Rota's crosscut theorem (Bjorner, "Topological methods", Handbook of
Combinatorics, 1995, Thm 10.8) gives that homology from the complex of
atom sets with an upper bound below B, or of coatom sets with a lower
bound above A.  ``interval_homology`` takes the chain complex of the
smaller of the two, or of the order complex of (A, B) when that has
fewer faces, straight from the comparability masks of P; no sweep
builds a ``SimplicialComplex``.  Every sweep reads the rank, Moebius
value and chain count of each interval from one pass per bottom
element, ``SubsetPoset.intervals_above``, and walks intervals no other
way; ``betti_via_mobius`` tests interval Cohen-Macaulayness and reads
Moebius values in the same pass.

A poset's symmetry maps each interval [A, B] onto an isomorphic
[gA, gB], with the same homology and Moebius value in degree m(gA, gB).
So the sweeps take ``SubsetPoset.interval_orbits``: homology once per
orbit of intervals, copied along the orbit, and ``_hdim_of_poset``
starts passes only from element-orbit representatives.
"""

from __future__ import annotations

from collections.abc import Mapping

from .bitsets import SquarefreeMonomial, Subset, Value, is_int, mask_string
from .classes import FunctionClass, dual_ideal
from .complexes import interval_homology, interval_is_cm
from .errors import ValidationError
from .linalg import GF2, FieldSpec
from .posets import SubsetPoset


class BettiTable(Value):
    """Multigraded Betti numbers: (homological index, multidegree) -> value.

    Only nonzero entries are stored, as ``cells``: (i, support0 mask,
    support1 mask) -> value, so beta_{i, m(A, B)} sits at (i, B, [n] \\ A).
    The constructor stores the cells it is given unchecked, as the sweeps
    and the oracle write them; ``from_entries`` builds a table from
    ``(i, SquarefreeMonomial)`` keys and refuses any other key.
    ``entries`` and ``get`` read back in monomial keys, and a monomial on
    another ground reads as 0.  Rendering and Z-graded aggregation
    reconstruct the rectangular shape.  The cells are a dict, so a table
    is unhashable.
    """

    __slots__ = _fields = ("n", "cells")
    n: int
    cells: dict[tuple[int, int, int], int]
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, n: int, cells: dict[tuple[int, int, int], int]) -> None:
        self._assign(n, cells)

    @classmethod
    def from_entries(
        cls, n: int, entries: Mapping[tuple[int, SquarefreeMonomial], int]
    ) -> "BettiTable":
        cells: dict[tuple[int, int, int], int] = {}
        for key, v in entries.items():
            try:
                i, m = key
                if is_int(i) and m.n == n:
                    cells[(i, m.support0.bits, m.support1.bits)] = v
                    continue
            except (TypeError, ValueError, AttributeError):
                pass
            raise ValidationError(
                f"Betti table key must be (int, SquarefreeMonomial on ground {n}), got {key!r}"
            )
        return cls(n, cells)

    @property
    def entries(self) -> dict[tuple[int, SquarefreeMonomial], int]:
        """A new dict of the cells keyed by ``(i, SquarefreeMonomial)``."""
        n = self.n
        return {
            (i, SquarefreeMonomial(Subset(n, s0), Subset(n, s1))): v
            for (i, s0, s1), v in self.cells.items()
        }

    def get(self, i: int, m: SquarefreeMonomial) -> int:
        if m.n != self.n:
            return 0
        return self.cells.get((i, m.support0.bits, m.support1.bits), 0)

    @property
    def projective_dimension(self) -> int:
        if not self.cells:
            raise ValidationError("empty Betti table has no projective dimension")
        return max(i for i, _, _ in self.cells)

    def total(self, i: int) -> int:
        return sum(v for (j, _, _), v in self.cells.items() if j == i)

    def totals(self) -> list[int]:
        out = [0] * (self.projective_dimension + 1)
        for (i, _, _), v in self.cells.items():
            out[i] += v
        return out

    def z_graded(self) -> dict[tuple[int, int], int]:
        """Collapse multidegrees to total degree: (i, j) -> sum of entries."""
        out: dict[tuple[int, int], int] = {}
        for (i, s0, s1), v in self.cells.items():
            key = (i, s0.bit_count() + s1.bit_count())
            out[key] = out.get(key, 0) + v
        return out

    def render(self) -> str:
        """Text Betti table: a total row, then one row per degree offset.

        Row label r lists the entries with total degree i + r for each
        homological index i; zeros print as '.'.  The cells are walked
        once, into the Z-graded sums; the totals come from those.
        """
        graded = self.z_graded()
        if not graded:
            raise ValidationError("empty Betti table has no projective dimension")
        totals = [0] * (1 + max(i for i, _ in graded))
        for (i, _), v in graded.items():
            totals[i] += v
        offsets = [j - i for (i, j) in graded]
        lines = ["total: " + " ".join(map(str, totals))]
        for r in range(min(offsets), max(offsets) + 1):
            row = [graded.get((i, i + r), 0) for i in range(len(totals))]
            lines.append(f"{r}: " + " ".join(str(v) if v else "." for v in row))
        return "\n".join(lines)

    def render_json(self) -> str:
        """The text ``json.dumps({"entries": [...]})`` writes for this table.

        Entries are {"i", "degree", "value"} by (i, degree, support masks);
        m(A, B) is written from the masks, each distinct mask's string
        rendered once.  A degree holds only letters, digits and ``_*(),``,
        so nothing needs escaping.
        """
        n, full = self.n, (1 << self.n) - 1
        rows = sorted(
            (i, s0.bit_count() + s1.bit_count(), s0, s1, v) for (i, s0, s1), v in self.cells.items()
        )
        ends = {s0 for _, _, s0, _, _ in rows} | {full & ~s1 for _, _, _, s1, _ in rows}
        names = {m: mask_string(n, m) for m in ends}
        out = []
        for i, _, s0, s1, v in rows:
            if s0 | s1 == full:
                degree = f"m({names[full & ~s1]},{names[s0]})"
            else:
                degree = str(SquarefreeMonomial(Subset(n, s0), Subset(n, s1)))
            out.append(f'{{"i": {i}, "degree": "{degree}", "value": {v}}}')
        return '{"entries": [' + ", ".join(out) + "]}"


def _member_cells(p: SubsetPoset) -> tuple[list[int], dict[tuple[int, int, int], int]]:
    """The mask of [n] \\ A for each member A, and the ``BettiTable`` cells of
    beta_0: one generator m(A, A) per member."""
    full = (1 << p.n) - 1
    outside = [full ^ m for m in p._masks]
    return outside, {(0, m, c): 1 for m, c in zip(p._masks, outside)}


def betti_via_intervals(p: SubsetPoset, fieldspec: FieldSpec = GF2) -> BettiTable:
    """Multigraded Betti numbers of the dual ideal from interval homology.

    beta_0 contributes one generator per poset element in degree
    m(A, A); for i >= 1, beta_{i, m(A,B)} is the (i-2)-nd reduced
    homology of the open interval (A, B), from ``interval_homology``.
    Only degrees up to rank - 2 are computed: the order complex of
    (A, B) has no faces above them.
    """
    if not p.is_intersection_closed():
        raise ValidationError("interval Betti numbers require an intersection-closed poset")
    masks = p._masks
    outside, cells = _member_cells(p)
    for (i, j, rank, _, _, chains), pairs in p.interval_orbits():
        chain = interval_homology(p, i, j, chains, fieldspec)
        for d in range(-1, rank - 1):
            v = chain.betti(d)
            if v:
                for a, b in pairs:
                    cells[(d + 2, masks[b], outside[a])] = v
    return BettiTable(p.n, cells)


def betti_via_mobius(p: SubsetPoset, fieldspec: FieldSpec = GF2) -> BettiTable:
    """Betti numbers from Moebius values, on interval Cohen-Macaulay posets.

    beta_{i, m(A,B)} = |mu(A, B)| when the interval [A, B] has rank i.
    The formula holds only where ``p`` is interval Cohen-Macaulay over
    the field, and that depends on the field.  So one pass tests each
    interval as ``is_interval_cm(p, fieldspec)`` does, raising
    ``ValidationError`` at the first that fails, and reads mu.
    """
    if not p.is_intersection_closed():
        raise ValidationError("Moebius Betti numbers require an intersection-closed poset")
    masks = p._masks
    outside, cells = _member_cells(p)
    for row, pairs in p.interval_orbits():
        if not interval_is_cm(p, row, fieldspec):
            raise ValidationError("Moebius Betti numbers require an interval Cohen-Macaulay poset")
        _, _, rank, _, mu, _ = row
        if mu:
            for a, b in pairs:
                cells[(rank, masks[b], outside[a])] = abs(mu)
    return BettiTable(p.n, cells)


def _hdim_of_poset(p: SubsetPoset, fieldspec: FieldSpec) -> int:
    """Projective dimension of the dual ideal, with rank-based pruning.

    An interval of rank r can only contribute indices up to r, so each
    bottom's intervals are visited by decreasing rank, with the running
    best used to stop.  ``p`` is intersection-closed, so e_0 is its
    bottom, and a chain from e_0 up to e_i bounds the rank of every
    interval [e_i, e_j] by height - depth_0(i).  Only element-orbit
    representatives are bottoms: the poset's symmetry maps the intervals
    above e_i onto isomorphic ones above its representative.  Bottom 0
    goes first, then the others by decreasing bound, up to the first
    whose bound cannot beat the best; the passes of the rest are never
    run.  Homology degrees are probed top-down and lazily.
    """
    rows0 = list(p.intervals_above(0))
    depth0 = {0: 0, **{j: rank for j, rank, *_ in rows0}}
    height = max(depth0.values())
    best = 0
    for i in sorted(p.orbit_representatives(), key=depth0.__getitem__):
        if height - depth0[i] <= best:
            break
        rows = rows0 if i == 0 else p.intervals_above(i)
        for j, rank, _, _, chains in sorted(rows, key=lambda row: -row[1]):
            if rank <= best:
                break
            chain = interval_homology(p, i, j, chains, fieldspec)
            for d in range(rank - 2, best - 2, -1):
                if chain.betti(d):
                    best = d + 2
                    break
    return best


def homological_dimension(c: FunctionClass, fieldspec: FieldSpec = GF2) -> int:
    """Projective dimension of the class's dual ideal.

    Intersection-closed classes go through interval homology of the
    support poset; others fall back to the brute-force Betti oracle.
    """
    if c.is_intersection_closed():
        return _hdim_of_poset(c.support_poset(), fieldspec)
    from .oracles import betti_oracle

    return betti_oracle(dual_ideal(c), fieldspec).projective_dimension
