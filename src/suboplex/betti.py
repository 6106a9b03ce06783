"""Cellular resolutions on order complexes and multigraded Betti tables.

For an intersection-closed poset P the chain complex built on the order
complex of P, with each chain labeled by the monomial m(min, max),
resolves the dual ideal of the associated function class.  Multigraded
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
Moebius values in the same pass.  ``verify_acyclic`` reads each label
degree's subcomplex of ``cellular_resolution`` from the same masks.

A poset's symmetry maps each interval [A, B] onto an isomorphic
[gA, gB], with the same homology and Moebius value in degree m(gA, gB).
So the sweeps take ``SubsetPoset.interval_orbits``: homology once per
orbit of intervals, copied along the orbit, and ``_hdim_of_poset``
starts passes only from element-orbit representatives.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, MutableMapping

from .bitsets import SquarefreeMonomial, Subset, Value, is_int, mask_string, monomial
from .classes import FunctionClass, dual_ideal
from .complexes import (
    SimplicialComplex,
    _chain_homology,
    interval_homology,
    interval_is_cm,
    order_complex,
)
from .errors import CapExceededError, ValidationError
from .linalg import GF2, FieldSpec
from .posets import SubsetPoset

EXHAUSTIVE_ACYCLICITY_MAX_GROUND = 6
ACYCLICITY_MAX_FACES = 10**6


def _cell(n: int, key: tuple[int, SquarefreeMonomial]) -> tuple[int, int, int]:
    """The cell of an ``(i, SquarefreeMonomial)`` key in a table on ground n.

    Any other key, a monomial on another ground included, has no cell:
    KeyError.
    """
    try:
        i, m = key
        if is_int(i) and m.n == n:
            return i, m.support0.bits, m.support1.bits
    except (TypeError, ValueError, AttributeError):
        pass
    raise KeyError(key)


def _write_cell(n: int, key: tuple[int, SquarefreeMonomial]) -> tuple[int, int, int]:
    try:
        return _cell(n, key)
    except KeyError:
        raise ValidationError(
            f"Betti table key must be (int, SquarefreeMonomial on ground {n}), got {key!r}"
        ) from None


class _Entries(MutableMapping):
    """A ``BettiTable``'s cells seen through ``(i, SquarefreeMonomial)`` keys;
    reads build the monomials, writes go to the cells."""

    __slots__ = ("_table",)

    def __init__(self, table: "BettiTable") -> None:
        self._table = table

    def __getitem__(self, key: tuple[int, SquarefreeMonomial]) -> int:
        return self._table.cells[_cell(self._table.n, key)]

    def __setitem__(self, key: tuple[int, SquarefreeMonomial], value: int) -> None:
        self._table.cells[_write_cell(self._table.n, key)] = value

    def __delitem__(self, key: tuple[int, SquarefreeMonomial]) -> None:
        del self._table.cells[_cell(self._table.n, key)]

    def __iter__(self) -> Iterator[tuple[int, SquarefreeMonomial]]:
        n = self._table.n
        for i, s0, s1 in self._table.cells:
            yield i, SquarefreeMonomial(Subset(n, s0), Subset(n, s1))

    def __len__(self) -> int:
        return len(self._table.cells)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class BettiTable(Value):
    """Multigraded Betti numbers: (homological index, multidegree) -> value.

    Only nonzero entries are stored, as ``cells``: (i, support0 mask,
    support1 mask) -> value, so beta_{i, m(A, B)} sits at (i, B, [n] \\ A).
    ``entries`` and ``get`` speak in ``SquarefreeMonomial`` keys: ``entries``
    is a mapping over the cells that builds its keys on demand and writes
    through.  A monomial on another ground reads as missing, and writing a
    key that is not (int, monomial on ground n) raises ValidationError.
    Rendering and Z-graded aggregation reconstruct the
    rectangular shape.  Unlike the other value types it is mutable and so
    unhashable.
    """

    _fields = ("n", "entries")
    n: int
    cells: dict[tuple[int, int, int], int]
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, n: int, entries: Mapping[tuple[int, SquarefreeMonomial], int]) -> None:
        self.n = n
        self.entries = entries

    @classmethod
    def from_cells(cls, n: int, cells: dict[tuple[int, int, int], int]) -> "BettiTable":
        table = cls.__new__(cls)
        table.n, table.cells = n, cells
        return table

    @property
    def entries(self) -> _Entries:
        return _Entries(self)

    @entries.setter
    def entries(self, entries: Mapping[tuple[int, SquarefreeMonomial], int]) -> None:
        self.cells = {_write_cell(self.n, key): v for key, v in entries.items()}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.cells == other.cells

    def __reduce__(self):
        return type(self).from_cells, (self.n, self.cells)

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
        homological index i; zeros print as '.'.
        """
        graded = self.z_graded()
        totals = self.totals()
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


class LabeledComplex(Value):
    """The order complex of a poset with faces labeled by monomials.

    A chain's label is m(min, max), the lcm of its vertex labels; the
    empty face is labeled 1.
    """

    _fields = ("poset", "complex", "labels")
    poset: SubsetPoset
    complex: SimplicialComplex
    labels: dict[int, SquarefreeMonomial]

    def __init__(
        self, poset: SubsetPoset, complex: SimplicialComplex, labels: dict[int, SquarefreeMonomial]
    ) -> None:
        self._assign(poset, complex, labels)


def cellular_resolution(p: SubsetPoset) -> LabeledComplex:
    """Labeled order complex supporting a free resolution of the dual ideal."""
    if not p.is_intersection_closed():
        raise ValidationError("cellular resolution requires an intersection-closed poset")
    k = order_complex(p)
    labels: dict[int, SquarefreeMonomial] = {}
    for faces in k.faces_by_dim().values():
        for f in faces:
            if f == 0:
                labels[f] = SquarefreeMonomial.one(p.n)
            else:
                lo = (f & -f).bit_length() - 1
                hi = f.bit_length() - 1
                labels[f] = monomial(p.elements[lo], p.elements[hi])
    return LabeledComplex(poset=p, complex=k, labels=labels)


def verify_acyclic(p: SubsetPoset, fieldspec: FieldSpec = GF2, exhaustive: bool = False) -> bool:
    """Check that ``cellular_resolution(p)`` is acyclic in every label degree under test.

    A chain's label m(A, B) divides m(L, U) iff L <= A and B <= U, so the
    subcomplex of degree m(L, U) is the order complex of the members
    between L and U, read from the comparability masks; its reduced
    homology must vanish.  The degrees are the realized labels m(e_i, e_j),
    whose subcomplexes are the closed intervals [e_i, e_j], one per orbit
    under the poset's symmetry, or with ``exhaustive`` all 4^n squarefree
    degrees (small ground sets only).  Past ``ACYCLICITY_MAX_FACES`` chains
    in all closed intervals, 2 per member and 4 per chain of each open
    interval, it raises before listing any.
    """
    if not p.is_intersection_closed():
        raise ValidationError("cellular resolution requires an intersection-closed poset")
    if exhaustive and p.n > EXHAUSTIVE_ACYCLICITY_MAX_GROUND:
        raise CapExceededError(
            "exhaustive acyclicity check is capped at ground size "
            f"{EXHAUSTIVE_ACYCLICITY_MAX_GROUND}, got {p.n}"
        )
    up, down = p._up_strict, p._down_strict
    faces, spans = 2 * len(p), [1 << i for i in p.orbit_representatives()]
    for (i, j, *_, chains), pairs in p.interval_orbits():
        faces += 4 * chains * len(pairs)
        spans.append(up[i] & down[j] | 1 << i | 1 << j)
    if faces > ACYCLICITY_MAX_FACES:
        raise CapExceededError(
            f"acyclicity check is capped at {ACYCLICITY_MAX_FACES} faces, got {faces}"
        )
    if exhaustive:
        spans = {
            sum(1 << x for x, m in enumerate(p._masks) if lo & m == lo and m & hi == m)
            for lo in range(1 << p.n)
            for hi in range(1 << p.n)
        } - {0}
    for span in spans:
        chain = _chain_homology(p.chain_masks(span), fieldspec)
        if any(chain.betti(d) for d in chain.faces):
            return False
    return True


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
    return BettiTable.from_cells(p.n, cells)


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
    return BettiTable.from_cells(p.n, cells)


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
