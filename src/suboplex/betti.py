"""Cellular resolutions on order complexes and multigraded Betti tables.

For an intersection-closed poset P the chain complex built on the order
complex of P, with each chain labeled by the monomial m(min, max),
resolves the dual ideal of the associated function class.  Multigraded
Betti numbers are read off per closed interval from the reduced
homology of its truncated order complex, or, on interval
Cohen-Macaulay posets, directly from Moebius values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .bitsets import SquarefreeMonomial, monomial
from .classes import FunctionClass, dual_ideal
from .complexes import (
    ChainHomology,
    SimplicialComplex,
    order_complex,
    reduced_homology,
    truncated_order_complex,
)
from .errors import CapExceededError, ValidationError
from .linalg import GF2, FieldSpec
from .posets import SubsetPoset

EXHAUSTIVE_ACYCLICITY_MAX_GROUND = 6


@dataclass
class BettiTable:
    """Multigraded Betti numbers: (homological index, multidegree) -> value.

    Only nonzero entries are stored.  Rendering and Z-graded
    aggregation reconstruct the rectangular shape.
    """

    n: int
    entries: dict[tuple[int, SquarefreeMonomial], int]

    def get(self, i: int, m: SquarefreeMonomial) -> int:
        return self.entries.get((i, m), 0)

    @property
    def projective_dimension(self) -> int:
        if not self.entries:
            raise ValidationError("empty Betti table has no projective dimension")
        return max(i for i, _ in self.entries)

    def total(self, i: int) -> int:
        return sum(v for (j, _), v in self.entries.items() if j == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.projective_dimension + 1)]

    def z_graded(self) -> dict[tuple[int, int], int]:
        """Collapse multidegrees to total degree: (i, j) -> sum of entries."""
        out: dict[tuple[int, int], int] = {}
        for (i, m), v in self.entries.items():
            key = (i, m.degree)
            out[key] = out.get(key, 0) + v
        return out

    def render(self) -> str:
        """Text Betti table: a total row, then one row per degree offset.

        Row label r lists the entries with total degree i + r for each
        homological index i; zeros print as '.'.
        """
        graded = self.z_graded()
        pd = self.projective_dimension
        offsets = [j - i for (i, j) in graded]
        lines = ["total: " + " ".join(str(self.total(i)) for i in range(pd + 1))]
        for r in range(min(offsets), max(offsets) + 1):
            cells = [graded.get((i, i + r), 0) for i in range(pd + 1)]
            lines.append(f"{r}: " + " ".join(str(v) if v else "." for v in cells))
        return "\n".join(lines)

    def json_entries(self) -> list[dict]:
        def degree_text(m: SquarefreeMonomial) -> str:
            if m.has_full_support:
                a, b = m.set_pair()
                return f"m({a},{b})"
            return str(m)

        items = sorted(
            self.entries.items(),
            key=lambda kv: (kv[0][0], kv[0][1].degree, kv[0][1].support0.bits, kv[0][1].support1.bits),
        )
        return [
            {"i": i, "degree": degree_text(m), "value": v} for (i, m), v in items
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries


def betti_table_render(table: BettiTable) -> str:
    return table.render()


@dataclass(frozen=True)
class LabeledComplex:
    """The order complex of a poset with faces labeled by monomials.

    A chain's label is m(min, max), the lcm of its vertex labels; the
    empty face is labeled 1.
    """

    poset: SubsetPoset
    complex: SimplicialComplex
    labels: dict[int, SquarefreeMonomial]


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


def verify_acyclic(
    labeled: LabeledComplex, fieldspec: FieldSpec = GF2, exhaustive: bool = False
) -> bool:
    """Check that every label-restricted subcomplex has zero reduced homology.

    For each degree b under test, the subcomplex of nonempty faces whose
    label divides b must be null or have vanishing reduced homology in
    all degrees.  By default b ranges over realized face labels; with
    ``exhaustive`` it ranges over all squarefree degrees (small ground
    sets only).
    """
    n = labeled.poset.n
    nonempty = [(f, lab) for f, lab in labeled.labels.items() if f != 0]
    if exhaustive:
        if n > EXHAUSTIVE_ACYCLICITY_MAX_GROUND:
            raise CapExceededError(
                "exhaustive acyclicity check is capped at ground size "
                f"{EXHAUSTIVE_ACYCLICITY_MAX_GROUND}, got {n}"
            )
        from .bitsets import Subset

        degrees = [
            SquarefreeMonomial(Subset(n, s0), Subset(n, s1))
            for s0 in range(1 << n)
            for s1 in range(1 << n)
        ]
    else:
        degrees = sorted(
            {lab for _, lab in nonempty},
            key=lambda m: (m.degree, m.support0.bits, m.support1.bits),
        )
    nv = labeled.complex.num_vertices
    for b in degrees:
        faces = [f for f, lab in nonempty if lab.divides(b)]
        if not faces:
            continue
        sub = SimplicialComplex.from_faces(nv, faces)
        if not reduced_homology(sub, fieldspec).is_zero:
            return False
    return True


def _interval_entries(
    p: SubsetPoset, i: int, j: int, fieldspec: FieldSpec
) -> list[tuple[int, SquarefreeMonomial, int]]:
    iv = p.interval(p.elements[i], p.elements[j])
    profile = reduced_homology(truncated_order_complex(iv), fieldspec)
    if profile.is_zero:
        return []
    deg = monomial(p.elements[i], p.elements[j])
    return [(d + 2, deg, v) for d, v in profile.nonzero.items()]


def betti_via_intervals(p: SubsetPoset, fieldspec: FieldSpec = GF2) -> BettiTable:
    """Multigraded Betti numbers of the dual ideal from interval homology.

    beta_0 contributes one generator per poset element in degree
    m(A, A); for i >= 1, beta_{i, m(A,B)} is the (i-2)-nd reduced
    homology of the truncated order complex of [A, B].
    """
    if not p.is_intersection_closed():
        raise ValidationError("interval Betti numbers require an intersection-closed poset")
    entries: dict[tuple[int, SquarefreeMonomial], int] = {}
    for a in p.elements:
        entries[(0, monomial(a, a))] = 1
    for a, b, _, _ in p.interval_ranks():
        for i, deg, v in _interval_entries(p, a, b, fieldspec):
            entries[(i, deg)] = v
    return BettiTable(n=p.n, entries=entries)


def betti_via_mobius(p: SubsetPoset, interval_cm_checked: bool = False) -> BettiTable:
    """Betti numbers from Moebius values, valid on interval Cohen-Macaulay posets.

    beta_{i, m(A,B)} = |mu(A, B)| when the interval [A, B] has rank i.
    Field-independent.  Callers should verify interval Cohen-
    Macaulayness first (``is_interval_cm``); otherwise a warning is
    emitted since the formula can be wrong on other posets.
    """
    if not p.is_intersection_closed():
        raise ValidationError("Moebius Betti numbers require an intersection-closed poset")
    if not interval_cm_checked:
        warnings.warn(
            "interval Cohen-Macaulayness was not verified; Moebius Betti numbers "
            "are only valid on interval Cohen-Macaulay posets",
            stacklevel=2,
        )
    entries: dict[tuple[int, SquarefreeMonomial], int] = {}
    for a in p.elements:
        entries[(0, monomial(a, a))] = 1
    for i, j, rank, _ in p.interval_ranks():
        a, b = p.elements[i], p.elements[j]
        mu = p.mobius(a, b)
        if mu:
            entries[(rank, monomial(a, b))] = abs(mu)
    return BettiTable(n=p.n, entries=entries)


def _hdim_of_poset(p: SubsetPoset, fieldspec: FieldSpec) -> int:
    """Projective dimension of the dual ideal, with rank-based pruning.

    An interval of rank r can only contribute indices up to r, so
    intervals are visited by decreasing rank with the running best used
    to skip; homology degrees are probed top-down and lazily.
    """
    pairs = sorted(
        ((rank, i, j) for i, j, rank, _ in p.interval_ranks()), key=lambda t: -t[0]
    )
    best = 0
    for rank, i, j in pairs:
        if rank <= best:
            break
        k = truncated_order_complex(p.interval(p.elements[i], p.elements[j]))
        if k.is_null:
            continue
        if k.is_empty_complex:
            best = max(best, 1)
            continue
        chain = ChainHomology(k.faces_by_dim(), fieldspec)
        for d in range(k.dim, best - 2, -1):
            if chain.betti(d):
                best = max(best, d + 2)
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
