"""Direct, slower constructions that the mask-based fast paths must match.

Each builds its answer the straightforward way: comparability by testing
every pair of members, covers by testing each comparable pair for an
element in between, flats by closing every flat plus one element through
rank calls, and Betti tables keyed by ``SquarefreeMonomial`` with the
text and JSON renderings read from those keys.
"""

from __future__ import annotations

from suboplex import SquarefreeMonomial, SubsetPoset, ValidationError, monomial
from suboplex.builders import Matroid
from suboplex.complexes import interval_homology, interval_is_cm
from suboplex.posets import check_members


def reference_comparability(order: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Strict up and down index masks, one subset test per pair i < j."""
    size = len(order)
    up, down = [0] * size, [0] * size
    for i in range(size):
        mi = order[i]
        for j in range(i + 1, size):
            if mi & order[j] == mi:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down


def reference_covers(up: list[int], down: list[int]) -> tuple[list[int], list[int]]:
    """Upper and lower cover masks: i < j is a cover iff nothing lies strictly between."""
    size = len(up)
    covers, covers_down = [0] * size, [0] * size
    for i in range(size):
        rest = up[i]
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            if up[i] & down[j] == 0:
                covers[i] |= 1 << j
                covers_down[j] |= 1 << i
    return covers, covers_down


def reference_tables(p: SubsetPoset) -> tuple[list[int], ...]:
    up, down = reference_comparability(p._masks)
    return (up, down, *reference_covers(up, down))


def poset_tables(p: SubsetPoset) -> tuple[list[int], ...]:
    return p._up_strict, p._down_strict, p._covers_up, p._covers_down


def reference_flats(m: Matroid) -> set[int]:
    """Flats level by level: the rank-based closure of every flat plus one element."""
    bottom = Matroid.closure_mask(m, 0)
    collected, frontier = {bottom}, {bottom}
    while frontier:
        fresh: set[int] = set()
        for f in frontier:
            for e in range(m.m):
                if not f >> e & 1:
                    g = Matroid.closure_mask(m, f | 1 << e)
                    if g not in collected:
                        fresh.add(g)
        collected |= fresh
        check_members(len(collected), "flat enumeration")
        frontier = fresh
    return collected


Entries = dict[tuple[int, SquarefreeMonomial], int]


def reference_interval_entries(p: SubsetPoset, fieldspec) -> Entries:
    """``betti_via_intervals`` with one ``monomial`` per entry."""
    if not p.is_intersection_closed():
        raise ValidationError("interval Betti numbers require an intersection-closed poset")
    els = p.elements
    entries: Entries = {(0, monomial(a, a)): 1 for a in els}
    for (i, j, rank, _, _, chains), pairs in p.interval_orbits():
        chain = interval_homology(p, i, j, chains, fieldspec)
        for d in range(-1, rank - 1):
            v = chain.betti(d)
            if v:
                for a, b in pairs:
                    entries[(d + 2, monomial(els[a], els[b]))] = v
    return entries


def reference_mobius_entries(p: SubsetPoset, fieldspec) -> Entries:
    """``betti_via_mobius`` with one ``monomial`` per entry."""
    if not p.is_intersection_closed():
        raise ValidationError("Moebius Betti numbers require an intersection-closed poset")
    els = p.elements
    entries: Entries = {(0, monomial(a, a)): 1 for a in els}
    for row, pairs in p.interval_orbits():
        if not interval_is_cm(p, row, fieldspec):
            raise ValidationError("Moebius Betti numbers require an interval Cohen-Macaulay poset")
        _, _, rank, _, mu, _ = row
        if mu:
            for a, b in pairs:
                entries[(rank, monomial(els[a], els[b]))] = abs(mu)
    return entries


def reference_totals(entries: Entries) -> list[int]:
    pd = max(i for i, _ in entries)
    return [sum(v for (j, _), v in entries.items() if j == i) for i in range(pd + 1)]


def reference_render(entries: Entries) -> str:
    """The text table from the monomial keys' degrees."""
    graded: dict[tuple[int, int], int] = {}
    for (i, m), v in entries.items():
        graded[(i, m.degree)] = graded.get((i, m.degree), 0) + v
    totals = reference_totals(entries)
    offsets = [j - i for i, j in graded]
    lines = ["total: " + " ".join(str(t) for t in totals)]
    for r in range(min(offsets), max(offsets) + 1):
        row = [graded.get((i, i + r), 0) for i in range(len(totals))]
        lines.append(f"{r}: " + " ".join(str(v) if v else "." for v in row))
    return "\n".join(lines)
