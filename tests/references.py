"""Direct, slower constructions that the mask-based fast paths must match,
and the algebra that only the tests use.

Each builds its answer the straightforward way: comparability by testing
every pair of members, covers by testing each comparable pair for an
element in between, symmetry generators by mapping each member bit by bit, flats by closing every flat plus one element through
rank calls, Betti tables keyed by ``SquarefreeMonomial`` with the
text and JSON renderings read from those keys, extentures by Berge's
loop over lists of sets, the Betti oracle's slices by testing every
subset of the degree, and a complex's facets by testing every pair of
masks.  The command line is parsed by argparse, as it
was before the CLI's verb table.

The rest states the paper's dictionary and identities for the tests:
closures in a poset, delta(A, B) and the partial-function and monomial
algebra that m(A, B) mirrors, minimal generators by a divisibility scan,
the collapse map, the flip action, minors, f-vectors and the simplex.
"""

from __future__ import annotations

import argparse
from functools import reduce
from operator import and_

import suboplex.classes
from suboplex import cli
from suboplex import (
    BettiTable,
    CapExceededError,
    FieldSpec,
    FunctionClass,
    IdealGenerators,
    PartialFunction,
    SquarefreeMonomial,
    Subset,
    SubsetPoset,
    ValidationError,
    monomial,
)
from suboplex.bitsets import _bits
from suboplex.builders import CellComplexInput, Matroid
from suboplex.classes import extentures
from suboplex.complexes import SimplicialComplex
from suboplex.homology import _chain_homology, interval_homology, interval_is_cm
from suboplex.oracles import ORACLE_MAX_VARIABLES
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


def cover_relations(p: SubsetPoset) -> list[tuple[Subset, Subset]]:
    """The cover pairs (e_i, e_j) of ``reference_covers``, by ascending i, then j."""
    e = p.elements
    return [(e[i], e[j]) for i, cov in enumerate(reference_tables(p)[2]) for j in _bits(cov)]


def intervals(p: SubsetPoset):
    """``(i, j, rank, graded, mu, chains)`` for every e_i < e_j, by ascending i, then j."""
    return ((i, *row) for i in range(len(p)) for row in p.intervals_above(i))


def closure(p: SubsetPoset, a: Subset) -> Subset | None:
    """The AND of the members of ``p`` that contain ``a``; None if there are none."""
    above = [m for m in p._masks if a.bits & m == a.bits]
    return Subset(p.n, reduce(and_, above)) if above else None


def reference_index_map(p: SubsetPoset, k: int, g: tuple[int, ...]) -> tuple[int, ...]:
    """``SubsetPoset._index_map``, mapping each member bit by bit."""
    if not all(isinstance(x, int) for x in g) or sorted(g) != list(range(p.n)):
        raise ValidationError(f"symmetry generator {k} is not a permutation of range({p.n})")
    images = []
    for m in p._masks:
        image = sum(1 << g[v] for v in range(p.n) if m >> v & 1)
        if image not in p._index:
            raise ValidationError(f"symmetry generator {k} maps {Subset(p.n, m)} to a non-member")
        images.append(p._index[image])
    return tuple(images)


def reference_maximal(masks) -> tuple[int, ...]:
    """The distinct masks under no other mask, ascending, one subset test per pair."""
    masks = sorted(set(masks))
    return tuple(f for f in masks if not any(f != g and f & g == f for g in masks))


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
                    if g not in collected and g not in fresh:
                        fresh.add(g)
                        check_members(len(collected) + len(fresh), "flat enumeration")
        collected |= fresh
        frontier = fresh
    return collected


class MinorMatroid(Matroid):
    """Restriction to a flat G, then contraction by a flat F inside it: the
    ground is G minus F in increasing order, and A has rank r(A | F) - r(F)."""

    def __init__(self, base: Matroid, f: Subset, g: Subset) -> None:
        if not f.issubset(g) or any(base.closure_mask(x.bits) != x.bits for x in (f, g)):
            raise ValidationError("minor needs nested flats F <= G")
        self.base, self.f, self.lift = base, f.bits, _bits(g.bits & ~f.bits)
        super().__init__(len(self.lift))  # refuses G == F

    def _rank_mask(self, mask: int) -> int:
        lifted = sum(1 << e for i, e in enumerate(self.lift) if mask >> i & 1)
        return self.base.rank_mask(self.f | lifted) - self.base.rank_mask(self.f)


def reference_extentures(c: FunctionClass) -> tuple[PartialFunction, ...]:
    """``extentures`` by Berge's loop over lists, each subset test made alone.

    Both caps are read from ``suboplex.classes`` at each call, so a test
    can lower them; nothing is cached on the class.
    """
    n = c.n
    full = (1 << n) - 1
    family, work = [0], 0
    for a in c._masks:
        edge = full & ~a | a << n
        hit = [t for t in family if t & edge]
        miss = [t for t in family if not t & edge]
        work += len(family)
        grown: list[int] = []
        for v in (1 << i for i in range(2 * n) if edge >> i & 1):
            # Candidates t | v never cover each other and no kept k lies above
            # one (k would contain t); k lies under t | v iff v in k, k ^ v <= t.
            under = [k ^ v for k in hit if k & v]
            work += len(hit) + len(miss) * (len(under) + 1)
            max_work = suboplex.classes.EXTENTURE_MAX_WORK
            if work > max_work:
                raise CapExceededError(f"extenture search is capped at {max_work} steps")
            max_family = suboplex.classes.EXTENTURE_MAX_FAMILY
            if len(hit) + len(grown) + len(miss) > max_family:
                raise CapExceededError(f"extenture search is capped at {max_family} sets")
            grown += [t | v for t in miss if all(u & ~t for u in under)]
        family = hit + grown
    found = sorted((t.bit_count(), t & full, t >> n) for t in family if not t & t >> n)
    return tuple(PartialFunction(Subset(n, ones), Subset(n, zeros)) for _, ones, zeros in found)


def delta(a: Subset, b: Subset) -> PartialFunction:
    """The partial function delta(A, B): 1 on A, 0 off B; requires A <= B."""
    a._check_mate(b)
    if not a.issubset(b):
        raise ValidationError("delta(A, B) requires A to be a subset of B")
    return PartialFunction(ones=a, zeros=b.complement())


def intersect(f: PartialFunction, g: PartialFunction) -> PartialFunction:
    """The largest partial function that both f and g extend: where they agree."""
    return PartialFunction(ones=f.ones & g.ones, zeros=f.zeros & g.zeros)


def restricts(f: PartialFunction, g: PartialFunction) -> bool:
    """True iff ``g`` extends ``f`` (agrees on f's domain)."""
    return f.ones.issubset(g.ones) and f.zeros.issubset(g.zeros)


def divides(m: SquarefreeMonomial, other: SquarefreeMonomial) -> bool:
    m.support0._check_mate(other.support0)
    return m.support0.issubset(other.support0) and m.support1.issubset(other.support1)


def lcm(m: SquarefreeMonomial, other: SquarefreeMonomial) -> SquarefreeMonomial:
    return SquarefreeMonomial(m.support0 | other.support0, m.support1 | other.support1)


def set_pair(m: SquarefreeMonomial) -> tuple[Subset, Subset]:
    """The A <= B with m == m(A, B), A = [n] minus support1 and B = support0,
    for a monomial whose two supports cover [n]."""
    if (m.support0 | m.support1).bits != (1 << m.n) - 1:
        raise ValidationError("monomial lacks full support union; it is not of the form m(A, B)")
    return m.support1.complement(), m.support0


def minimal_generators(n: int, gens) -> IdealGenerators:
    """The distinct generators that no other divides, by (degree, support0, support1)."""
    pool = list(dict.fromkeys(gens))
    keep = [g for g in pool if not any(h is not g and divides(h, g) for h in pool)]
    keep.sort(key=lambda m: (m.degree, m.support0.bits, m.support1.bits))
    return IdealGenerators(n, tuple(keep))


def collapse_membership(c: FunctionClass, u: Subset) -> bool:
    """Whether prod_{i in U} y_i lies in the ideal with each x(i,b) collapsed to y_i.

    Functional monomials collapse to squares, which divide no squarefree
    monomial, so: does some extenture have its domain inside U?
    """
    return any(f.domain.issubset(u) for f in extentures(c))


def flip_class(c: FunctionClass, mask: Subset) -> FunctionClass:
    """XOR every member's 1-preimage with ``mask`` (the output-flip action)."""
    return FunctionClass(c.n, [m ^ mask for m in c.members])


def f_vector(k: SimplicialComplex) -> dict[int, int]:
    """Face counts by dimension, the empty face in dimension -1."""
    return {d: len(faces) for d, faces in k.faces_by_dim().items()}


def reduced_euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating face-count sum over dimensions >= -1; 0 for the null complex."""
    return sum(-count if d % 2 else count for d, count in f_vector(k).items())


def simplex_input(num_vertices: int) -> CellComplexInput:
    """A solid simplex with all its faces listed explicitly."""
    return CellComplexInput(num_vertices, tuple(range(1, 1 << num_vertices)))


def reference_membership(variables: int, gmasks: list[int]) -> bytearray:
    """The ideal-membership table, every monomial tested against every generator."""
    member = bytearray(1 << variables)
    for m in range(len(member)):
        member[m] = any(g & m == g for g in gmasks)
    return member


def reference_koszul_slice(member: bytearray, b: int) -> list[int]:
    """Faces of K^b: every subset tau of b, kept when b minus tau is in the ideal."""
    faces = []
    tau = b
    while True:
        if member[b ^ tau]:
            faces.append(tau)
        if tau == 0:
            return faces
        tau = (tau - 1) & b


def reference_betti_oracle(gens: IdealGenerators, fieldspec: FieldSpec) -> BettiTable:
    """``betti_oracle`` from ``reference_membership`` and ``reference_koszul_slice``."""
    n = gens.n
    if 2 * n > ORACLE_MAX_VARIABLES:
        raise CapExceededError(
            f"Betti oracle is capped at {ORACLE_MAX_VARIABLES} variables, got {2 * n}"
        )
    member = reference_membership(2 * n, [g.support0.bits | g.support1.bits << n for g in gens])
    cells: dict[tuple[int, int, int], int] = {}
    for b in range(len(member)):
        if not member[b]:
            continue
        chain = _chain_homology(reference_koszul_slice(member, b), fieldspec)
        for d in chain.faces:
            v = chain.betti(d)
            if v:
                cells[(d + 1, b & (1 << n) - 1, b >> n)] = v
    return BettiTable(n, cells)


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


def _add_io_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="path to a JSON input document")
    sub.add_argument("--build", help="inline build spec KIND:JSON")
    sub.add_argument(
        "--field", default="2", help="coefficient field: a prime or Q (default 2)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse grammar that the CLI's verb table replaced."""
    parser = argparse.ArgumentParser(
        prog="suboplex",
        description="Exact invariants of Boolean function classes",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("vcdim", help="VC dimension of a class")
    _add_io_arguments(p)
    p.set_defaults(func=cli._cmd_vcdim)

    p = subs.add_parser("hdim", help="homological dimension of a class")
    _add_io_arguments(p)
    p.set_defaults(func=cli._cmd_hdim)

    p = subs.add_parser("betti", help="Betti table of the dual ideal")
    _add_io_arguments(p)
    p.add_argument("--format", choices=["m2", "json"], default="m2")
    p.add_argument(
        "--method",
        choices=["mobius"],
        help="Betti numbers from Moebius values; the poset must be interval-CM",
    )
    p.set_defaults(func=cli._cmd_betti)

    p = subs.add_parser("mobius", help="Moebius values of a poset")
    _add_io_arguments(p)
    p.add_argument("--all", action="store_true", help="list mu for all comparable pairs")
    p.set_defaults(func=cli._cmd_mobius)

    p = subs.add_parser("extentures", help="minimal non-extendable partial functions")
    _add_io_arguments(p)
    p.set_defaults(func=cli._cmd_extentures)

    p = subs.add_parser("shatter", help="shattered sets of a class")
    _add_io_arguments(p)
    p.add_argument("--set", help="comma-separated indices to test")
    p.set_defaults(func=cli._cmd_shatter)

    p = subs.add_parser("check", help="structural checks on a poset or complex")
    _add_io_arguments(p)
    p.add_argument("--intersection-closed", action="store_true", dest="intersection_closed")
    p.add_argument("--acyclic", action="store_true")
    p.add_argument("--interval-cm", action="store_true", dest="interval_cm")
    p.add_argument("--cm", action="store_true")
    p.set_defaults(func=cli._cmd_check)

    p = subs.add_parser("build", help="materialize an input as canonical JSON")
    _add_io_arguments(p)
    p.add_argument("--as", dest="as_", choices=["poset", "class", "complex"])
    p.set_defaults(func=cli._cmd_build)

    p = subs.add_parser("oracle", help="brute-force verifiers")
    p.add_argument("what", choices=["betti", "reg", "vcdim"])
    _add_io_arguments(p)
    p.add_argument("--format", choices=["m2", "json"], default="m2")
    p.set_defaults(func=cli._cmd_oracle)

    return parser
