"""Function classes: sets of total Boolean functions on [n].

A class is stored as the set of 1-preimages of its members.  This
module computes shattering and VC dimension (by one scan of the
members per candidate set), extentures (minimal non-extendable partial
functions, as the minimal transversals of the literals each member
violates), and the generators of the associated squarefree ideal and
of its dual.

A ``PartialFunction`` is a disjoint pair (ones, zeros) of subsets.  A
``SquarefreeMonomial`` lives in the 2n variables x(i,0), x(i,1) and is
stored as two width-n bit vectors (the indices where x(i,0),
respectively x(i,1), appears).  A nested pair A <= B gives

    m(A, B): the monomial with support0 = B and support1 = [n]\\A,
             of degree n + |B \\ A|,

the label of the interval [A, B] in a Betti table.  The rest of the
dictionary (delta(A, B), which sends A to 1 and [n]\\B to 0, with
restriction mirrored by divisibility and intersection by lcm) is
checked by the tests, with the helpers in ``tests/references.py``.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

from .bitsets import Subset, Value, _bits, _columns, _set, check_ground
from .errors import CapExceededError, ValidationError
from .posets import SubsetPoset, and_closed

EXTENTURE_MAX_WORK = 500_000_000
EXTENTURE_MAX_FAMILY = 1_000_000
VC_MAX_WORK = 100_000_000


class PartialFunction(Value):
    """A partial Boolean function on [n]: disjoint (ones, zeros) subsets.

    The domain is ones | zeros; the function is total when the domain
    is all of [n].
    """

    __slots__ = _fields = ("ones", "zeros")
    ones: Subset
    zeros: Subset

    def __init__(self, ones: Subset, zeros: Subset) -> None:
        ones._check_mate(zeros)
        if ones.bits & zeros.bits:
            raise ValidationError("ones and zeros of a partial function must be disjoint")
        _set(self, "ones", ones)
        _set(self, "zeros", zeros)

    @property
    def n(self) -> int:
        return self.ones.n

    @property
    def domain(self) -> Subset:
        return self.ones | self.zeros

    def pattern(self) -> str:
        out = []
        for i in range(self.n):
            if self.ones.bits >> i & 1:
                out.append("1")
            elif self.zeros.bits >> i & 1:
                out.append("0")
            else:
                out.append("*")
        return "".join(out)

    def __str__(self) -> str:
        return self.pattern()

class SquarefreeMonomial(Value):
    """A squarefree monomial in x(i,0), x(i,1) for i in [n].

    support0 holds the indices i with x(i,0) present, support1 those
    with x(i,1) present.
    """

    __slots__ = _fields = ("support0", "support1")
    support0: Subset
    support1: Subset

    def __init__(self, support0: Subset, support1: Subset) -> None:
        support0._check_mate(support1)
        _set(self, "support0", support0)
        _set(self, "support1", support1)

    @property
    def n(self) -> int:
        return self.support0.n

    @property
    def degree(self) -> int:
        return self.support0.size + self.support1.size

    def __str__(self) -> str:
        vars_: list[str] = []
        for i in range(self.n):
            if self.support0.bits >> i & 1:
                vars_.append(f"x{i}_0")
            if self.support1.bits >> i & 1:
                vars_.append(f"x{i}_1")
        return "*".join(vars_) if vars_ else "1"


def monomial(a: Subset, b: Subset) -> SquarefreeMonomial:
    """The monomial m(A, B) with support0 = B, support1 = [n]\\A; requires A <= B.

    Its degree is n + |B \\ A|.
    """
    a._check_mate(b)
    if a.bits & ~b.bits:
        raise ValidationError("m(A, B) requires A to be a subset of B")
    return SquarefreeMonomial(b, a.complement())


class FunctionClass:
    """A nonempty set of total Boolean functions on [n], as 1-preimage subsets."""

    __slots__ = (
        "n",
        "members",
        "_masks",
        "_mask_set",
        "_support_poset",
        "_intersection_closed",
        "_extentures",
    )

    def __init__(self, n: int, members: Iterable[Subset]) -> None:
        check_ground(n)
        elems = list(members)
        if not elems:
            raise ValidationError("a function class must be nonempty")
        for e in elems:
            if not isinstance(e, Subset) or e.n != n:
                raise ValidationError(f"class member {e!r} does not live on ground size {n}")
        masks = sorted({e.bits for e in elems})
        if len(masks) != len(elems):
            raise ValidationError("class members must be distinct")
        self.n = n
        self._masks: tuple[int, ...] = tuple(masks)
        self._mask_set = frozenset(masks)
        self.members: tuple[Subset, ...] = tuple(Subset(n, m) for m in masks)
        self._support_poset: SubsetPoset | None = None
        self._intersection_closed: bool | None = None
        self._extentures: tuple[PartialFunction, ...] | None = None

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "FunctionClass":
        if not strings:
            raise ValidationError("a function class must be nonempty")
        members = [Subset.from_string(s) for s in strings]
        widths = {m.n for m in members}
        if len(widths) != 1:
            raise ValidationError("class member strings have inconsistent widths")
        return cls(widths.pop(), members)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "FunctionClass":
        return cls(n, [Subset(n, m) for m in masks])

    @classmethod
    def full_class(cls, n: int) -> "FunctionClass":
        return cls.from_masks(n, range(1 << n))

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, s: Subset) -> bool:
        return isinstance(s, Subset) and s.n == self.n and s.bits in self._mask_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionClass)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def support_poset(self) -> SubsetPoset:
        if self._support_poset is None:
            self._support_poset = SubsetPoset(self.n, self.members)
            self._support_poset._intersection_closed = self._intersection_closed
        return self._support_poset

    def is_intersection_closed(self) -> bool:
        """True iff the AND of every two members is a member; scanned once.

        The support poset answers once it exists.  Before that the class
        scans its own mask set and stops at the first missing AND, so a
        class that is not closed never builds the O(m^2) poset tables;
        the answer is handed to the support poset when that is built.
        """
        if self._support_poset is not None:
            return self._support_poset.is_intersection_closed()
        if self._intersection_closed is None:
            self._intersection_closed = and_closed(
                self._masks, self._mask_set, range(len(self._masks))
            )
        return self._intersection_closed

    def constant_coordinates(self) -> list[tuple[int, int]]:
        """Coordinates i where every member takes the same value: bit i of the
        AND of all members equals bit i of their OR."""
        lo, hi = -1, 0
        for m in self._masks:
            lo &= m
            hi |= m
        return [(i, lo >> i & 1) for i in range(self.n) if not (lo ^ hi) >> i & 1]


def warn_if_degenerate(c: FunctionClass) -> list[tuple[int, int]]:
    """Warn when some coordinate is constant across the class.

    Such coordinates carry no information; restricting the ground set
    to the others is advisable.  The class is accepted as-is.
    """
    constants = c.constant_coordinates()
    if constants:
        coords = ", ".join(str(i) for i, _ in constants)
        warnings.warn(
            f"coordinates {{{coords}}} are constant across the class; "
            "consider restricting the ground set",
            stacklevel=2,
        )
    return constants


def class_from_poset(p: SubsetPoset) -> FunctionClass:
    """The class of indicator functions of the poset elements.

    ``p`` becomes the class's support poset: the canonical element order
    does not depend on input order, so a rebuild would equal it.
    """
    if len(p) == 0:
        raise ValidationError("cannot form a function class from an empty poset")
    c = FunctionClass(p.n, p.elements)
    c._support_poset = p
    return c


def _is_shattered_brute(c: FunctionClass, u: int) -> bool:
    want = 1 << u.bit_count()
    seen: set[int] = set()
    for m in c._masks:
        seen.add(m & u)
        if len(seen) == want:
            return True
    return len(seen) == want


def is_shattered(c: FunctionClass, u: Subset) -> bool:
    """Is every Boolean function on ``u`` a restriction of a class member?"""
    if not isinstance(u, Subset) or u.n != c.n:
        raise ValidationError(f"{u!r} does not live on ground size {c.n}")
    return _is_shattered_brute(c, u.bits)


def _shattered_levels(c: FunctionClass) -> list[list[int]]:
    """The shattered subsets of [n] as masks, level by level from the empty set.

    A set can be shattered only if all its one-element-smaller subsets
    are, so each level's candidates grow from the level below.  The work
    is counted per level as candidate generation (|level| * n subset
    tests) plus member scans (candidates * members); ``CapExceededError``
    is raised before either would take the total past ``VC_MAX_WORK``.
    """
    n, members = c.n, len(c._masks)
    levels = [[0]]  # the empty set is shattered by any nonempty class
    work = 0
    while True:
        work += len(levels[-1]) * n
        if work > VC_MAX_WORK:
            raise CapExceededError(f"VC search is capped at {VC_MAX_WORK} steps")
        prev = set(levels[-1])
        candidates: set[int] = set()
        for s in levels[-1]:
            for v in range(n):
                bit = 1 << v
                if s & bit:
                    continue
                t = s | bit
                if t in candidates:
                    continue
                rest = t
                while rest:  # each one-smaller subset t - {w}, over the set bits w of t
                    low = rest & -rest
                    if t ^ low not in prev:
                        break
                    rest ^= low
                else:
                    candidates.add(t)
        work += len(candidates) * members
        if work > VC_MAX_WORK:
            raise CapExceededError(f"VC search is capped at {VC_MAX_WORK} steps")
        nxt = sorted(u for u in candidates if _is_shattered_brute(c, u))
        if not nxt:
            return levels
        levels.append(nxt)


def vc_dimension(c: FunctionClass) -> int:
    """Size of the largest shattered subset."""
    return len(_shattered_levels(c)) - 1


def shatter_complex(c: FunctionClass):
    """The simplicial complex of all shattered subsets of [n]."""
    from .complexes import SimplicialComplex

    faces = [u for level in _shattered_levels(c) for u in level]
    return SimplicialComplex.from_faces(c.n, faces)


def _positions(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, in time linear in its width.

    ``_bits`` takes a big-int step per set bit, so it is quadratic on a
    mask over a whole family.
    """
    digits = format(mask, "b")[::-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _blocked_literals(holds: list[int], hit: int, edge: int, miss: list[int]) -> list[int]:
    """For each set t of ``miss``, the edge literals v with a hit set under t | v.

    A hit set k lies under t | v iff v is k's only literal outside t.
    As t misses the edge, k then has v as its one edge literal and its
    other literals in t.  ``single`` masks the hit sets with one edge
    literal; one pass over the literals outside t and the edge leaves
    those with no other literal outside t, for every v at once.
    """
    one = two = 0  # the hit sets with at least one, at least two edge literals
    for v in _bits(edge):
        h = holds[v] & hit
        two |= one & h
        one |= h
    single = hit & ~two
    off, solo = [], []
    for l, h in enumerate(holds):
        if h & single:
            (solo if edge >> l & 1 else off).append((1 << l, h & single))
    blocked = []
    for t in miss:
        outside = 0
        for bit, h in off:
            if not t & bit:
                outside |= h
        inside = single ^ outside
        b = 0
        for bit, h in solo:
            if h & inside:
                b |= bit
        blocked.append(b)
    return blocked


def extentures(c: FunctionClass) -> tuple[PartialFunction, ...]:
    """All minimal partial functions extending to no member of the class.

    As a set of literals (bit i for f(i) = 1, bit n + i for f(i) = 0), a
    partial function extends to no member iff it meets every edge E_A,
    the literals that member A violates.  So the extentures are the
    minimal transversals of {E_A} other than the pairs {i, n + i}, found
    by Berge's incremental dualization with one step per member in
    ascending mask order.  That order is part of the algorithm, not a
    knob: it keeps the family near the size of the output.  Results are
    cached on the class and sorted by (domain size, ones, zeros).

    The family is kept as literal columns: ``sets`` lists every set it
    has held, by position, ``holds[l]`` masks the positions of the sets
    containing literal l, and ``alive`` masks the live ones.  Dropped
    sets stay in the columns until they outnumber the live ones, and
    then the live ones are renumbered.  A member's step splits the
    family with n ORs of columns.  Candidates t | v (t missing the edge,
    v in it) never lie under each other and no hit set lies above one,
    so t | v is kept iff no hit set lies under it; ``_blocked_literals``
    finds, for every t at once, the v where one does.

    ``CapExceededError`` is raised before the work (members split,
    subset tests, candidates) passes ``EXTENTURE_MAX_WORK`` or the
    family passes ``EXTENTURE_MAX_FAMILY`` sets.  Both are checked once
    per edge literal in ascending order, and a literal's subset tests
    are the sets missing the edge times the hit sets containing it, as
    if each were made alone.
    """
    if c._extentures is not None:
        return c._extentures
    n = c.n
    full = (1 << n) - 1
    sets = [0]  # every set the family has held, by position
    holds = [0] * (2 * n)
    alive, size, work = 1, 1, 0
    for a in c._masks:
        edge = full & ~a | a << n
        lits = _bits(edge)
        hit = 0
        for v in lits:
            hit |= holds[v]
        hit &= alive
        miss = [sets[p] for p in _positions(alive ^ hit)]
        nhit, nmiss = hit.bit_count(), len(miss)
        work += size
        grown: list[int] = []
        blocked: list[int] | None = None
        for v in lits:
            work += nhit + nmiss * ((holds[v] & hit).bit_count() + 1)
            if work > EXTENTURE_MAX_WORK:
                raise CapExceededError(f"extenture search is capped at {EXTENTURE_MAX_WORK} steps")
            if nhit + len(grown) + nmiss > EXTENTURE_MAX_FAMILY:
                raise CapExceededError(f"extenture search is capped at {EXTENTURE_MAX_FAMILY} sets")
            if not miss:
                continue
            if blocked is None:
                blocked = _blocked_literals(holds, hit, edge, miss)
            bit = 1 << v
            grown += [t | bit for t, b in zip(miss, blocked) if not b & bit]
        alive = hit
        size = nhit + len(grown)
        if grown:
            top = len(sets)
            for l, column in enumerate(_columns(grown, 2 * n)):
                holds[l] |= column << top
            alive |= ((1 << len(grown)) - 1) << top
            sets += grown
        if len(sets) > 2 * size:  # more dropped sets than live ones: renumber
            sets = [sets[p] for p in _positions(alive)]
            holds = _columns(sets, 2 * n)
            alive = (1 << size) - 1
    family = [sets[p] for p in _positions(alive)]
    del sets, holds  # freed before the output is built, which sets the peak
    found = sorted((t.bit_count(), t & full, t >> n) for t in family if not t & t >> n)
    c._extentures = tuple(
        PartialFunction(Subset(n, ones), Subset(n, zeros)) for _, ones, zeros in found
    )
    return c._extentures


class IdealGenerators(Value):
    """A minimal generating antichain of a squarefree monomial ideal.

    ``suboplex_ideal`` and ``dual_ideal`` build it sorted by (degree,
    support0, support1), since they know which of their generators can
    divide another.
    """

    _fields = ("n", "gens")
    n: int
    gens: tuple[SquarefreeMonomial, ...]

    def __init__(self, n: int, gens: tuple[SquarefreeMonomial, ...]) -> None:
        check_ground(n)
        if not gens:
            raise ValidationError("an ideal needs at least one generator")
        for g in gens:
            if g.n != n:
                raise ValidationError("generator ground size mismatch")
        self._assign(n, gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)


def suboplex_ideal(c: FunctionClass) -> IdealGenerators:
    """Minimal generators of the class's squarefree ideal.

    These are the functional monomials x(i,0)x(i,1) together with one
    monomial per extenture f, namely the product of x(i, f(i)) over the
    domain of f.  Extentures form an antichain and never contain a
    functional monomial; the only division is by a one-point extenture,
    found where coordinate i is constant across the class, and then the
    functional monomial at i is left out.
    """
    n = c.n
    found = extentures(c)
    points = {f.domain.bits for f in found if f.domain.size == 1}
    gens = [SquarefreeMonomial(support0=f.zeros, support1=f.ones) for f in found]
    for i in range(n):
        if 1 << i not in points:
            point = Subset(n, 1 << i)
            gens.append(SquarefreeMonomial(support0=point, support1=point))
    gens.sort(key=lambda m: (m.degree, m.support0.bits, m.support1.bits))
    return IdealGenerators(n, tuple(gens))


def dual_ideal(c: FunctionClass) -> IdealGenerators:
    """One degree-n generator per member: m(A, A) for the 1-preimage A.

    These are distinct monomials of one degree, so none divides another,
    and ascending member order is the (degree, support0, support1) order.
    """
    return IdealGenerators(
        c.n,
        tuple(SquarefreeMonomial(support0=a, support1=a.complement()) for a in c.members),
    )
