"""Function classes: sets of total Boolean functions on [n].

A class is stored as the set of 1-preimages of its members.  This
module computes shattering and VC dimension (by one scan of the
members per candidate set), extentures (minimal
non-extendable partial functions), the generators of the associated
squarefree ideal and of its dual, and the collapse-map membership test
that reads VC dimension off the ideal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitsets import PartialFunction, SquarefreeMonomial, Subset, check_ground
from .errors import CapExceededError, ValidationError
from .posets import SubsetPoset

EXTENTURE_MAX_GROUND = 16


class FunctionClass:
    """A nonempty set of total Boolean functions on [n], as 1-preimage subsets."""

    __slots__ = ("n", "members", "_masks", "_mask_set", "_support_poset", "_extentures")

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
        return self._support_poset

    def is_intersection_closed(self) -> bool:
        return self.support_poset().is_intersection_closed()

    def constant_coordinates(self) -> list[tuple[int, int]]:
        """Coordinates i where every member takes the same value."""
        out = []
        for i in range(self.n):
            bit = 1 << i
            values = {1 if m & bit else 0 for m in self._masks}
            if len(values) == 1:
                out.append((i, values.pop()))
        return out


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
    # Level-wise search with subset pruning: a set can be shattered only
    # if all its one-element-smaller subsets are.
    n = c.n
    levels = [[0]]  # the empty set is shattered by any nonempty class
    while True:
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
                if all((t & ~(1 << w)) in prev for w in range(n) if t >> w & 1):
                    candidates.add(t)
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


def extentures(c: FunctionClass) -> tuple[PartialFunction, ...]:
    """All minimal partial functions extending to no member of the class.

    A partial function qualifies when it is the restriction of no
    member while every proper restriction of it is.  Results are cached
    on the class; domains are scanned by increasing size with
    extendability memoized per (ones, zeros) pair.
    """
    if c._extentures is not None:
        return c._extentures
    n = c.n
    if n > EXTENTURE_MAX_GROUND:
        raise CapExceededError(
            f"extenture search is capped at ground size {EXTENTURE_MAX_GROUND}, got {n}"
        )
    members = c._masks
    memo: dict[tuple[int, int], bool] = {}

    def extendable(ones: int, dom: int) -> bool:
        key = (ones, dom)
        hit = memo.get(key)
        if hit is None:
            hit = any(m & dom == ones for m in members)
            memo[key] = hit
        return hit

    found: list[PartialFunction] = []
    domains = sorted(range(1 << n), key=lambda d: (d.bit_count(), d))
    for dom in domains:
        ones = dom
        while True:
            if not extendable(ones, dom):
                minimal = True
                rest = dom
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if not extendable(ones & ~bit, dom ^ bit):
                        minimal = False
                        break
                if minimal:
                    found.append(
                        PartialFunction(Subset(n, ones), Subset(n, dom ^ ones))
                    )
            if ones == 0:
                break
            ones = (ones - 1) & dom
    found.sort(key=lambda f: (f.domain.size, f.ones.bits, f.zeros.bits))
    c._extentures = tuple(found)
    return c._extentures


@dataclass(frozen=True)
class IdealGenerators:
    """A minimal generating antichain of a squarefree monomial ideal.

    Construction prunes generators divisible by another, so the stored
    tuple is always an antichain under divisibility.
    """

    n: int
    gens: tuple[SquarefreeMonomial, ...]

    def __post_init__(self) -> None:
        check_ground(self.n)
        if not self.gens:
            raise ValidationError("an ideal needs at least one generator")
        for g in self.gens:
            if g.n != self.n:
                raise ValidationError("generator ground size mismatch")

    @classmethod
    def minimal(cls, n: int, gens: Iterable[SquarefreeMonomial]) -> "IdealGenerators":
        pool = list(dict.fromkeys(gens))
        keep = [
            g
            for g in pool
            if not any(h is not g and h.divides(g) for h in pool)
        ]
        keep.sort(key=lambda m: (m.degree, m.support0.bits, m.support1.bits))
        return cls(n, tuple(keep))

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)


def suboplex_ideal(c: FunctionClass) -> IdealGenerators:
    """Minimal generators of the class's squarefree ideal.

    These are the functional monomials x(i,0)x(i,1) together with one
    monomial per extenture f, namely the product of x(i, f(i)) over the
    domain of f.  When some coordinate is constant across the class the
    corresponding functional monomial is non-minimal and is pruned.
    """
    n = c.n
    gens: list[SquarefreeMonomial] = []
    for i in range(n):
        point = Subset.from_indices(n, [i])
        gens.append(SquarefreeMonomial(support0=point, support1=point))
    for f in extentures(c):
        gens.append(SquarefreeMonomial(support0=f.zeros, support1=f.ones))
    return IdealGenerators.minimal(n, gens)


def dual_ideal(c: FunctionClass) -> IdealGenerators:
    """One degree-n generator per member: m(A, A) for the 1-preimage A."""
    n = c.n
    gens = [
        SquarefreeMonomial(support0=a, support1=a.complement()) for a in c.members
    ]
    return IdealGenerators.minimal(n, gens)


def collapse_membership(c: FunctionClass, u: Subset) -> bool:
    """Whether the squarefree image of prod_{i in U} y_i lies in the collapsed ideal.

    Collapsing x(i,b) to y_i turns functional monomials into squares
    (which never divide a squarefree monomial) and extenture monomials
    into products over their domains, so membership reduces to: does
    some extenture have its domain inside U?
    """
    if not isinstance(u, Subset) or u.n != c.n:
        raise ValidationError(f"{u!r} does not live on ground size {c.n}")
    return any(f.domain.issubset(u) for f in extentures(c))


def flip_class(c: FunctionClass, mask: Subset) -> FunctionClass:
    """XOR every member's 1-preimage with ``mask`` (output-flip action)."""
    if not isinstance(mask, Subset) or mask.n != c.n:
        raise ValidationError(f"{mask!r} does not live on ground size {c.n}")
    return FunctionClass(c.n, [m ^ mask for m in c.members])
