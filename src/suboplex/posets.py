"""Inclusion-ordered posets of subsets of [n].

A ``SubsetPoset`` is a finite family of distinct subsets with the
induced inclusion order.  Elements are kept in a canonical linear
extension (by cardinality, then by bit value), which downstream code
relies on: in any stored chain the element of smallest index is the
minimum.  Cover relations are found eagerly by transitive reduction of
the comparability masks; Moebius values are memoized per pair and
evaluated iteratively along the linear extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .bitsets import Subset, check_ground
from .errors import ValidationError


def intersection_closure(masks: Iterable[int]) -> set[int]:
    """Close a family of bit masks under pairwise intersection."""
    closed = set(masks)
    frontier = set(closed)
    while frontier:
        fresh: set[int] = set()
        for a in frontier:
            for b in closed:
                c = a & b
                if c not in closed and c not in fresh:
                    fresh.add(c)
        closed |= fresh
        frontier = fresh
    return closed


class SubsetPoset:
    """A family of distinct subsets of [n] under the induced inclusion order."""

    __slots__ = (
        "n",
        "elements",
        "_masks",
        "_index",
        "_up_strict",
        "_down_strict",
        "_covers_up",
        "_mobius_memo",
    )

    def __init__(self, n: int, elements: Iterable[Subset]) -> None:
        check_ground(n)
        elems = list(elements)
        for e in elems:
            if not isinstance(e, Subset):
                raise ValidationError(f"poset elements must be Subsets, got {e!r}")
            if e.n != n:
                raise ValidationError(
                    f"poset element width {e.n} does not match ground size {n}"
                )
        masks = [e.bits for e in elems]
        if len(set(masks)) != len(masks):
            raise ValidationError("poset elements must be distinct")
        order = sorted(masks, key=lambda m: (m.bit_count(), m))
        self.n = n
        self._masks: tuple[int, ...] = tuple(order)
        self.elements: tuple[Subset, ...] = tuple(Subset(n, m) for m in order)
        self._index = {m: i for i, m in enumerate(order)}
        size = len(order)
        up = [0] * size
        down = [0] * size
        for i in range(size):
            mi = order[i]
            for j in range(i + 1, size):
                if mi & order[j] == mi and mi != order[j]:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        self._up_strict = up
        self._down_strict = down
        covers = [0] * size
        for i in range(size):
            rest = up[i]
            while rest:
                j = rest.bit_length() - 1
                bit = 1 << j
                rest ^= bit
                if up[i] & down[j] == 0:
                    covers[i] |= bit
        self._covers_up = covers
        self._mobius_memo: dict[tuple[int, int], int] = {}

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SubsetPoset":
        return cls(n, [Subset(n, m) for m in masks])

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "SubsetPoset":
        if not strings:
            raise ValidationError("cannot infer ground size from an empty element list")
        subsets = [Subset.from_string(s) for s in strings]
        widths = {s.n for s in subsets}
        if len(widths) != 1:
            raise ValidationError("poset element strings have inconsistent widths")
        return cls(widths.pop(), subsets)

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.elements)

    def __contains__(self, s: Subset) -> bool:
        return isinstance(s, Subset) and s.n == self.n and s.bits in self._index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubsetPoset)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def index(self, s: Subset) -> int:
        self._require_member(s)
        return self._index[s.bits]

    def _require_member(self, s: Subset) -> None:
        if not isinstance(s, Subset) or s.n != self.n:
            raise ValidationError(f"{s!r} does not belong to this ground set")
        if s.bits not in self._index:
            raise ValidationError(f"subset {s} is not an element of the poset")

    def leq(self, a: Subset, b: Subset) -> bool:
        self._require_member(a)
        self._require_member(b)
        return a.bits & b.bits == a.bits

    def rank(self) -> int:
        """Length of the longest chain (elements minus one along it)."""
        if not self._masks:
            raise ValidationError("rank of the empty poset is undefined")
        depth = [0] * len(self._masks)
        for j in range(len(self._masks)):
            below = self._down_strict[j]
            best = 0
            while below:
                i = below.bit_length() - 1
                below ^= 1 << i
                if depth[i] + 1 > best:
                    best = depth[i] + 1
            depth[j] = best
        return max(depth)

    def interval_ranks(self) -> Iterator[tuple[int, int, int, bool]]:
        """``(i, j, rank, graded)`` for every closed interval [e_i, e_j], i < j.

        One longest-chain pass per bottom element i gives the depth of
        every element above it, and the rank of [e_i, e_j] is the depth
        of e_j.  The interval is graded iff every cover x < y inside it
        raises the depth by exactly one.  Pairs come by ascending i,
        then descending j.
        """
        size = len(self._masks)
        covers_down = [0] * size
        for i, cov in enumerate(self._covers_up):
            rest = cov
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                covers_down[j] |= 1 << i
        for i in range(size):
            up = self._up_strict[i]
            span = up | 1 << i
            depth = {i: 0}
            ungraded = 0
            rest = up
            while rest:  # ascending indices follow the linear extension
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                below = covers_down[j] & span  # never empty: [e_i, e_j] is finite
                cover_depths = set()
                while below:
                    x = below.bit_length() - 1
                    below ^= 1 << x
                    cover_depths.add(depth[x])
                depth[j] = max(cover_depths) + 1
                if len(cover_depths) > 1:
                    ungraded |= low
            rest = up
            while rest:
                j = rest.bit_length() - 1
                bit = 1 << j
                rest ^= bit
                yield i, j, depth[j], not ungraded & (self._down_strict[j] | bit)

    def cover_relations(self) -> list[tuple[Subset, Subset]]:
        out = []
        for i, cov in enumerate(self._covers_up):
            rest = cov
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                out.append((self.elements[i], self.elements[j]))
        out.sort(key=lambda ab: (self._index[ab[0].bits], self._index[ab[1].bits]))
        return out

    def is_intersection_closed(self) -> bool:
        masks = self._masks
        idx = self._index
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & b not in idx:
                    return False
        return True

    def closure(self, a: Subset) -> Subset | None:
        """Intersection of all elements containing ``a``; None if there are none."""
        if not isinstance(a, Subset) or a.n != self.n:
            raise ValidationError(f"{a!r} does not belong to this ground set")
        acc = -1
        for m in self._masks:
            if a.bits & m == a.bits:
                acc &= m
        if acc == -1:
            return None
        return Subset(self.n, acc)

    def bottom(self) -> Subset | None:
        """The unique minimal element, if the poset is bounded below."""
        if not self._masks:
            return None
        mins = [i for i in range(len(self._masks)) if self._down_strict[i] == 0]
        return self.elements[mins[0]] if len(mins) == 1 else None

    def top(self) -> Subset | None:
        if not self._masks:
            return None
        maxs = [i for i in range(len(self._masks)) if self._up_strict[i] == 0]
        return self.elements[maxs[0]] if len(maxs) == 1 else None

    def bounded(self) -> "SubsetPoset":
        """This poset with the AND and the OR of all its members added.

        A missing AND lies strictly below every member and a missing OR
        strictly above, so the result has a bottom and a top on the same
        ground set.  Its order complex is that of ``self`` joined with at
        most two cone points, so one is Cohen-Macaulay iff the other is.
        An intersection-closed poset stays intersection-closed.  Returns
        ``self`` when both are already members, and for the empty poset.
        """
        if not self._masks:
            return self
        lo, hi = -1, 0
        for m in self._masks:
            lo &= m
            hi |= m
        extra = {lo, hi}.difference(self._index)
        if not extra:
            return self
        return SubsetPoset.from_masks(self.n, [*self._masks, *extra])

    def restrict(self, indices: Iterable[int]) -> "SubsetPoset":
        return SubsetPoset(self.n, [self.elements[i] for i in indices])

    def chain_masks(self, within: int | None = None) -> Iterator[int]:
        """Index-bitmasks of all chains, the empty chain included.

        The canonical element order is a linear extension, so the set
        bits of a mask, read in increasing position, list the chain in
        increasing order.  ``within``, a bit mask of element indices,
        restricts the chains to those elements.
        """
        if within is None:
            within = (1 << len(self)) - 1
        above: dict[int, list[int]] = {}
        rest = within
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            above[i] = []
            up = self._up_strict[i] & within
            while up:
                j = up.bit_length() - 1
                up ^= 1 << j
                above[i].append(j)
        yield 0
        stack = [(1 << i, i) for i in above]
        while stack:
            mask, last = stack.pop()
            yield mask
            for j in above[last]:
                stack.append((mask | (1 << j), j))

    def chains(self) -> Iterator[tuple[Subset, ...]]:
        """All chains as strictly increasing element tuples."""
        for mask in self.chain_masks():
            out = []
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                out.append(self.elements[low.bit_length() - 1])
            yield tuple(out)

    def _interval_indices(self, a: Subset, b: Subset) -> list[int]:
        lo, hi = a.bits, b.bits
        return [
            i
            for i, m in enumerate(self._masks)
            if lo & m == lo and m & hi == m
        ]

    def interval(self, a: Subset, b: Subset, open: bool = False) -> "Interval":
        self._require_member(a)
        self._require_member(b)
        if a.bits & b.bits != a.bits:
            raise ValidationError(f"interval endpoints must satisfy {a} <= {b}")
        members = self._interval_indices(a, b)
        if open:
            members = [i for i in members if self._masks[i] not in (a.bits, b.bits)]
        return Interval(lo=a, hi=b, members=self.restrict(members), is_open=open)

    def mobius(self, a: Subset, b: Subset) -> int:
        """Moebius value mu(a, b) of the induced order, memoized per pair."""
        self._require_member(a)
        self._require_member(b)
        if a.bits & b.bits != a.bits:
            raise ValidationError(f"mobius requires comparable elements, got {a}, {b}")
        key = (a.bits, b.bits)
        memo = self._mobius_memo
        if key in memo:
            return memo[key]
        members = self._interval_indices(a, b)
        masks = self._masks
        mu: dict[int, int] = {}
        for j in members:  # members come in linear-extension order
            mj = masks[j]
            if mj == a.bits:
                mu[j] = 1
            else:
                mu[j] = -sum(
                    mu[i] for i in members if i in mu and masks[i] & mj == masks[i] and masks[i] != mj
                )
            memo[(a.bits, mj)] = mu[j]
        return memo[key]


@dataclass(frozen=True)
class Interval:
    """A closed or open interval of a SubsetPoset, as a poset restriction."""

    lo: Subset
    hi: Subset
    members: SubsetPoset
    is_open: bool = False

    def rank(self) -> int:
        if self.is_open:
            raise ValidationError("rank of an open interval is taken on its closure")
        return self.members.rank()

    def open_members(self) -> SubsetPoset:
        if self.is_open:
            return self.members
        keep = [
            i
            for i, e in enumerate(self.members.elements)
            if e.bits not in (self.lo.bits, self.hi.bits)
        ]
        return self.members.restrict(keep)


def build_poset(n: int, elements: Iterable[Subset]) -> SubsetPoset:
    return SubsetPoset(n, elements)
