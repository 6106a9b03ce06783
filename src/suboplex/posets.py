"""Inclusion-ordered posets of subsets of [n].

A ``SubsetPoset`` is a finite family of distinct subsets with the
induced inclusion order.  Elements are kept in a canonical linear
extension (by cardinality, then by bit value), which downstream code
relies on: in any stored chain the element of smallest index is the
minimum.  The comparability masks are built by transposing the
members' bits, and the covers of each element by a walk of the members
above it; both eagerly.  Every interval invariant (rank, gradedness,
Moebius value, chain count of the open part) comes from one pass per
bottom element along the linear extension, ``intervals_above``.

A poset may carry a ``symmetry``: permutations of [n], declared by the
builder that made it, each mapping the member set onto itself and so
every interval [A, B] onto an isomorphic interval [gA, gB] (Stanley,
"Some aspects of groups acting on finite posets", JCTA 1982).  Every
interval invariant is constant on the orbits of intervals, so the
sweeps read ``interval_orbits``: one pass from one bottom per element
orbit, each interval standing for its orbit.  Equality, hashing and
restrictions ignore the symmetry; ``intervals_above`` from every bottom
lists every pair.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Sequence

from .bitsets import Subset, Value, _bits, _columns, check_ground
from .errors import CapExceededError, ValidationError

# Four comparability tables of m^2 bits each: about 200 MB at the cap.
POSET_MAX_MEMBERS = 20_000
# The pairs of a POSET_MAX_MEMBERS-member family, so no poset's scan reaches it.
AND_CLOSED_MAX_PAIRS = POSET_MAX_MEMBERS * (POSET_MAX_MEMBERS - 1) // 2


def check_members(count: int, what: str) -> None:
    """Raise ``CapExceededError`` once ``count`` passes ``POSET_MAX_MEMBERS``."""
    if count > POSET_MAX_MEMBERS:
        raise CapExceededError(f"{what} is capped at {POSET_MAX_MEMBERS} members, got {count}")


def intersection_closure(masks: Iterable[int]) -> set[int]:
    """Close masks under AND one generator at a time: (g & a) & (g & b) = g & (a & b).

    The closure only grows, so it is capped after each generator.
    """
    closed: set[int] = set()
    for g in masks:
        closed |= {g & c for c in closed}
        closed.add(g)
        check_members(len(closed), "intersection closure")
    return closed


def and_closed(masks: Sequence[int], members: Container[int], firsts: Iterable[int]) -> bool:
    """True iff ``masks[i] & b`` is in ``members`` for each i in ``firsts`` and
    each b after ``masks[i]``; stops at the first missing AND.

    A row's pair tests are counted before it is scanned, and
    ``CapExceededError`` is raised before the count passes
    ``AND_CLOSED_MAX_PAIRS``: only a class, which builds no poset and so
    meets no member cap, can get that far.
    """
    work, last = 0, len(masks) - 1
    for i in firsts:
        work += last - i
        if work > AND_CLOSED_MAX_PAIRS:
            raise CapExceededError(
                f"intersection-closed scan is capped at {AND_CLOSED_MAX_PAIRS} pair tests"
            )
        a = masks[i]
        for b in masks[i + 1 :]:
            if a & b not in members:
                return False
    return True


def _comparability(n: int, order: Sequence[int]) -> tuple[list[int], list[int]]:
    """Strict up and down index masks of the members ``order``, by transposition.

    ``contains[v]``, the index mask of the members holding ground element
    v, is read off one column of the members' bit strings.  The members
    above e_i lie in ``contains[v]`` for every v in e_i, and those below
    it lie outside ``contains[v]`` for every v not in e_i.
    """
    everyone = (1 << len(order)) - 1
    contains = _columns(order, n)
    missing = [everyone ^ c for c in contains]
    up, down = [], []
    for i, m in enumerate(order):
        above = below = everyone ^ 1 << i
        for v in range(n):
            if m >> v & 1:
                above &= contains[v]
            else:
                below &= missing[v]
        up.append(above)
        down.append(below)
    return up, down


def _covers(up: Sequence[int]) -> tuple[list[int], list[int]]:
    """Upper and lower cover masks from the strict up masks, in a linear extension.

    The lowest index left in ``up[i]`` is minimal there, so a cover of e_i:
    keep it, then clear it and everything above it.
    """
    covers_up, covers_down = [], [0] * len(up)
    for i, rest in enumerate(up):
        covers, bit = 0, 1 << i
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            covers |= low
            covers_down[j] |= bit
            rest &= ~(up[j] | low)
        covers_up.append(covers)
    return covers_up, covers_down


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
        "_covers_down",
        "_intersection_closed",
        "symmetry",
        "_automorphisms",
    )

    def __init__(
        self, n: int, elements: Iterable[Subset], symmetry: Iterable[Sequence[int]] = ()
    ) -> None:
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
        check_members(len(masks), "a poset")
        if len(set(masks)) != len(masks):
            raise ValidationError("poset elements must be distinct")
        order = sorted(masks, key=lambda m: (m.bit_count(), m))
        self.n = n
        self._masks: tuple[int, ...] = tuple(order)
        self.elements: tuple[Subset, ...] = tuple(Subset(n, m) for m in order)
        self._index = {m: i for i, m in enumerate(order)}
        self._up_strict, self._down_strict = _comparability(n, order)
        self._covers_up, self._covers_down = _covers(self._up_strict)
        self._intersection_closed: bool | None = None
        self.symmetry = tuple(tuple(g) for g in symmetry)
        self._automorphisms = tuple(self._index_map(k, g) for k, g in enumerate(self.symmetry))

    def _index_map(self, k: int, g: tuple[int, ...]) -> tuple[int, ...]:
        """Generator ``k``, a permutation ``g`` of [n], as a map on element indices."""
        if not all(isinstance(x, int) for x in g) or sorted(g) != list(range(self.n)):
            raise ValidationError(
                f"symmetry generator {k} is not a permutation of range({self.n})"
            )
        # The image of each byte of a mask, one table per byte of the ground set.
        masks, images = self._masks, [0] * len(self._masks)
        for shift in range(0, self.n, 8):
            table = [0]
            for v in g[shift : shift + 8]:
                table += [t | 1 << v for t in table]
            images = [image | table[m >> shift & 255] for image, m in zip(images, masks)]
        index = [self._index.get(image) for image in images]
        if None in index:
            m = masks[index.index(None)]
            raise ValidationError(
                f"symmetry generator {k} maps {Subset(self.n, m)} to a non-member"
            )
        return tuple(index)

    @classmethod
    def from_masks(
        cls, n: int, masks: Iterable[int], symmetry: Iterable[Sequence[int]] = ()
    ) -> "SubsetPoset":
        return cls(n, [Subset(n, m) for m in masks], symmetry)

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

    def intervals_above(self, i: int) -> Iterator[tuple[int, int, bool, int, int]]:
        """``(j, rank, graded, mu, chains)`` for every e_j > e_i, by ascending j.

        One pass along the linear extension above e_i, so every element
        below e_j is done when e_j is reached:

        * rank is the longest-chain depth of e_j above e_i, taken over
          covers; [e_i, e_j] is graded iff every cover x < y inside it
          raises the depth by exactly one;
        * mu is the Moebius value mu(e_i, e_j) = -sum of mu(e_i, x) over
          e_i <= x < e_j (Rota, "On the foundations of combinatorial
          theory I", 1964);
        * chains counts the chains of the open interval (e_i, e_j), the
          empty chain included: 1 plus, for each interior x, the chains
          of (e_i, x), which are those with top x.

        mu and chains share one loop over the interior.
        """
        up = self._up_strict[i]
        span = up | 1 << i
        down, covers_down = self._down_strict, self._covers_down
        size = len(self._masks)
        depth, mu, chains = [0] * size, [0] * size, [0] * size
        ungraded = 0
        rest = up
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            below = covers_down[j] & span  # never empty: [e_i, e_j] is finite
            x = below.bit_length() - 1
            below ^= 1 << x
            hi = lo = depth[x]
            while below:
                x = below.bit_length() - 1
                below ^= 1 << x
                d = depth[x]
                if d > hi:
                    hi = d
                elif d < lo:
                    lo = d
            depth[j] = hi + 1
            if lo != hi:
                ungraded |= low
            m = c = 1  # e_i itself, and the empty chain
            inner = down[j] & up
            while inner:
                x = inner.bit_length() - 1
                inner ^= 1 << x
                m += mu[x]
                c += chains[x]
            mu[j] = -m
            chains[j] = c
            yield j, hi + 1, not ungraded & (down[j] | low), -m, c

    def _orbit(self, seen: set[int], i: int, j: int) -> list[tuple[int, int]]:
        """The orbit of the pair (i, j) under the generators, (i, j) first.

        Pairs are keyed ``i * len(self) + j`` in ``seen``, which the
        search fills; each pair of the orbit is visited once.
        """
        size = len(self._masks)
        seen.add(i * size + j)
        pairs = [(i, j)]
        for a, b in pairs:  # the list grows while it is read
            for g in self._automorphisms:
                if g[a] * size + g[b] not in seen:
                    seen.add(g[a] * size + g[b])
                    pairs.append((g[a], g[b]))
        return pairs

    def orbit_representatives(self) -> list[int]:
        """The least element index of each orbit of the symmetry group, ascending."""
        reps, seen = [], set()
        for i in range(len(self._masks)):
            if i * len(self._masks) + i not in seen:
                self._orbit(seen, i, i)
                reps.append(i)
        return reps

    def interval_orbits(
        self,
    ) -> Iterator[tuple[tuple[int, int, int, bool, int, int], list[tuple[int, int]]]]:
        """``(row, pairs)`` for each orbit of pairs e_i < e_j under the symmetry group.

        ``row`` is ``(i, *r)`` for the ``intervals_above(i)`` row r of the
        orbit's least pair (i, j), and ``pairs`` lists every pair of the
        orbit, that one first; all of them share its rank, gradedness, mu
        and chain count.  Only the bottoms from ``orbit_representatives``
        run ``intervals_above``.
        """
        seen: set[int] = set()
        for i in self.orbit_representatives():
            for row in self.intervals_above(i):
                if i * len(self._masks) + row[0] not in seen:
                    yield (i, *row), self._orbit(seen, i, row[0])

    def is_intersection_closed(self) -> bool:
        """True iff the AND of every two members is a member; scanned once."""
        if self._intersection_closed is None:
            self._intersection_closed = self._scan_intersection_closed()
        return self._intersection_closed

    def _scan_intersection_closed(self) -> bool:
        """Test the pairs (r, j) with r an element-orbit representative and j > r.

        Every pair {x, y} is the image of a tested pair under an
        automorphism, and automorphisms preserve AND and membership.  Let
        r be the least index in x's orbit, with x = g r.  If g^-1 y comes
        after r, the pair (r, g^-1 y) is tested.  Otherwise let s be the
        least index in g^-1 y's orbit, with g^-1 y = h s; then h^-1 r lies
        in r's orbit, so it comes after r and after s, and (s, h^-1 r) is
        tested.  Under the trivial group these are all pairs i < j.
        """
        return and_closed(self._masks, self._index, self.orbit_representatives())

    def bottom(self) -> Subset | None:
        """The unique minimal element, if the poset is bounded below.

        A bottom lies strictly under every other member, so only e_0 can be one."""
        size = len(self._masks)
        return self.elements[0] if size and self._up_strict[0] == (1 << size) - 2 else None

    def top(self) -> Subset | None:
        """The unique maximal element, if any; only the last element can be one."""
        size = len(self._masks)
        return self.elements[-1] if size and self._down_strict[-1] == (1 << size - 1) - 1 else None

    def bounded(self) -> "SubsetPoset":
        """This poset with the AND and the OR of all its members added.

        A missing AND lies strictly below every member and a missing OR
        strictly above, so the result has a bottom and a top on the same
        ground set.  Its order complex is that of ``self`` joined with at
        most two cone points, so one is Cohen-Macaulay iff the other is.
        An intersection-closed poset stays intersection-closed, and the
        symmetry is kept: it fixes the AND and the OR of all members.
        Returns ``self`` when both are already members, and for the
        empty poset.
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
        return SubsetPoset.from_masks(self.n, [*self._masks, *extra], self.symmetry)

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
        down_from = _bits(within)[::-1]  # the stack then pops the lowest index first
        above = {i: _bits(self._up_strict[i] & within)[::-1] for i in down_from}
        yield 0
        stack = [(1 << i, i) for i in down_from]
        while stack:
            mask, last = stack.pop()
            yield mask
            for j in above[last]:
                stack.append((mask | (1 << j), j))

    def interval(self, a: Subset, b: Subset, open: bool = False) -> "Interval":
        self._require_member(a)
        self._require_member(b)
        if a.bits & b.bits != a.bits:
            raise ValidationError(f"interval endpoints must satisfy {a} <= {b}")
        lo, hi = a.bits, b.bits
        members = [i for i, m in enumerate(self._masks) if lo & m == lo and m & hi == m]
        if open:
            members = [i for i in members if self._masks[i] not in (a.bits, b.bits)]
        return Interval(lo=a, hi=b, members=self.restrict(members), is_open=open)

    def mobius(self, a: Subset, b: Subset) -> int:
        """Moebius value mu(a, b) of the induced order, read from a's pass; no memo."""
        self._require_member(a)
        self._require_member(b)
        if a.bits & b.bits != a.bits:
            raise ValidationError(f"mobius requires comparable elements, got {a}, {b}")
        if a == b:
            return 1
        top = self._index[b.bits]
        rows = self.intervals_above(self._index[a.bits])
        return next(mu for j, _, _, mu, _ in rows if j == top)


class Interval(Value):
    """A closed or open interval of a SubsetPoset, as a poset restriction."""

    _fields = ("lo", "hi", "members", "is_open")
    lo: Subset
    hi: Subset
    members: SubsetPoset
    is_open: bool

    def __init__(self, lo: Subset, hi: Subset, members: SubsetPoset, is_open: bool = False) -> None:
        self._assign(lo, hi, members, is_open)

    def open_members(self) -> SubsetPoset:
        if self.is_open:
            return self.members
        keep = [
            i
            for i, e in enumerate(self.members.elements)
            if e.bits not in (self.lo.bits, self.hi.bits)
        ]
        return self.members.restrict(keep)
