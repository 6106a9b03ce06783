"""The VC search: the sets that a poset or a function class shatters.

Only ``vcdim`` and ``shatter`` run it, so it lives apart from ``posets``,
which every call compiles.  A closed family answers from its members'
columns, so a poset is searched as it is, with no class built to be
asked; ``classes`` re-exports ``vc_dimension`` under its old name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .bitsets import _bits, _columns
from .errors import CapExceededError, ValidationError
from .posets import SubsetPoset

if TYPE_CHECKING:
    from .classes import FunctionClass

VC_MAX_WORK = 100_000_000


def _members(family: SubsetPoset | FunctionClass) -> list[int]:
    """The member masks of ``family``, which must have one: an empty family
    shatters no set, not even the empty one."""
    if not family._masks:
        raise ValidationError("an empty family shatters no set and has no VC dimension")
    return family._masks


def _is_shattered(masks: Iterable[int], u: int) -> bool:
    """The member scan: do the traces ``m & u`` take all 2^|u| values?"""
    want, seen = 1 << u.bit_count(), set()
    for m in masks:
        seen.add(m & u)
        if len(seen) == want:
            return True
    return False


def shattered_levels(family: SubsetPoset | FunctionClass) -> list[list[int]]:
    """The sets a poset or class shatters, as masks, level by level from the empty set.

    A set is shattered only if its one-smaller subsets are, so each
    level's candidates t grow from the level below.  A closed family tests
    t by free sets (Helmbold, Sloan and Warmuth, "Learning nested
    differences of intersection-closed concept classes", 1990): t is
    shattered iff a member contains t and, for each x in t, x is not in
    cl(t - x), the AND of the members containing t - x.  For each
    shattered s, ``prev[s]`` masks the indices of the members containing
    s, the AND of the columns of its points, so x is in cl(s) iff that
    mask lies inside column x.  Any other family scans its members.

    The work is counted per level: candidate generation, |level| * n, then
    |t| + 1 mask ANDs of members / 64 + 1 words per candidate of a closed
    family, the members per candidate of another.  ``CapExceededError`` is
    raised before either takes the total past ``VC_MAX_WORK``.  A family
    of m members shatters at least m sets (Pajor), so its member scan
    takes at least m(m - 1) steps; a class past that count is refused
    before its closedness scan of m(m - 1)/2 pair tests.  A poset is
    searched: its scan runs from orbit representatives and is kept.
    """
    masks, capped = _members(family), f"VC search is capped at {VC_MAX_WORK} steps"
    m, n = len(masks), family.n
    if m * (m - 1) > VC_MAX_WORK and not isinstance(family, SubsetPoset):
        raise CapExceededError(capped)
    closed = family.is_intersection_closed()
    contains = _columns(masks, n) if closed else []
    missing = [(1 << m) - 1 ^ c for c in contains]
    levels, prev, work = [[0]], {0: (1 << m) - 1}, 0
    while True:
        work += len(levels[-1]) * n
        if work > VC_MAX_WORK:
            raise CapExceededError(capped)
        candidates = []
        for s in levels[-1]:  # v above every point of s: t is made once, from t less its top
            for v in range(s.bit_length(), n):
                t, rest = s | 1 << v, s
                while rest and t ^ rest & -rest in prev:
                    rest &= rest - 1
                if not rest:
                    candidates.append(t)
        work += len(candidates) * ((len(levels) + 1) * (m // 64 + 1) if closed else m)
        if work > VC_MAX_WORK:
            raise CapExceededError(capped)
        if closed:
            shattered = {}
            for t in candidates:
                top = t.bit_length() - 1
                above = prev[t ^ 1 << top] & contains[top]
                if above and all(prev[t ^ 1 << x] & missing[x] for x in _bits(t)):
                    shattered[t] = above
        else:
            shattered = dict.fromkeys(t for t in candidates if _is_shattered(masks, t))
        if not shattered:
            return levels
        levels.append(sorted(shattered))
        prev = shattered


def vc_dimension(family: SubsetPoset | FunctionClass) -> int:
    """Size of the largest set that a poset or class shatters."""
    return len(shattered_levels(family)) - 1
