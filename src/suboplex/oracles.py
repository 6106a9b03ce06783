"""Brute-force verifiers, independent of the theorem-driven fast paths.

The Betti oracle enumerates every squarefree multidegree b of the
polynomial ring, with x(i,0) at bit i and x(i,1) at bit n + i as in a
monomial's two supports, and computes the reduced homology of
K^b = { tau subset supp(b) : b with tau removed lies in the ideal },
whose (i-1)-st homology dimension is beta_{i,b} (Miller-Sturmfels,
"Combinatorial Commutative Algebra", Thm 1.34).  K^b comes from ideal
membership only, never from poset chains, so agreement with the
interval method is a genuine cross-check; only the boundary ranks
(``ChainHomology``, ``rank_from_columns``) are shared with the sweeps.
Homology does not depend on vertex numbering, so neither does any table.
"""

from __future__ import annotations

from .betti import BettiTable
from .classes import FunctionClass, IdealGenerators
from .homology import _chain_homology
from .errors import CapExceededError
from .linalg import GF2, FieldSpec

ORACLE_MAX_VARIABLES = 12
# 2^n subsets, each one step plus a set insertion per member: 1.0-1.4 s
# in-process at this cap on a 2-CPU VM, and 3.4 s with one member.
VC_ORACLE_MAX_WORK = 2**24
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def upper_koszul_slice(member: bytearray, b: int) -> list[int]:
    """Faces of K^b: subsets tau of supp(b) with b minus tau in the ideal.

    ``member`` is the ideal-membership table over squarefree monomial
    masks.  The family is closed under taking subsets (removing less
    keeps the quotient a multiple of a generator), and it is null
    exactly when b itself is not in the ideal, so it is listed by a
    depth-first search from the empty face: tau grows only by bits of b
    above its highest bit, and a branch stops where b minus tau leaves
    the ideal.
    """
    if not member[b]:
        return []
    faces = [0]
    stack = [0]
    while stack:
        tau = stack.pop()
        rest = b >> tau.bit_length() << tau.bit_length()
        while rest:
            low = rest & -rest
            rest ^= low
            if member[b ^ tau ^ low]:
                faces.append(tau | low)
                stack.append(tau | low)
    return faces


def _membership_table(variables: int, gmasks: list[int]) -> bytearray:
    """Byte m is 1 iff some generator mask divides the monomial mask m.

    One int over all 2^variables monomials starts at the generators and
    is closed under supersets one variable at a time: the monomials
    without variable j, shifted by 2^j, gain it.
    """
    size = 1 << variables
    table = 0
    for g in gmasks:
        table |= 1 << g
    for j in range(variables):
        step = 1 << j
        block = (1 << step) - 1
        without = block * (((1 << size) - 1) // ((1 << 2 * step) - 1))
        table |= (table & without) << step
    return bytearray(format(table, f"0{size}b")[::-1], "ascii").translate(_ZERO_ONE)


def betti_oracle(gens: IdealGenerators, fieldspec: FieldSpec = GF2) -> BettiTable:
    """Full multigraded Betti table of a squarefree ideal, by exhaustion.

    A generator is the mask ``support0 | support1 << n``.  Every
    squarefree multidegree b is visited; beta_{i,b} is the (i-1)-st
    reduced homology dimension of the slice K^b, whose faces come from
    the membership table alone.  Membership of a monomial in the ideal
    (some generator divides it) is tabulated once up front, by
    ``_membership_table``.  Capped at 2n <= 12 variables, checked first.
    """
    n = gens.n
    if 2 * n > ORACLE_MAX_VARIABLES:
        raise CapExceededError(
            f"Betti oracle is capped at {ORACLE_MAX_VARIABLES} variables, got {2 * n}"
        )
    member = _membership_table(2 * n, [g.support0.bits | g.support1.bits << n for g in gens])
    full = (1 << n) - 1
    cells: dict[tuple[int, int, int], int] = {}
    for b in range(len(member)):
        if not member[b]:
            continue  # K^b has no faces at all: nothing in this degree
        chain = _chain_homology(upper_koszul_slice(member, b), fieldspec)
        for d in chain.faces:
            v = chain.betti(d)
            if v:
                cells[(d + 1, b & full, b >> n)] = v
    return BettiTable(n, cells)


def regularity_oracle(gens: IdealGenerators, fieldspec: FieldSpec = GF2) -> int:
    """Castelnuovo-Mumford regularity: max of (total degree - index) over the table."""
    table = betti_oracle(gens, fieldspec)
    return max(s0.bit_count() + s1.bit_count() - i for (i, s0, s1) in table.cells)


def vc_oracle(c: FunctionClass) -> int:
    """VC dimension by exhaustive check of all 2^n subsets, no pruning."""
    n, masks = c.n, c._masks
    work = (len(masks) + 1) << n
    if work > VC_ORACLE_MAX_WORK:
        raise CapExceededError(
            f"VC oracle is capped at {VC_ORACLE_MAX_WORK} steps, 2^n * (members + 1), got {work}"
        )
    best = 0
    for u in range(1 << n):
        size = u.bit_count()
        patterns = {m & u for m in masks}
        if len(patterns) == 1 << size and size > best:
            best = size
    return best
