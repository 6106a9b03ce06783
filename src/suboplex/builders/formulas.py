"""Function classes of Boolean formulas on the hypercube [2]^d.

The ground set is [n] with n = 2^d, vertex i standing for the input
whose j-th variable is bit j of i.  k-CNF classes are realized through
their supports: the support of a CNF is the intersection of its clause
supports, so the class is the intersection closure of the supports of
all clauses of size at most k (plus the full set, for the empty
conjunction).  CSP classes do the same starting from an arbitrary
generator family.  Conjunctions of parity functions, and of degree-
bounded polynomials, are the flat lattices of the corresponding linear
matroids over GF(2).

Each poset carries the symmetries its family is known to have: the
d-cube's hyperoctahedral group for kcnf, and the permutations of the
variables for monotone kcnf and parity conjunctions.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from ..bitsets import MAX_GROUND, Value
from ..errors import CapExceededError, ValidationError
from ..posets import SubsetPoset, intersection_closure
from .cells import cube_symmetry

if TYPE_CHECKING:
    from ..classes import FunctionClass

KCNF_MAX_VARIABLES = 4

VARIANTS = ("kcnf", "monotone_kcnf", "csp", "parity_conj", "poly_conj")


def csp_ground(d: int) -> int:
    """2^d, the ground size of a csp spec, refused past ``MAX_GROUND`` before the shift."""
    if d >= MAX_GROUND.bit_length():  # 2^d > MAX_GROUND, tested without the shift
        raise ValidationError(f"csp spec needs 2^d <= {MAX_GROUND} ground points, got d = {d}")
    return 1 << d


class FormulaClassSpec(Value):
    """Which formula family to build: variant plus its parameters.

    ``k`` is the clause size bound (kcnf) or degree bound (poly_conj);
    ``generators`` are function supports as masks over [2^d] (csp).
    """

    _fields = ("variant", "d", "k", "generators")
    variant: str
    d: int
    k: int | None
    generators: tuple[int, ...] | None

    def __init__(
        self, variant: str, d: int, k: int | None = None, generators: tuple[int, ...] | None = None
    ) -> None:
        if variant not in VARIANTS:
            raise ValidationError(f"formula variant must be one of {VARIANTS}, got {variant!r}")
        if not isinstance(d, int) or d < 1:
            raise ValidationError(f"variable count d must be a positive integer, got {d!r}")
        if variant in ("kcnf", "monotone_kcnf", "poly_conj"):
            if not isinstance(k, int) or not 1 <= k <= d:
                raise ValidationError(f"clause/degree bound k must satisfy 1 <= k <= d, got {k!r}")
        if variant == "csp":
            if generators is None:
                raise ValidationError("csp spec needs a generator set")
            n = csp_ground(d)
            for g in generators:
                if not 0 <= g < (1 << n):
                    raise ValidationError(f"csp generator 0x{g:x} is not a function on [2]^{d}")
        self._assign(variant, d, k, generators)


def _clause_supports(d: int, k: int, monotone: bool) -> set[int]:
    """Supports of all disjunctive clauses with at most k literals."""
    n = 1 << d
    full = (1 << n) - 1
    supports: set[int] = set()
    for size in range(1, k + 1):
        for variables in combinations(range(d), size):
            polarity_count = 1 if monotone else 1 << size
            for pol in range(polarity_count):
                if monotone:
                    falsifier = {j: 0 for j in variables}
                else:
                    falsifier = {
                        j: 1 - (pol >> t & 1) for t, j in enumerate(variables)
                    }
                dead = 0
                for v in range(n):
                    if all(v >> j & 1 == bit for j, bit in falsifier.items()):
                        dead |= 1 << v
                supports.add(full & ~dead)
    return supports


def _closure_poset(
    d: int, supports: set[int], symmetry: Sequence[Sequence[int]] = ()
) -> SubsetPoset:
    n = 1 << d
    family = set(supports)
    family.add((1 << n) - 1)  # the empty conjunction
    return SubsetPoset.from_masks(n, intersection_closure(family), symmetry)


def formula_poset(spec: FormulaClassSpec) -> SubsetPoset:
    """The support poset of a formula family's class: its members, with the
    symmetry the family is known to have."""
    d = spec.d
    if spec.variant in ("kcnf", "monotone_kcnf", "csp") and d > KCNF_MAX_VARIABLES:
        raise CapExceededError(
            f"formula builder is capped at d <= {KCNF_MAX_VARIABLES} (ground 2^d), got d={d}"
        )
    if spec.variant == "kcnf":
        poset = _closure_poset(d, _clause_supports(d, spec.k, monotone=False), cube_symmetry(d))
    elif spec.variant == "monotone_kcnf":
        poset = _closure_poset(
            d, _clause_supports(d, spec.k, monotone=True), cube_symmetry(d, reflect=False)
        )
    elif spec.variant == "csp":
        poset = _closure_poset(d, set(spec.generators))
    elif spec.variant == "parity_conj":
        if d > 4:
            raise CapExceededError(f"parity builder is capped at d <= 4, got {d}")
        from .matroids import LinearMatroid

        columns = [tuple(v >> j & 1 for j in range(d)) for v in range(1 << d)]
        poset = LinearMatroid(2, columns, cube_symmetry(d, reflect=False)).flats()
    else:  # poly_conj
        if d > 4:
            raise CapExceededError(f"polynomial builder is capped at d <= 4, got {d}")
        from .matroids import LinearMatroid

        monomial_sets = [
            u
            for size in range(spec.k + 1)
            for u in combinations(range(d), size)
        ]
        columns = []
        for v in range(1 << d):
            columns.append(
                tuple(
                    1 if all(v >> j & 1 for j in u) else 0 for u in monomial_sets
                )
            )
        poset = LinearMatroid(2, columns).flats()
    return poset


def formula_class(spec: FormulaClassSpec) -> tuple[FunctionClass, SubsetPoset]:
    """The function class of a formula family and its support poset.

    The poset is ``formula_poset(spec)``, and the class is
    ``class_from_poset`` of it, sharing it as its support poset.  A
    caller that needs only the members or the poset (the CLI does)
    calls ``formula_poset`` and never runs ``classes``.
    """
    from ..classes import class_from_poset

    poset = formula_poset(spec)
    return class_from_poset(poset), poset
