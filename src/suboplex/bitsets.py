"""Subsets of [n], partial Boolean functions, and squarefree monomials.

A ``Subset`` is a fixed-width bit vector over the ground set
[n] = {0, ..., n-1}; it doubles as a total Boolean function via its
indicator.  A ``PartialFunction`` is a disjoint pair (ones, zeros) of
subsets.  A ``SquarefreeMonomial`` lives in the 2n variables
x(i,0), x(i,1) and is stored as two width-n bit vectors (the indices
where x(i,0), respectively x(i,1), appears), so divisibility and lcm
are O(1) mask operations.

The dictionary between nested pairs A <= B, partial functions and
monomials:

    delta(A, B): the partial function sending A to 1 and [n]\\B to 0,
    m(A, B):     the monomial with support0 = B and support1 = [n]\\A,
                 of degree n + |B \\ A|.

Restriction of partial functions corresponds to divisibility of
monomials, and intersection of partial functions to lcm.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from .errors import ValidationError

MAX_GROUND = 64


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def is_int(x: object) -> bool:
    """True for an int that is not a bool: JSON's true and false load as bools."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_ground(n: int) -> int:
    if not is_int(n):
        raise ValidationError(f"ground size must be an integer, got {n!r}")
    if not 1 <= n <= MAX_GROUND:
        raise ValidationError(
            f"ground size must satisfy 1 <= n <= {MAX_GROUND}, got {n}"
        )
    return n


def mask_string(n: int, bits: int) -> str:
    """Membership string of an n-bit mask: character i is bit i."""
    return format(bits, f"0{n}b")[::-1]


_set = object.__setattr__


class Value:
    """An immutable record of the fields named in ``_fields``, in order.

    An instance equals only an instance of the same class with equal
    fields, hashes as its field tuple, prints as ``Name(field=value, ...)``
    and refuses assignment, as a frozen dataclass does.  ``__init__``
    validates its arguments and stores them with ``_assign``; the three
    bitset types, built most often, set their two slots directly.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

    def _assign(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)


class Subset(Value):
    """A subset of [n], stored as an n-bit mask (bit i = membership of i)."""

    __slots__ = _fields = ("n", "bits")
    n: int
    bits: int

    def __init__(self, n: int, bits: int) -> None:
        if n.__class__ is not int or not 1 <= n <= MAX_GROUND:
            check_ground(n)
        if not 0 <= bits < (1 << n):
            raise ValidationError(f"bit vector 0x{bits:x} out of range for ground size {n}")
        _set(self, "n", n)
        _set(self, "bits", bits)

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Subset":
        bits = 0
        for i in indices:
            if not (is_int(i) and 0 <= i < n):
                raise ValidationError(f"index {i!r} out of range for ground size {n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_string(cls, s: str) -> "Subset":
        """Parse a membership string: character i over {0,1} = membership of i."""
        if not s or any(c not in "01" for c in s):
            raise ValidationError(f"subset string must be nonempty over {{0,1}}, got {s!r}")
        return cls(len(s), sum(1 << i for i, c in enumerate(s) if c == "1"))

    def to_string(self) -> str:
        return mask_string(self.n, self.bits)

    def __str__(self) -> str:
        return self.to_string()

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.bits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.bits >> i & 1)

    def _check_mate(self, other: "Subset") -> None:
        if not isinstance(other, Subset):
            raise ValidationError(f"expected a Subset, got {other!r}")
        if other.n != self.n:
            raise ValidationError(f"mismatched ground sizes {self.n} and {other.n}")

    def __or__(self, other: "Subset") -> "Subset":
        self._check_mate(other)
        return Subset(self.n, self.bits | other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_mate(other)
        return Subset(self.n, self.bits & other.bits)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_mate(other)
        return Subset(self.n, self.bits & ~other.bits)

    def __xor__(self, other: "Subset") -> "Subset":
        self._check_mate(other)
        return Subset(self.n, self.bits ^ other.bits)

    def complement(self) -> "Subset":
        return Subset(self.n, ~self.bits & ((1 << self.n) - 1))

    def issubset(self, other: "Subset") -> bool:
        self._check_mate(other)
        return self.bits & other.bits == self.bits

    def isdisjoint(self, other: "Subset") -> bool:
        self._check_mate(other)
        return self.bits & other.bits == 0


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

    @property
    def is_total(self) -> bool:
        return self.domain.bits == (1 << self.n) - 1

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

    def restricts(self, other: "PartialFunction") -> bool:
        """True iff ``other`` extends ``self`` (agrees on self's domain)."""
        return self.ones.issubset(other.ones) and self.zeros.issubset(other.zeros)


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

    @classmethod
    def one(cls, n: int) -> "SquarefreeMonomial":
        return cls(Subset.empty(n), Subset.empty(n))

    @property
    def degree(self) -> int:
        return self.support0.size + self.support1.size

    @property
    def has_full_support(self) -> bool:
        """True iff x(i,0) or x(i,1) appears for every i in [n]."""
        return (self.support0.bits | self.support1.bits) == (1 << self.n) - 1

    def divides(self, other: "SquarefreeMonomial") -> bool:
        self.support0._check_mate(other.support0)
        return self.support0.issubset(other.support0) and self.support1.issubset(
            other.support1
        )

    def lcm(self, other: "SquarefreeMonomial") -> "SquarefreeMonomial":
        return SquarefreeMonomial(
            self.support0 | other.support0, self.support1 | other.support1
        )

    def set_pair(self) -> tuple[Subset, Subset]:
        """Recover the unique A <= B with self == m(A, B).

        Only monomials with full support union arise this way; then
        A = complement of support1 and B = support0.
        """
        if not self.has_full_support:
            raise ValidationError(
                "monomial lacks full support union; it is not of the form m(A, B)"
            )
        return self.support1.complement(), self.support0

    def __str__(self) -> str:
        vars_: list[str] = []
        for i in range(self.n):
            if self.support0.bits >> i & 1:
                vars_.append(f"x{i}_0")
            if self.support1.bits >> i & 1:
                vars_.append(f"x{i}_1")
        return "*".join(vars_) if vars_ else "1"


def delta(a: Subset, b: Subset) -> PartialFunction:
    """The partial function delta(A, B): 1 on A, 0 off B; requires A <= B."""
    a._check_mate(b)
    if not a.issubset(b):
        raise ValidationError("delta(A, B) requires A to be a subset of B")
    return PartialFunction(ones=a, zeros=b.complement())


def monomial(a: Subset, b: Subset) -> SquarefreeMonomial:
    """The monomial m(A, B) with support0 = B, support1 = [n]\\A; requires A <= B.

    Its degree is n + |B \\ A|.
    """
    a._check_mate(b)
    if a.bits & ~b.bits:
        raise ValidationError("m(A, B) requires A to be a subset of B")
    return SquarefreeMonomial(b, a.complement())


def intersect(f: PartialFunction, g: PartialFunction) -> PartialFunction:
    """The largest partial function that both f and g extend.

    Defined where f and g agree; componentwise intersection of the
    (ones, zeros) pairs.
    """
    return PartialFunction(ones=f.ones & g.ones, zeros=f.zeros & g.zeros)
