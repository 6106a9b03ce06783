"""Subsets of [n], the immutable value base, and bit-mask helpers.

A ``Subset`` is a fixed-width bit vector over the ground set
[n] = {0, ..., n-1}; it doubles as a total Boolean function via its
indicator.  ``Value`` is the small base of every value type in the
package.  Every call runs this module, so the partial functions and
monomials built on ``Subset`` live with the classes that use them, in
``classes``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Sequence

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


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """Column v has bit i set iff bit v of ``rows[i]`` is; one per bit below ``width``."""
    digits = [format(row, f"0{width}b") for row in reversed(rows)]
    return [int("".join(column), 2) for column in zip(*digits)][::-1]


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
