"""Exact linear algebra over prime fields GF(p) and the rationals, on ints.

Ranks are computed by one sparse column reduction, the one persistent
homology uses (Edelsbrunner-Harer, *Computational Topology*, ch. VII).
Columns are reduced one at a time against a dict of pivots keyed by
row.  A column's pivot is its *highest* nonzero row index: while the
pivot dict already holds a column u with the same pivot, the column v
becomes a*v - b*u, with a = u[top] and b = v[top] divided by their
gcd; a column left nonzero becomes a new pivot, and one reduced to
zero is dependent.  The rank is the number of pivots; linear matroid
closures read the pivots themselves, from ``pivot_columns`` or, on int
bit masks, ``pivot_bits``.  The pivot side matters for speed, not for
the result: pivoting on the lowest row instead made kcnf(d=4, k=2)'s
``betti_via_intervals`` over GF(2) take 1.3-2.1 s rather than 0.7-1.3 s
on a 2-CPU Xeon VM.

Over GF(2) a column is an int bit mask, reduced with XOR; over GF(p)
and Q, a ``{row: int}`` dict, whose memory is proportional to its
nonzeros.  GF(p) entries are taken mod p and pivots stored monic, so a
is 1.  Q pivots are stored primitive, divided by the gcd of their
entries signed as the top one.  Only ranks and pivot supports are read,
so no fraction is needed (fraction-free elimination: Bareiss, 1968).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .bitsets import Value
from .errors import CapExceededError, ValidationError

SparseColumn = Iterable[tuple[int, int]]

# ``_is_prime`` divides by every odd number up to sqrt(p): about 23k
# divisions at this cap, and hours for a 30-digit p.
FIELD_MAX_CHARACTERISTIC = 2**31 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class FieldSpec(Value):
    """A coefficient field: GF(p) for a prime p, or exact rationals (p=None).

    A characteristic above ``FIELD_MAX_CHARACTERISTIC`` raises
    ``CapExceededError`` before the primality test.
    """

    __slots__ = _fields = ("p",)
    p: int | None

    def __init__(self, p: int | None = 2) -> None:
        if p is not None and p > FIELD_MAX_CHARACTERISTIC:
            raise CapExceededError(
                f"field characteristic is capped at {FIELD_MAX_CHARACTERISTIC}, got {p}"
            )
        if p is not None and not _is_prime(p):
            raise ValidationError(f"field characteristic must be prime, got {p}")
        self._assign(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip()
        if t.upper() == "Q":
            return cls(None)
        try:
            return cls(int(t))
        except CapExceededError:
            raise
        except ValueError:
            raise ValidationError(f"field must be a prime or 'Q', got {text!r}") from None

    def __str__(self) -> str:
        return "Q" if self.p is None else str(self.p)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
QQ = FieldSpec(None)


def rank_from_columns(
    columns: Sequence[SparseColumn], nrows: int, field: FieldSpec
) -> int:
    """Rank of the matrix whose columns are sparse (row, coeff) lists.

    Row indices lie in ``range(nrows)``; a row repeated within a column
    has its coefficients added.
    """
    if field.p != 2:
        return len(pivot_columns(columns, field))
    masks = []
    for col in columns:
        v = 0
        for r, c in col:
            if c & 1:
                v ^= 1 << r
        masks.append(v)
    return len(pivot_bits(masks))


def pivot_columns(columns: Iterable[SparseColumn], field: FieldSpec) -> dict[int, dict[int, int]]:
    """The reduced columns left nonzero, as ``{row: coefficient}`` dicts
    keyed by their pivot row.  ``pivot_bits`` does the same over GF(2)
    for columns given as int bit masks."""
    p = field.p
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        v: dict[int, int] = {}
        for r, c in col:
            x = v.get(r, 0) + c
            if p:
                x %= p
            if x:
                v[r] = x
            else:
                v.pop(r, None)
        while v:
            top = max(v)
            u = pivots.get(top)
            if u is None:
                if p:
                    inv = pow(v[top], -1, p)
                    pivots[top] = {r: x * inv % p for r, x in v.items()}
                else:
                    g = gcd(*v.values()) if v[top] > 0 else -gcd(*v.values())
                    pivots[top] = {r: x // g for r, x in v.items()}
                break
            a, b = u[top], v[top]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                v = {r: a * x for r, x in v.items()}
            for r, c in u.items():
                x = v.get(r, 0) - b * c
                if p:
                    x %= p
                if x:
                    v[r] = x
                else:
                    del v[r]
    return pivots


def pivot_bits(vectors: Iterable[int]) -> dict[int, int]:
    """``pivot_columns`` over GF(2) for columns given as int bit masks."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            u = pivots.get(top)
            if u is None:
                pivots[top] = v
                break
            v ^= u
    return pivots
