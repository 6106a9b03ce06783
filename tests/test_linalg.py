import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import suboplex
from bundled import bundled_posets
from conftest import assert_value_type, refuse_everywhere
from suboplex.errors import CapExceededError
from suboplex.linalg import (
    FIELD_MAX_CHARACTERISTIC,
    GF2,
    GF3,
    QQ,
    FieldSpec,
    ValidationError,
    pivot_columns,
    rank_from_columns,
)

GF5 = FieldSpec(5)
FIELDS = (GF2, GF3, GF5, QQ)
SRC = str(Path(suboplex.__file__).resolve().parent.parent)


def dense_rank(rows, p):
    """Rank by row-echelon Gaussian elimination on a dense matrix; p=None is Q.

    The reference for ``rank_from_columns``.  It shares no code with
    ``suboplex`` because the oracles reach ``rank_from_columns`` too.
    """
    if p is None:
        m = [[Fraction(x) for x in r] for r in rows]
    else:
        m = [[x % p for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        inv = 1 / top[c] if p is None else pow(top[c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], top)]
                if p is not None:
                    m[i] = [a % p for a in m[i]]
        rank += 1
    return rank


def to_columns(rows):
    ncols = len(rows[0]) if rows else 0
    return [[(i, r[j]) for i, r in enumerate(rows) if r[j]] for j in range(ncols)]


def random_matrix(rng, coeffs, max_dim=8):
    nrows = rng.randint(1, max_dim)
    ncols = rng.randint(1, max_dim)
    return [[rng.choice(coeffs) for _ in range(ncols)] for _ in range(nrows)]


class TestReference:
    def test_known_ranks(self):
        assert dense_rank([[1, 0], [0, 1]], None) == 2
        assert dense_rank([[1, 2], [2, 4]], None) == 1
        assert dense_rank([[1, 1], [1, -1]], 2) == 1
        assert dense_rank([[1, 1], [1, -1]], 3) == 2
        assert dense_rank([[0, 0, 0]], 5) == 0


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("2").p == 2
        assert FieldSpec.parse("Q").p is None
        assert str(FieldSpec.parse("q")) == "Q"
        with pytest.raises(ValidationError):
            FieldSpec.parse("4")
        with pytest.raises(ValidationError):
            FieldSpec.parse("x")

    def test_value_type(self):
        assert_value_type(FieldSpec, {"p": 3})
        assert_value_type(FieldSpec, {"p": None})
        assert FieldSpec() == GF2 and FieldSpec(None) == QQ and GF2 != GF3
        with pytest.raises(ValidationError, match="field characteristic must be prime, got 4"):
            FieldSpec(4)
        with pytest.raises(ValidationError, match="field must be a prime or 'Q', got 'x'"):
            FieldSpec.parse("x")

    def test_characteristic_cap(self):
        assert FIELD_MAX_CHARACTERISTIC == 2**31 - 1
        assert FieldSpec(2**31 - 1).p == FieldSpec.parse("2147483647").p == 2**31 - 1
        assert FieldSpec.parse("Q") == QQ
        for p in (2**31, 10000000000000061, 10**30 + 57):
            message = f"field characteristic is capped at {2**31 - 1}, got {p}"
            for make in (FieldSpec, lambda p: FieldSpec.parse(str(p))):
                with pytest.raises(CapExceededError) as info:
                    make(p)
                assert str(info.value) == message


class TestGf2:
    def test_small_cases(self):
        # columns as bit masks: 0b11, 0b01, 0b10 span GF(2)^2
        assert rank_from_columns([[(0, 1), (1, 1)], [(0, 1)], [(1, 1)]], 2, GF2) == 2
        assert rank_from_columns([[(0, 1), (1, 1)], [(0, 1), (1, 1)]], 2, GF2) == 1
        assert rank_from_columns([[]], 3, GF2) == 0

    def test_even_coefficients_vanish(self):
        assert rank_from_columns([[(0, 2), (1, -4)]], 2, GF2) == 0
        assert rank_from_columns([[(0, 3), (1, -1)], [(0, 1), (1, 1)]], 2, GF2) == 1


class TestModP:
    def test_against_rational_rank(self, rng):
        # the rank mod p never exceeds the rank over Q, and each must
        # match the dense reference in its own field
        p97 = FieldSpec(97)
        for _ in range(40):
            rows = random_matrix(rng, range(-3, 4), 6)
            cols = to_columns(rows)
            over_q = rank_from_columns(cols, len(rows), QQ)
            mod_97 = rank_from_columns(cols, len(rows), p97)
            assert over_q == dense_rank(rows, None)
            assert mod_97 == dense_rank(rows, 97)
            assert mod_97 <= over_q

    def test_characteristic_matters(self):
        cols = to_columns([[2, 0], [0, 1]])
        assert rank_from_columns(cols, 2, GF2) == 1
        assert rank_from_columns(cols, 2, GF3) == 2
        assert rank_from_columns(cols, 2, QQ) == 2


class TestRankFromColumns:
    def test_all_fields_agree_on_pm_one_matrices(self, rng):
        # boundary-style columns have entries +-1; ranks can differ between
        # characteristics, but each field must match the dense reference
        for _ in range(60):
            rows = random_matrix(rng, (-1, 0, 0, 1))
            for field in FIELDS:
                got = rank_from_columns(to_columns(rows), len(rows), field)
                assert got == dense_rank(rows, field.p), (rows, field)

    def test_general_coefficients(self, rng):
        for _ in range(60):
            rows = random_matrix(rng, range(-7, 8))
            for field in FIELDS:
                got = rank_from_columns(to_columns(rows), len(rows), field)
                assert got == dense_rank(rows, field.p), (rows, field)

    def test_low_rank_products(self, rng):
        # A = B C with inner dimension k has rank <= k, so elimination
        # must find real cancellations, not just generic full rank
        for _ in range(30):
            k = rng.randint(1, 3)
            ncols = rng.randint(1, 8)
            b = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(1, 8))]
            c = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(k)]
            a = [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in b]
            for field in FIELDS:
                got = rank_from_columns(to_columns(a), len(a), field)
                assert got == dense_rank(a, field.p) <= k, (a, field)

    def test_entries_grow_past_one(self, rng):
        # reductions over Q multiply columns by pivot entries, so large
        # coefficients and low-rank products reach entries far past +-1;
        # the largest prime field never has a larger rank than Q
        p31 = FieldSpec(FIELD_MAX_CHARACTERISTIC)
        largest = 0
        for _ in range(60):
            if rng.random() < 0.5:
                rows = random_matrix(rng, range(-10**6, 10**6 + 1), 10)
            else:
                k = rng.randint(1, 5)
                b = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rng.randint(1, 10))]
                c = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 10))] for _ in range(k)]
                rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in b]
            cols = to_columns(rows)
            over_q = rank_from_columns(cols, len(rows), QQ)
            assert over_q == dense_rank(rows, None), rows
            for field in (GF2, GF3, p31):
                got = rank_from_columns(cols, len(rows), field)
                assert got == dense_rank(rows, field.p) <= over_q, (rows, field)
            pivots = pivot_columns(cols, QQ)
            largest = max([largest, *(abs(x) for u in pivots.values() for x in u.values())])
        assert largest > 10**6

    def test_wide_gf2_columns(self, rng):
        # more than 64 rows, so column masks span several machine words
        rows = [[rng.randint(0, 1) for _ in range(40)] for _ in range(150)]
        assert rank_from_columns(to_columns(rows), 150, GF2) == dense_rank(rows, 2)

    def test_empty_and_zero_columns(self):
        for field in FIELDS:
            assert rank_from_columns([], 0, field) == 0
            assert rank_from_columns([], 5, field) == 0
            assert rank_from_columns([[], [], []], 4, field) == 0
            assert rank_from_columns([[], [(2, 1)], []], 4, field) == 1
        # entries that are zero in the field, and repeated rows that cancel
        assert rank_from_columns([[(0, 3)], [(1, 6)]], 2, GF3) == 0
        assert rank_from_columns([[(0, 5), (1, 10)]], 2, GF5) == 0
        assert rank_from_columns([[(0, 0)]], 1, QQ) == 0
        for field in FIELDS:
            assert rank_from_columns([[(1, 1), (1, -1)]], 2, field) == 0
        assert rank_from_columns([[(1, 1), (1, 1)]], 2, GF3) == 1


@pytest.mark.parametrize("name", sorted(bundled_posets()))
def test_q_tables_match_the_dense_reference(monkeypatch, name):
    poset = bundled_posets()[name]
    fast = suboplex.betti_via_intervals(poset, QQ)
    calls = []

    def reference_rank(columns, nrows, field):
        calls.append(field)
        rows = [[0] * len(columns) for _ in range(nrows)]
        for j, col in enumerate(columns):
            for r, c in col:
                rows[r][j] += c
        return dense_rank(rows, field.p)

    refuse_everywhere(monkeypatch, rank_from_columns, reference_rank)
    assert suboplex.betti_via_intervals(poset, QQ) == fast
    # two elements make one cover, whose homology needs no rank
    assert set(calls) == ({QQ} if len(poset.elements) > 2 else set())


def test_large_sparse_gf3_stays_under_address_space_cap():
    # 12000 x 12000 cells is more than 1 GiB of int64, so no dense copy of
    # the matrix may be made.  Upper bidiagonal with unit superdiagonal:
    # rank n over Q, n - 1 over GF(3) because one diagonal entry is 3.
    resource = pytest.importorskip("resource")
    code = """
from suboplex.linalg import GF3, QQ, rank_from_columns
n = 12000
cols = [[(j, 3 if j == n // 2 else 1)] + ([(j - 1, 1)] if j else []) for j in range(n)]
print(rank_from_columns(cols, n, GF3), rank_from_columns(cols, n, QQ))
"""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["11999", "12000"]
