import pytest

from conftest import assert_value_type
from suboplex import (
    PartialFunction,
    SquarefreeMonomial,
    Subset,
    ValidationError,
    delta,
    intersect,
    monomial,
)


def S(s: str) -> Subset:
    return Subset.from_string(s)


class TestSubset:
    def test_string_round_trip(self):
        assert S("0111").indices() == (1, 2, 3)
        assert S("0111").to_string() == "0111"
        assert str(Subset.from_indices(4, [0])) == "1000"

    def test_algebra(self):
        a, b = S("1100"), S("0110")
        assert (a | b) == S("1110")
        assert (a & b) == S("0100")
        assert (a - b) == S("1000")
        assert a.complement() == S("0011")
        assert S("0100").issubset(a)
        assert not a.issubset(b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Subset(0, 0)
        with pytest.raises(ValidationError):
            Subset(65, 0)
        with pytest.raises(ValidationError):
            Subset(2, 0b100)
        with pytest.raises(ValidationError):
            S("01") | S("011")
        with pytest.raises(ValidationError):
            Subset.from_string("012")

    def test_from_indices_rejects_booleans(self):
        assert Subset.from_indices(3, [0, 2]) == S("101")
        with pytest.raises(ValidationError, match="index True out of range"):
            Subset.from_indices(3, [0, True])

    def test_indices_match_a_range_scan(self, rng):
        for _ in range(300):
            n = rng.randint(1, 64)
            s = Subset(n, rng.getrandbits(n))
            assert s.indices() == tuple(i for i in range(n) if s.bits >> i & 1)
            assert list(s) == list(s.indices())


class TestDelta:
    def test_total_function(self):
        f = delta(S("0111"), S("0111"))
        assert f.ones == S("0111")
        assert f.zeros == S("1000")
        assert f.is_total
        assert f.pattern() == "0111"

    def test_partial(self):
        f = delta(S("1000"), S("1100"))
        assert f.ones == S("1000")
        assert f.zeros == S("0011")
        assert f.domain.size == 3
        assert not f.is_total

    def test_empty_domain(self):
        f = delta(S("00"), S("11"))
        assert f.domain.size == 0
        assert f.pattern() == "**"

    def test_rejects_non_nested(self):
        with pytest.raises(ValidationError):
            delta(S("11"), S("01"))


class TestMonomial:
    def test_degree_n_for_total(self):
        m = monomial(S("0111"), S("0111"))
        assert m.degree == 4
        assert str(m) == "x0_1*x1_0*x2_0*x3_0"

    def test_degree_formula(self):
        m = monomial(S("1000"), S("1100"))
        assert m.degree == 5
        # one element of B \ A contributes both variables
        assert m.support0 == S("1100")
        assert m.support1 == S("0111")

    def test_degree_seven(self):
        assert monomial(S("0000"), S("0111")).degree == 7

    def test_rejects_non_nested(self):
        with pytest.raises(ValidationError):
            monomial(S("11"), S("10"))

    def test_one(self):
        assert SquarefreeMonomial.one(3).degree == 0
        assert str(SquarefreeMonomial.one(3)) == "1"


class TestDivides:
    def test_extension_direction(self):
        # delta({0},{0}) extends delta({0},{0,1}), so m({0},{0}) | m({0},{0,1})
        assert monomial(S("10"), S("10")).divides(monomial(S("10"), S("11")))
        assert not monomial(S("10"), S("11")).divides(monomial(S("10"), S("10")))

    def test_reflexive(self):
        m = monomial(S("10"), S("11"))
        assert m.divides(m)

    def test_incomparable_supports(self):
        assert not monomial(S("00"), S("00")).divides(monomial(S("11"), S("11")))


class TestLcm:
    def test_union_of_supports(self):
        got = monomial(S("10"), S("10")).lcm(monomial(S("01"), S("01")))
        assert got == monomial(S("00"), S("11"))
        assert got.degree == 4

    def test_idempotent(self):
        m = monomial(S("10"), S("11"))
        assert m.lcm(m) == m

    def test_meet_formula(self):
        got = monomial(S("0111"), S("0111")).lcm(monomial(S("0000"), S("0000")))
        assert got == monomial(S("0000"), S("0111"))


class TestIntersect:
    def test_total_disagreement(self):
        f = delta(S("10"), S("10"))
        g = delta(S("01"), S("01"))
        fg = intersect(f, g)
        assert fg.domain.size == 0

    def test_idempotent(self):
        f = delta(S("10"), S("11"))
        assert intersect(f, f) == f

    def test_pointwise_agreement(self):
        f = delta(S("10"), S("11"))
        g = delta(S("11"), S("11"))
        assert intersect(f, g) == delta(S("10"), S("11"))

    def test_disjoint_ones_zeros_enforced(self):
        with pytest.raises(ValidationError):
            PartialFunction(S("10"), S("10"))


def _random_nested_pair(rng, n):
    a = rng.getrandbits(n)
    b = a | rng.getrandbits(n)
    return Subset(n, a), Subset(n, b)


class TestDictionaryLaws:
    def test_divisibility_reverses_nesting(self, rng):
        for _ in range(300):
            n = rng.randint(1, 6)
            a, b = _random_nested_pair(rng, n)
            c, d = _random_nested_pair(rng, n)
            lhs = monomial(c, d).divides(monomial(a, b))
            rhs = a.issubset(c) and d.issubset(b)
            assert lhs == rhs
            # equivalently: delta(c, d) extends delta(a, b)
            assert lhs == delta(a, b).restricts(delta(c, d))

    def test_lcm_is_intersection_of_partial_functions(self, rng):
        for _ in range(300):
            n = rng.randint(1, 6)
            a, b = _random_nested_pair(rng, n)
            c, d = _random_nested_pair(rng, n)
            assert monomial(c, d).lcm(monomial(a, b)) == monomial(c & a, d | b)
            assert intersect(delta(c, d), delta(a, b)) == delta(c & a, d | b)

    def test_full_support_recovery(self, rng):
        for _ in range(300):
            n = rng.randint(1, 6)
            a, b = _random_nested_pair(rng, n)
            m = monomial(a, b)
            assert m.has_full_support
            assert m.set_pair() == (a, b)
            assert m.degree == n + (b - a).size

    def test_partial_support_has_no_pair(self):
        with pytest.raises(ValidationError):
            SquarefreeMonomial(S("00"), S("10")).set_pair()


class TestValueTypes:
    def test_subset(self):
        assert_value_type(Subset, {"n": 3, "bits": 5})
        assert Subset(3, 5) != Subset(4, 5)

    def test_partial_function(self):
        assert_value_type(PartialFunction, {"ones": S("100"), "zeros": S("010")})

    def test_squarefree_monomial(self):
        assert_value_type(SquarefreeMonomial, {"support0": S("110"), "support1": S("011")})

    def test_validation_messages(self):
        with pytest.raises(ValidationError, match="ground size must be an integer, got True"):
            Subset(True, 0)
        with pytest.raises(ValidationError, match="ground size must be an integer, got 2.0"):
            Subset(2.0, 0)
        with pytest.raises(ValidationError, match=r"1 <= n <= 64, got 65"):
            Subset(65, 0)
        with pytest.raises(ValidationError, match="bit vector 0x4 out of range for ground size 2"):
            Subset(2, 0b100)
        with pytest.raises(ValidationError, match="bit vector 0x-1 out of range"):
            Subset(2, -1)
        with pytest.raises(ValidationError, match="mismatched ground sizes 2 and 3"):
            PartialFunction(S("10"), S("001"))
        with pytest.raises(ValidationError, match="must be disjoint"):
            PartialFunction(S("10"), S("11"))
        with pytest.raises(ValidationError, match="expected a Subset, got 3"):
            SquarefreeMonomial(S("10"), 3)
        with pytest.raises(ValidationError, match="mismatched ground sizes 2 and 3"):
            SquarefreeMonomial(S("10"), S("001"))
        with pytest.raises(ValidationError, match="mismatched ground sizes 2 and 3"):
            monomial(S("10"), S("001"))
        with pytest.raises(ValidationError, match=r"m\(A, B\) requires A to be a subset of B"):
            monomial(S("11"), S("10"))


class TestRendering:
    def test_to_string_matches_a_character_loop(self, rng):
        for n in (1, 2, 63, 64):
            for bits in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(50))):
                s = Subset(n, bits)
                expected = "".join("1" if bits >> i & 1 else "0" for i in range(n))
                assert s.to_string() == str(s) == expected
                assert Subset.from_string(expected) == s
