import pytest

from bundled import U11_U23_BETTI_TEXT, bundled_posets, delta_class, u11_u23_class
from conftest import random_class, refuse_everywhere
from references import reference_betti_oracle, reference_koszul_slice, reference_membership
from suboplex import (
    GF2,
    GF3,
    QQ,
    CapExceededError,
    FunctionClass,
    IdealGenerators,
    SimplicialComplex,
    SquarefreeMonomial,
    Subset,
    SubsetPoset,
    betti_oracle,
    betti_via_intervals,
    class_from_poset,
    dual_ideal,
    homological_dimension,
    intersection_closure,
    reduced_homology,
    regularity_oracle,
    suboplex_ideal,
    vc_dimension,
    vc_oracle,
)
from suboplex.oracles import (
    ORACLE_MAX_VARIABLES,
    VC_ORACLE_MAX_WORK,
    _membership_table,
    upper_koszul_slice,
)


def mono(n: int, s0: str, s1: str) -> SquarefreeMonomial:
    return SquarefreeMonomial(Subset.from_string(s0), Subset.from_string(s1))


class TestBettiOracle:
    def test_principal_ideal(self):
        # one generator using both variables of a single ground element
        gens = IdealGenerators(1, (mono(1, "1", "1"),))
        table = betti_oracle(gens)
        assert table.entries == {(0, mono(1, "1", "1")): 1}

    def test_two_overlapping_generators(self):
        # x(0,0)x(0,1) and x(0,1)x(1,0): one first syzygy at the lcm
        gens = IdealGenerators.minimal(
            2, [mono(2, "10", "10"), mono(2, "01", "10")]
        )
        table = betti_oracle(gens)
        assert table.total(0) == 2
        assert table.get(1, mono(2, "11", "10")) == 1
        assert table.projective_dimension == 1

    def test_flagship_dual_ideal(self):
        table = betti_oracle(dual_ideal(u11_u23_class()))
        assert table.render() == U11_U23_BETTI_TEXT

    def test_builds_no_complex(self, monkeypatch, rng):
        # K^b comes from the membership table straight into ChainHomology
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built a SimplicialComplex")

        posets = [u11_u23_class().support_poset()]
        for n in (2, 3, 4, 5, 6, 6, 6):
            masks = {rng.getrandbits(n) for _ in range(rng.randint(2, 6))}
            posets.append(SubsetPoset.from_masks(n, intersection_closure(masks)))
        expected = {
            (k, field): betti_via_intervals(p, field)
            for k, p in enumerate(posets)
            for field in (GF2, GF3, QQ)
        }
        monkeypatch.setattr(SimplicialComplex, "from_faces", classmethod(refuse))
        refuse_everywhere(monkeypatch, reduced_homology, refuse)
        for (k, field), table in expected.items():
            assert betti_oracle(dual_ideal(class_from_poset(posets[k])), field) == table

    def test_arity_cap(self):
        gens = dual_ideal(FunctionClass.from_masks(7, [0]))
        with pytest.raises(CapExceededError):
            betti_oracle(gens)


class TestKoszulSlices:
    def test_slices_match_the_subset_scan(self, rng):
        """Every degree b of 40 random ideals on up to 10 variables."""
        outside = 0
        for _ in range(40):
            variables = 2 * rng.randint(1, 5)
            gmasks = [rng.getrandbits(variables) for _ in range(rng.randint(1, 6))]
            member = reference_membership(variables, gmasks)
            assert _membership_table(variables, gmasks) == member
            for b in range(1 << variables):
                faces = upper_koszul_slice(member, b)
                assert len(set(faces)) == len(faces)
                assert sorted(faces) == sorted(reference_koszul_slice(member, b))
                if not member[b]:
                    assert faces == []
                    outside += 1
        assert outside

    @pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
    def test_bundled_tables_match_the_reference(self, field):
        """The dual ideal of every bundled poset within the oracle's cap, and
        the suboplex ideal up to ground size 4 (at 6 it takes seconds over Q)."""
        checked = 0
        for p in bundled_posets().values():
            if 2 * p.n > ORACLE_MAX_VARIABLES:
                continue
            c = class_from_poset(p)
            for gens in (dual_ideal(c), suboplex_ideal(c))[: 2 if p.n <= 4 else 1]:
                assert betti_oracle(gens, field) == reference_betti_oracle(gens, field)
                checked += 1
        assert checked >= 40


class TestRegularityOracle:
    def test_flagship(self):
        c = u11_u23_class()
        assert regularity_oracle(suboplex_ideal(c)) == 4

    def test_principal(self):
        gens = IdealGenerators(1, (mono(1, "1", "1"),))
        assert regularity_oracle(gens) == 2

    def test_delta_functions(self):
        assert regularity_oracle(suboplex_ideal(delta_class(4))) == 4

    def test_regularity_relation(self, rng):
        # reg of the class ideal is one more than the projective dimension of
        # the dual, both sides computed independently
        for _ in range(40):
            c = random_class(rng, max_n=4)
            lhs = regularity_oracle(suboplex_ideal(c))
            rhs = betti_oracle(dual_ideal(c)).projective_dimension
            assert lhs == rhs + 1


class TestVcOracle:
    def test_flagship(self):
        assert vc_oracle(u11_u23_class()) == 3

    def test_delta_functions(self):
        assert vc_oracle(delta_class(4)) == 1

    def test_full_class(self):
        assert vc_oracle(FunctionClass.full_class(3)) == 3

    def test_matches_fast_path(self, rng):
        for _ in range(120):
            c = random_class(rng)
            assert vc_oracle(c) == vc_dimension(c)

    def test_vc_at_most_hdim(self, rng):
        for _ in range(60):
            c = random_class(rng, max_n=4)
            assert vc_oracle(c) <= homological_dimension(c)

    def test_cap(self):
        # 2^16 subsets times (256 members + 1) is past the cap, which admits
        # 255 members on the same 16 points
        assert VC_ORACLE_MAX_WORK == 2**24
        with pytest.raises(CapExceededError) as info:
            vc_oracle(FunctionClass.from_masks(16, range(256)))
        assert str(info.value) == (
            "VC oracle is capped at 16777216 steps, 2^n * (members + 1), got 16842752"
        )
