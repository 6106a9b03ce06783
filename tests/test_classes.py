import pytest

import suboplex.classes
from bundled import delta_class, u11_u23_class
from conftest import assert_value_type, random_class, random_intersection_closed_poset
from suboplex import (
    CapExceededError,
    FunctionClass,
    IdealGenerators,
    PartialFunction,
    SquarefreeMonomial,
    Subset,
    SubsetPoset,
    ValidationError,
    class_from_poset,
    collapse_membership,
    dual_ideal,
    extentures,
    flip_class,
    is_shattered,
    shatter_complex,
    suboplex_ideal,
    vc_dimension,
    warn_if_degenerate,
)
from suboplex.builders import FormulaClassSpec, formula_class
from suboplex.oracles import betti_oracle, vc_oracle
from references import reference_extentures


def S(s: str) -> Subset:
    return Subset.from_string(s)


def closure_shattered(p: SubsetPoset, u: int) -> bool:
    """The shattering lemma for an intersection-closed family ``p``.

    ``u`` is shattered iff for every A <= u some member contains A, and
    the closure of A (the meet of the members containing it) meets u
    only in A.
    """
    sub = u
    while True:
        cl = p.closure(Subset(p.n, sub))
        if cl is None or cl.bits & (u & ~sub):
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & u


def brute_extentures(c: FunctionClass) -> set[str]:
    """Independent reference: scan all (ones, zeros) pairs directly."""
    n = c.n
    members = [m.bits for m in c.members]

    def extendable(ones, zeros):
        dom = ones | zeros
        return any(m & dom == ones for m in members)

    out = set()
    for ones in range(1 << n):
        for zeros in range(1 << n):
            if ones & zeros:
                continue
            if extendable(ones, zeros):
                continue
            # every proper restriction, not only maximal ones
            ok = True
            dom = ones | zeros
            sub = dom
            while True:
                sub = (sub - 1) & dom
                if not extendable(ones & sub, zeros & sub):
                    ok = False
                    break
                if sub == 0:
                    break
            if ok:
                out.add(PartialFunction(Subset(n, ones), Subset(n, zeros)).pattern())
    return out


def random_class_with_constants(rng) -> FunctionClass:
    """A random class, half the time with one or two coordinates forced constant."""
    c = random_class(rng, max_n=5)
    if rng.random() < 0.5:
        return c
    masks = [m.bits for m in c.members]
    for _ in range(rng.randint(1, 2)):
        bit = 1 << rng.randrange(c.n)
        masks = [m | bit for m in masks] if rng.random() < 0.5 else [m & ~bit for m in masks]
    return FunctionClass.from_masks(c.n, set(masks))


def extendable(c: FunctionClass, ones: int, zeros: int) -> bool:
    dom = ones | zeros
    return any(m.bits & dom == ones for m in c.members)


class TestClassConstruction:
    def test_from_poset_flagship(self):
        c = u11_u23_class()
        assert len(c) == 10
        assert {m.to_string() for m in c.members} == {
            "0000", "1000", "0100", "0010", "0001",
            "1100", "1010", "1001", "0111", "1111",
        }

    def test_singleton_poset(self):
        c = class_from_poset(SubsetPoset.from_strings(["00"]))
        assert len(c) == 1 and c.members[0] == S("00")

    def test_full_boolean_poset(self):
        c = class_from_poset(SubsetPoset.from_masks(2, range(4)))
        assert c == FunctionClass.full_class(2)

    def test_keeps_the_poset_as_its_support(self, rng):
        for _ in range(20):
            p = random_intersection_closed_poset(rng)
            c = class_from_poset(p)
            assert c.support_poset() is p
            assert SubsetPoset(c.n, c.members) == p

    def test_empty_poset_rejected(self):
        with pytest.raises(ValidationError):
            class_from_poset(SubsetPoset(2, []))

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            FunctionClass(2, [])

    def test_degenerate_warning(self):
        c = FunctionClass.from_strings(["10", "11"])
        with pytest.warns(UserWarning):
            constants = warn_if_degenerate(c)
        assert constants == [(0, 1)]

    def test_constant_coordinates_match_value_sets(self, rng):
        found = 0
        for _ in range(200):
            c = random_class_with_constants(rng)
            expected = []
            for i in range(c.n):
                values = {m.bits >> i & 1 for m in c.members}
                if len(values) == 1:
                    expected.append((i, values.pop()))
            assert c.constant_coordinates() == expected
            found += bool(expected)
        assert found >= 60


class TestIntersectionClosed:
    def test_answers_without_the_support_poset(self, rng, monkeypatch):
        classes = [random_class(rng, max_n=6, max_size=12) for _ in range(200)]
        expected = [SubsetPoset(c.n, c.members).is_intersection_closed() for c in classes]
        assert set(expected) == {True, False}

        def refuse(*args, **kwargs):
            raise AssertionError("a support poset was built")

        monkeypatch.setattr(SubsetPoset, "__init__", refuse)
        assert [c.is_intersection_closed() for c in classes] == expected

    def test_scans_once(self, monkeypatch):
        scans = []
        scan = SubsetPoset._scan_intersection_closed
        monkeypatch.setattr(
            SubsetPoset, "_scan_intersection_closed", lambda self: scans.append(self) or scan(self)
        )
        for c in (FunctionClass(4, u11_u23_class().members), FunctionClass.from_strings(["10", "01"])):
            answer = c.is_intersection_closed()
            assert c.support_poset().is_intersection_closed() == answer
            assert c.is_intersection_closed() == answer
        assert scans == []
        c = u11_u23_class()  # its support poset came first, and answers for it
        assert c.is_intersection_closed() and c.is_intersection_closed()
        assert scans == [c.support_poset()]


class TestShattering:
    def test_flagship_facts(self):
        c = u11_u23_class()
        assert is_shattered(c, S("1110"))
        assert not is_shattered(c, S("1111"))

    def test_empty_set_always_shattered(self, rng):
        for _ in range(20):
            c = random_class(rng)
            assert is_shattered(c, Subset.empty(c.n))

    def test_methods_agree_on_intersection_closed(self, rng):
        outcomes = set()
        for _ in range(60):
            p = random_intersection_closed_poset(rng, max_n=4)
            if len(p) == 0:
                continue
            c = class_from_poset(p)
            for u in range(1 << c.n):
                shattered = is_shattered(c, Subset(c.n, u))
                assert shattered == closure_shattered(p, u)
                outcomes.add(shattered)
        assert outcomes == {True, False}


class TestVcDimension:
    def test_flagship(self):
        assert vc_dimension(u11_u23_class()) == 3

    def test_delta_functions(self):
        assert vc_dimension(delta_class(4)) == 1

    def test_full_class(self):
        assert vc_dimension(FunctionClass.full_class(3)) == 3

    def test_matches_oracle(self, rng):
        for _ in range(150):
            c = random_class(rng)
            assert vc_dimension(c) == vc_oracle(c)

    def test_work_cap(self, monkeypatch):
        # full_class(3), level by level, generation + scans: 3 + 24, 9 + 24, 9 + 8, 3 + 0
        c = FunctionClass.full_class(3)
        monkeypatch.setattr(suboplex.classes, "VC_MAX_WORK", 80)
        assert vc_dimension(c) == 3
        for cap in (79, 77, 60, 0):
            monkeypatch.setattr(suboplex.classes, "VC_MAX_WORK", cap)
            with pytest.raises(CapExceededError, match=f"^VC search is capped at {cap} steps$"):
                vc_dimension(c)
            with pytest.raises(CapExceededError):
                shatter_complex(c)
            assert vc_oracle(c) == 3


class TestShatterComplex:
    def test_delta_functions_give_points(self):
        k = shatter_complex(delta_class(3))
        assert set(k.facets) == {0b001, 0b010, 0b100}

    def test_full_class_gives_simplex(self):
        k = shatter_complex(FunctionClass.full_class(3))
        assert k.facets == (0b111,)

    def test_flagship_contains_triple(self):
        k = shatter_complex(u11_u23_class())
        assert k.dim == 2
        assert 0b0111 in k.face_set()


class TestExtentures:
    def test_full_class_has_none(self):
        assert extentures(FunctionClass.full_class(3)) == ()

    def test_two_deltas(self):
        c = delta_class(2)
        assert {f.pattern() for f in extentures(c)} == {"00", "11"}

    def test_constant_zero_on_one_point(self):
        c = FunctionClass.from_strings(["0"])
        assert {f.pattern() for f in extentures(c)} == {"1"}

    def test_against_brute_reference(self, rng):
        constant = 0
        for _ in range(120):
            c = random_class_with_constants(rng)
            constant += bool(c.constant_coordinates())
            assert {f.pattern() for f in extentures(c)} == brute_extentures(c)
        assert constant >= 40

    def test_sorted_by_domain_size_then_ones_then_zeros(self, rng):
        for _ in range(40):
            found = extentures(random_class_with_constants(rng))
            keys = [(f.domain.size, f.ones.bits, f.zeros.bits) for f in found]
            assert keys == sorted(set(keys))

    def test_kcnf_4_1_is_minimal_and_non_extendable(self):
        c, _ = formula_class(FormulaClassSpec("kcnf", 4, k=1))
        found = extentures(c)
        assert len(found) == 768
        for f in found:
            ones, zeros = f.ones.bits, f.zeros.bits
            assert not extendable(c, ones, zeros)
            for i in f.domain:
                assert extendable(c, ones & ~(1 << i), zeros & ~(1 << i))

    def test_past_ground_size_16(self):
        c = FunctionClass.from_masks(20, [0, (1 << 20) - 1])
        assert len(extentures(c)) == 20 * 19

    def test_matches_the_list_reference(self, rng):
        """200 classes on up to 10 points: full classes, and every third
        random class with one or two coordinates forced constant."""
        classes = [FunctionClass.full_class(n) for n in (1, 4, 7)]
        while len(classes) < 200:
            n = rng.randint(1, 10)
            masks = set(rng.sample(range(1 << n), rng.randint(1, min(1 << n, 40))))
            if len(classes) % 3 == 0:
                for _ in range(rng.randint(1, 2)):
                    bit = 1 << rng.randrange(n)
                    masks = {m | bit for m in masks} if rng.random() < 0.5 else {m & ~bit for m in masks}
            classes.append(FunctionClass.from_masks(n, masks))
        for c in classes:
            assert extentures(c) == reference_extentures(c)
        assert sum(bool(c.constant_coordinates()) for c in classes) >= 60

    def test_caps_match_the_list_reference(self, monkeypatch, rng):
        """Under random small caps both raise the same error or give the same answer."""

        def outcome(search, c):
            try:
                return search(c)
            except CapExceededError as e:
                return str(e)

        kinds = set()
        for _ in range(150):
            n = rng.randint(1, 8)
            c = FunctionClass.from_masks(n, rng.sample(range(1 << n), rng.randint(1, min(1 << n, 30))))
            monkeypatch.setattr(suboplex.classes, "EXTENTURE_MAX_WORK", int(10 ** rng.uniform(0, 4.5)))
            monkeypatch.setattr(suboplex.classes, "EXTENTURE_MAX_FAMILY", int(10 ** rng.uniform(0, 2.5)))
            got = outcome(extentures, c)
            assert got == outcome(reference_extentures, c)
            kinds.add(got.split()[-1] if isinstance(got, str) else "answer")
        assert kinds == {"steps", "sets", "answer"}

    def test_work_cap(self, monkeypatch):
        monkeypatch.setattr(suboplex.classes, "EXTENTURE_MAX_WORK", 100)
        c = FunctionClass.full_class(4)
        with pytest.raises(CapExceededError, match="^extenture search is capped at 100 steps$"):
            extentures(c)
        monkeypatch.undo()
        assert extentures(c) == ()

    def test_family_cap(self, monkeypatch):
        monkeypatch.setattr(suboplex.classes, "EXTENTURE_MAX_FAMILY", 10)
        c = FunctionClass.from_masks(4, [0, 15])
        with pytest.raises(CapExceededError, match="^extenture search is capped at 10 sets$"):
            extentures(c)
        monkeypatch.undo()
        assert len(extentures(c)) == 12


class TestSuboplexIdeal:
    def test_full_class_only_functional(self):
        gens = suboplex_ideal(FunctionClass.full_class(2))
        assert {str(g) for g in gens} == {"x0_0*x0_1", "x1_0*x1_1"}

    def test_two_deltas(self):
        gens = suboplex_ideal(delta_class(2))
        assert {str(g) for g in gens} == {
            "x0_0*x0_1",
            "x1_0*x1_1",
            "x0_0*x1_0",
            "x0_1*x1_1",
        }

    def test_generator_count(self, rng):
        # n + #extentures, provided no coordinate is constant
        for _ in range(60):
            c = random_class(rng, max_n=4)
            if c.constant_coordinates():
                continue
            assert len(suboplex_ideal(c)) == c.n + len(extentures(c))

    def test_antichain(self, rng):
        for _ in range(60):
            c = random_class(rng, max_n=4)
            gens = list(suboplex_ideal(c))
            for i, g in enumerate(gens):
                for j, h in enumerate(gens):
                    if i != j:
                        assert not g.divides(h)


class TestIdealGeneratorsValueType:
    def test_value_type(self):
        gens = (SquarefreeMonomial(S("1"), S("1")),)
        ideal = assert_value_type(IdealGenerators, {"n": 1, "gens": gens})
        assert len(ideal) == 1 and list(ideal) == list(gens)

    def test_validation_messages(self):
        with pytest.raises(ValidationError, match=r"1 <= n <= 64, got 0"):
            IdealGenerators(0, (SquarefreeMonomial.one(1),))
        with pytest.raises(ValidationError, match="an ideal needs at least one generator"):
            IdealGenerators(1, ())
        with pytest.raises(ValidationError, match="generator ground size mismatch"):
            IdealGenerators(2, (SquarefreeMonomial.one(1),))


class TestIdealsWithoutPruning:
    def test_equal_to_the_pruned_generators(self, rng):
        for _ in range(100):
            c = random_class_with_constants(rng)
            points = [Subset(c.n, 1 << i) for i in range(c.n)]
            gens = [SquarefreeMonomial(p, p) for p in points]
            gens += [SquarefreeMonomial(f.zeros, f.ones) for f in extentures(c)]
            assert suboplex_ideal(c) == IdealGenerators.minimal(c.n, gens)
            members = [SquarefreeMonomial(a, a.complement()) for a in c.members]
            assert dual_ideal(c) == IdealGenerators.minimal(c.n, members)

    def test_no_divisibility_scan(self, monkeypatch, rng):
        def refuse(self, other):
            raise AssertionError("divisibility scan")

        monkeypatch.setattr(SquarefreeMonomial, "divides", refuse)
        for _ in range(20):
            c = random_class_with_constants(rng)
            suboplex_ideal(c)
            dual_ideal(c)


class TestDualIdeal:
    def test_flagship(self):
        gens = dual_ideal(u11_u23_class())
        assert len(gens) == 10
        assert all(g.degree == 4 for g in gens)

    def test_constant_zero(self):
        gens = dual_ideal(FunctionClass.from_strings(["00"]))
        assert [str(g) for g in gens] == ["x0_1*x1_1"]

    def test_count_equals_class_size(self, rng):
        for _ in range(40):
            c = random_class(rng)
            assert len(dual_ideal(c)) == len(c)


class TestCollapseMembership:
    def test_shattered_implies_outside(self, rng):
        for _ in range(80):
            c = random_class(rng, max_n=4)
            for u in range(1 << c.n):
                sub = Subset(c.n, u)
                assert collapse_membership(c, sub) == (not is_shattered(c, sub))

    def test_two_deltas_full_set(self):
        assert collapse_membership(delta_class(2), S("11"))

    def test_empty_set_outside(self, rng):
        for _ in range(20):
            c = random_class(rng)
            assert not collapse_membership(c, Subset.empty(c.n))

    def test_vc_from_collapse(self, rng):
        for _ in range(80):
            c = random_class(rng, max_n=4)
            best = max(
                Subset(c.n, u).size
                for u in range(1 << c.n)
                if not collapse_membership(c, Subset(c.n, u))
            )
            assert best == vc_dimension(c)


class TestFlip:
    def test_identity(self):
        c = u11_u23_class()
        assert flip_class(c, Subset.empty(4)) == c

    def test_involution(self, rng):
        for _ in range(30):
            c = random_class(rng)
            mask = Subset(c.n, rng.getrandbits(c.n))
            assert flip_class(flip_class(c, mask), mask) == c

    def test_two_deltas_swap(self):
        c = delta_class(2)
        assert flip_class(c, S("11")) == c

    def test_vc_invariance(self, rng):
        for _ in range(40):
            c = random_class(rng, max_n=4)
            mask = Subset(c.n, rng.getrandbits(c.n))
            assert vc_dimension(flip_class(c, mask)) == vc_dimension(c)

    def test_betti_totals_invariance(self, rng):
        for _ in range(20):
            c = random_class(rng, max_n=4)
            mask = Subset(c.n, rng.getrandbits(c.n))
            t1 = betti_oracle(dual_ideal(c))
            t2 = betti_oracle(dual_ideal(flip_class(c, mask)))
            assert t1.totals() == t2.totals()


class TestVcVersusHomological:
    def test_vc_at_most_hdim(self, rng):
        from suboplex import homological_dimension

        for _ in range(60):
            c = random_class(rng, max_n=4)
            assert vc_oracle(c) <= homological_dimension(c)
