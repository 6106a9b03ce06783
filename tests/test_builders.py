import json
from itertools import combinations
from math import comb

import pytest

import suboplex.posets
from bundled import (
    bundled_matroids,
    triangle_square_input,
    u11_u23_direct_sum,
    u11_u23_graph,
    u11_u23_matrix,
)
from conftest import assert_value_type
from references import MinorMatroid, closure, reference_flats, simplex_input
from suboplex import (
    CapExceededError,
    Subset,
    ValidationError,
    class_from_poset,
    homological_dimension,
    vc_dimension,
    vc_oracle,
)
from suboplex.builders import (
    CellComplexInput,
    FormulaClassSpec,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    UniformMatroid,
    cube_complex,
    face_poset,
    formula_class,
)
from suboplex.io import matroid_from_json


def S(s: str) -> Subset:
    return Subset.from_string(s)


class TestFormulaPoset:
    def test_is_the_support_poset_of_formula_class(self):
        """``formula_poset`` is the poset ``formula_class`` pairs with its class,
        symmetry included, for every variant."""
        from suboplex.builders.formulas import VARIANTS, formula_poset

        specs = [FormulaClassSpec(v, d, k=k) for v in ("kcnf", "monotone_kcnf", "poly_conj")
                 for d in (1, 2, 3) for k in range(1, d + 1)]
        specs += [FormulaClassSpec("parity_conj", d) for d in (1, 2, 3, 4)]
        specs += [FormulaClassSpec("csp", 3, generators=(0b00001111, 0b00110011, 0b01010101)),
                  FormulaClassSpec("csp", 2, generators=())]
        assert {spec.variant for spec in specs} == set(VARIANTS)
        for spec in specs:
            poset = formula_poset(spec)
            c, p = formula_class(spec)
            assert poset == p and poset.symmetry == p.symmetry
            assert c.support_poset() is p and c == class_from_poset(poset)


class TestMatroidRank:
    def test_uniform(self):
        m = UniformMatroid(2, 3)
        assert m.rank_mask(S("111").bits) == 2
        assert m.rank_mask(S("100").bits) == 1

    def test_flagship_matrix(self):
        m = u11_u23_matrix()
        assert m.rank_mask(S("1111").bits) == 3

    def test_linear_needs_prime_field(self):
        for p in (4, 1, 0, -3, None, "2"):
            with pytest.raises(ValidationError):
                LinearMatroid(p, [(1, 0), (0, 1)])

    def test_linear_field_is_capped(self):
        spec = {"type": "linear", "p": 10000000000000061, "matrix": [[1, 0], [0, 1]]}
        message = "^field characteristic is capped at 2147483647, got 10000000000000061$"
        with pytest.raises(CapExceededError, match=message):
            matroid_from_json(spec)
        assert matroid_from_json(dict(spec, p=2147483647)).rank_mask(S("11").bits) == 2

    def test_graphic_triangle(self):
        m = u11_u23_graph()
        assert m.rank_mask(S("0111").bits) == 2

    def test_graphic_rank_ignores_vertex_labels(self):
        spread = GraphicMatroid(1000, [(10, 20), (20, 30), (30, 10), (999, 40), (40, 40)])
        compact = GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 4)])
        assert [spread.rank_mask(a) for a in range(32)] == [compact.rank_mask(a) for a in range(32)]
        assert spread.flats() == compact.flats()
        with pytest.raises(ValidationError, match=r"edge \(0, 5\) out of range\(5\)"):
            GraphicMatroid(5, [(0, 5)])

    def test_rank_axioms_spot_check(self, rng):
        for name, m in bundled_matroids().items():
            for _ in range(30):
                a = rng.getrandbits(m.m)
                b = rng.getrandbits(m.m)
                ra, rb = m.rank_mask(a), m.rank_mask(b)
                assert 0 <= ra <= bin(a).count("1"), name
                if a & b == a:
                    assert ra <= rb, name
                assert m.rank_mask(a | b) + m.rank_mask(a & b) <= ra + rb, name


class TestMatroidClosure:
    def test_uniform_singleton_closed(self):
        assert UniformMatroid(2, 3).closure_mask(S("100").bits) == S("100").bits

    def test_flagship_pair_closes_to_triangle(self):
        assert u11_u23_matrix().closure_mask(S("0110").bits) == S("0111").bits

    def test_flats_are_fixed_points(self):
        m = u11_u23_direct_sum()
        for f in m.flats().elements:
            assert m.closure_mask(f.bits) == f.bits

    def test_poset_closure_agrees_with_matroid(self, rng):
        for name, m in bundled_matroids().items():
            if m.m > 6:
                continue
            p = m.flats()
            for _ in range(20):
                a = Subset(m.m, rng.getrandbits(m.m))
                assert closure(p, a) == Subset(m.m, m.closure_mask(a.bits)), name


class TestLatticeOfFlats:
    def test_flagship_ten_flats(self):
        assert len(u11_u23_direct_sum().flats()) == 10

    def test_u23_five_flats(self):
        p = UniformMatroid(2, 3).flats()
        assert len(p) == 5
        assert p.rank() == 2

    def test_gf2_plane_with_zero_vector(self):
        cols = [tuple(v >> j & 1 for j in range(2)) for v in range(4)]
        p = LinearMatroid(2, cols).flats()
        assert len(p) == 5  # loop bottom, three lines, plane

    def test_intersection_closed(self):
        for name, m in bundled_matroids().items():
            assert m.flats().is_intersection_closed(), name

    def test_rank_matches_matroid(self):
        for name, m in bundled_matroids().items():
            assert m.flats().rank() == m.rank_mask((1 << m.m) - 1), name

    def test_member_cap_at_each_flat(self, monkeypatch):
        monkeypatch.setattr(suboplex.posets, "POSET_MAX_MEMBERS", 23)
        assert len(UniformMatroid(3, 6).flats()) == 1 + 6 + 15 + 1
        for cap in (21, 10):  # passed before the top, and inside the level of 15 two-point flats
            monkeypatch.setattr(suboplex.posets, "POSET_MAX_MEMBERS", cap)
            with pytest.raises(CapExceededError, match=f"capped at {cap} members, got {cap + 1}$"):
                UniformMatroid(3, 6).flats()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            UniformMatroid(2, 17).flats()


def formula_matroid(variant: str, d: int, k: int | None = None) -> LinearMatroid:
    """The GF(2) column matroid whose flats ``formula_class`` takes for a
    ``parity_conj`` or ``poly_conj`` spec: column v evaluates every
    parity (or monomial of degree at most k) at the point v of {0,1}^d."""
    if variant == "parity_conj":
        return LinearMatroid(2, [tuple(v >> j & 1 for j in range(d)) for v in range(1 << d)])
    sets = [u for size in range(k + 1) for u in combinations(range(d), size)]
    return LinearMatroid(
        2, [tuple(int(all(v >> j & 1 for j in u)) for u in sets) for v in range(1 << d)]
    )


def spec_matroids() -> dict[str, object]:
    """Every matroid the tests build, and the column matroids of the
    parity and polynomial formula specs up to d = 4."""
    out: dict[str, object] = dict(bundled_matroids())
    for spec in (
        {"type": "uniform", "k": 4, "m": 7},
        {"type": "uniform", "k": 5, "m": 8},
        {"type": "uniform", "k": 1, "m": 16},
        {"type": "linear", "p": 2, "matrix": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1]]},
        {"type": "linear", "p": 3, "matrix": [[1, 0, 1, 1], [0, 1, 1, 2]]},
        {"type": "graphic", "vertices": 4, "edges": [[2, 3], [0, 1], [1, 2], [0, 2]]},
        {"type": "graphic", "vertices": 3, "edges": [[0, 1], [0, 1], [1, 1], [1, 2]]},
    ):
        out[json.dumps(spec)] = matroid_from_json(spec)
    for d in (1, 2, 3, 4):
        out[f"parity_conj({d})"] = formula_matroid("parity_conj", d)
        # d = 4 with k >= 2 only runs into the member cap
        for k in range(min(d, 1 if d == 4 else 3) + 1):
            out[f"poly_conj({d},{k})"] = formula_matroid("poly_conj", d, k)
    flagship = u11_u23_direct_sum()
    out["minor"] = MinorMatroid(flagship, S("0000"), S("0111"))
    return out


def random_linear_matroid(rng, p: int) -> LinearMatroid:
    rows, m = rng.randint(1, 4), rng.randint(1, 9)
    return LinearMatroid(p, [tuple(rng.randrange(p) for _ in range(rows)) for _ in range(m)])


def flats_outcome(m) -> object:
    try:
        return set(m.flats()._masks)
    except CapExceededError as e:
        return str(e)


def reference_outcome(m) -> object:
    try:
        return reference_flats(m)
    except CapExceededError as e:
        return str(e)


class TestFlatsByCovers:
    @pytest.mark.parametrize("name", sorted(spec_matroids()))
    def test_matches_the_level_loop(self, name):
        m = spec_matroids()[name]
        assert flats_outcome(m) == reference_outcome(m)

    def test_formula_posets_are_these_flats(self):
        for variant, d, k in (("parity_conj", 4, None), ("poly_conj", 3, 2), ("poly_conj", 4, 1)):
            poset = formula_class(FormulaClassSpec(variant, d, k=k))[1]
            assert set(poset._masks) == reference_flats(formula_matroid(variant, d, k))

    def test_random_linear_matroids(self, rng):
        for p in (2, 3):
            for _ in range(60):
                m = random_linear_matroid(rng, p)
                assert set(m.flats()._masks) == reference_flats(m)
                for mask in {0, (1 << m.m) - 1, *(rng.getrandbits(m.m) for _ in range(8))}:
                    assert m.closure_mask(mask) == Matroid.closure_mask(m, mask)

    def test_linear_closure_takes_no_rank(self, monkeypatch):
        m = formula_matroid("parity_conj", 3)
        monkeypatch.setattr(m, "_rank_mask", None)  # never reached
        assert m.closure_mask(0b0000_0110) == 0b0000_1111  # column 0 is zero
        assert len(m.flats()) == 16


class TestMinor:
    def test_identity_minor(self):
        m = u11_u23_direct_sum()
        minor = MinorMatroid(m, Subset(m.m, m.closure_mask(0)), S("1111"))
        assert minor.flats() == m.flats()

    def test_flagship_interval_minor_is_u23(self):
        m = u11_u23_direct_sum()
        minor = MinorMatroid(m, S("0000"), S("0111"))
        assert minor.flats() == UniformMatroid(2, 3).flats()

    def test_minor_mobius(self):
        m = u11_u23_direct_sum()
        mf = MinorMatroid(m, S("0000"), S("0111")).flats()
        assert abs(mf.mobius(mf.bottom(), mf.top())) == 2

    def test_minor_lattice_is_interval(self, rng):
        # the minor's flat count and rank match the interval [F, G]
        for name, m in list(bundled_matroids().items())[:8]:
            p = m.flats()
            for f in p.elements:
                for g in p.elements:
                    if f.bits & g.bits == f.bits and f != g:
                        iv = p.interval(f, g).members
                        minor = MinorMatroid(m, f, g)
                        mp = minor.flats()
                        assert len(mp) == len(iv), name
                        assert mp.rank() == iv.rank(), name

    def test_non_flat_rejected(self):
        m = u11_u23_direct_sum()
        with pytest.raises(ValidationError):
            MinorMatroid(m, S("0000"), S("0110"))


class TestBasisShattering:
    def test_every_basis_is_shattered(self, rng):
        from itertools import combinations

        from suboplex import is_shattered

        for name, m in bundled_matroids().items():
            if m.m > 6:
                continue
            c = class_from_poset(m.flats())
            r = m.rank_mask((1 << m.m) - 1)
            bases = [
                Subset.from_indices(m.m, combo)
                for combo in combinations(range(m.m), r)
                if m.rank_mask(Subset.from_indices(m.m, combo).bits) == r
            ]
            assert bases, name
            for b in bases:
                assert is_shattered(c, b), (name, str(b))


class TestFacePoset:
    def test_segment(self):
        x = CellComplexInput.from_vertex_lists(2, [[0], [1], [0, 1]])
        p = face_poset(x)
        assert len(p) == 4  # both vertices, the segment, and the empty face

    def test_three_cube(self):
        assert len(cube_complex(3)) == 28

    def test_triangle_with_faces_is_boolean(self):
        p = face_poset(simplex_input(3))
        assert len(p) == 8
        assert p.rank() == 3

    def test_triangle_square(self):
        p = face_poset(triangle_square_input())
        assert p.is_intersection_closed()
        assert p.rank() == 3
        assert homological_dimension(class_from_poset(p)) == 3

    def test_value_type(self):
        x = assert_value_type(CellComplexInput, {"num_vertices": 2, "faces": (1, 3)})
        assert x == CellComplexInput.from_vertex_lists(2, [[0], [0, 1]])

    def test_validation_messages(self):
        with pytest.raises(ValidationError, match=r"1 <= n <= 64, got 0"):
            CellComplexInput(0, (1,))
        with pytest.raises(ValidationError, match=r"cell 0x4 must be a nonempty subset of range\(2\)"):
            CellComplexInput(2, (1, 4))
        with pytest.raises(ValidationError, match=r"cell 0x0 must be a nonempty subset"):
            CellComplexInput(2, (0,))
        with pytest.raises(ValidationError, match="cell complex faces must be distinct"):
            CellComplexInput(2, (1, 1))
        with pytest.raises(ValidationError, match="cell complex needs at least one face"):
            CellComplexInput(2, ())

    def test_cube_range(self):
        with pytest.raises(ValidationError):
            cube_complex(0)
        with pytest.raises(CapExceededError):
            cube_complex(5)


class TestCubeClasses:
    def test_square_count(self):
        assert len(cube_complex(2)) == 10

    def test_square_class_dimensions(self):
        c = class_from_poset(cube_complex(2))
        assert homological_dimension(c) == 3
        assert vc_dimension(c) == 2

    def test_cube_vc(self):
        c = class_from_poset(cube_complex(3))
        assert vc_oracle(c) == 3


class TestFormulaClasses:
    def test_parity_small(self):
        c, p = formula_class(FormulaClassSpec("parity_conj", 2))
        assert len(p) == 5
        assert vc_dimension(c) == 2
        assert homological_dimension(c) == 2

    def test_poly_conj_values(self):
        for d, k in [(2, 1), (2, 2), (3, 1)]:
            c, _ = formula_class(FormulaClassSpec("poly_conj", d, k=k))
            want = sum(comb(d, i) for i in range(k + 1))
            assert vc_oracle(c) == want
            assert homological_dimension(c) == want

    def test_monotone_one_cnf_three_vars(self):
        c, p = formula_class(FormulaClassSpec("monotone_kcnf", 3, k=1))
        assert 3 <= vc_oracle(c) <= homological_dimension(c) <= 4
        assert vc_oracle(c) == 3
        assert homological_dimension(c) == 3

    def test_kcnf_bounds(self):
        for d, k in [(2, 1), (3, 1)]:
            cm, _ = formula_class(FormulaClassSpec("monotone_kcnf", d, k=k))
            cg, _ = formula_class(FormulaClassSpec("kcnf", d, k=k))
            assert comb(d, k) <= vc_oracle(cm) <= homological_dimension(cm)
            assert homological_dimension(cm) <= sum(comb(d, i) for i in range(k + 1))
            assert comb(d, k) <= vc_oracle(cg) <= homological_dimension(cg)
            assert homological_dimension(cg) <= (1 << k) * comb(d, k)

    def test_csp_respects_generator_bound(self, rng):
        for _ in range(12):
            size = rng.randint(1, 6)
            gens = tuple(rng.getrandbits(8) for _ in range(size))
            c, _ = formula_class(FormulaClassSpec("csp", 3, generators=gens))
            assert homological_dimension(c) <= size

    def test_value_type(self):
        fields = {"variant": "csp", "d": 2, "k": None, "generators": (3, 5)}
        assert_value_type(FormulaClassSpec, fields)
        spec = assert_value_type(FormulaClassSpec, {"variant": "kcnf", "d": 3, "k": 2, "generators": None})
        assert spec == FormulaClassSpec("kcnf", 3, k=2)
        assert FormulaClassSpec("parity_conj", 2) == FormulaClassSpec("parity_conj", 2, None, None)

    def test_validation_messages(self):
        with pytest.raises(ValidationError, match="formula variant must be one of"):
            FormulaClassSpec("nonsense", 3)
        with pytest.raises(ValidationError, match="variable count d must be a positive integer, got 0"):
            FormulaClassSpec("kcnf", 0, k=1)
        with pytest.raises(ValidationError, match=r"1 <= k <= d, got 4"):
            FormulaClassSpec("kcnf", 3, k=4)
        with pytest.raises(ValidationError, match="csp spec needs a generator set"):
            FormulaClassSpec("csp", 2)
        with pytest.raises(ValidationError, match=r"csp generator 0x10 is not a function on \[2\]\^2"):
            FormulaClassSpec("csp", 2, generators=(16,))

    def test_validation(self):
        with pytest.raises(ValidationError):
            FormulaClassSpec("kcnf", 3)  # missing k
        with pytest.raises(ValidationError):
            FormulaClassSpec("nonsense", 3)
        with pytest.raises(ValidationError):
            FormulaClassSpec("csp", 2)  # missing generators
        with pytest.raises(CapExceededError):
            formula_class(FormulaClassSpec("kcnf", 5, k=1))
