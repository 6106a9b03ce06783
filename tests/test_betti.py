import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundled import (
    U11_U23_BETTI_TEXT,
    delta_class,
    u11_u23_class,
    u11_u23_direct_sum,
    u11_u23_flats,
)
from conftest import (
    LabeledComplex,
    assert_value_type,
    cellular_resolution,
    reference_json_entries,
    interval_chains,
    label_acyclic,
    label_degrees,
    random_intersection_closed_poset,
    reference_interval_complex,
    rp2_with_top,
)
from suboplex import (
    GF2,
    GF3,
    QQ,
    BettiTable,
    SimplicialComplex,
    Subset,
    SubsetPoset,
    ValidationError,
    betti_oracle,
    betti_via_intervals,
    betti_via_mobius,
    class_from_poset,
    dual_ideal,
    homological_dimension,
    intersection_closure,
    interval_homology,
    is_interval_cm,
    monomial,
    reduced_homology,
    truncated_order_complex,
)
from suboplex.bitsets import SquarefreeMonomial
from suboplex.betti import _hdim_of_poset
from suboplex.builders import UniformMatroid, formula_class
from suboplex.cli import main
from suboplex.io import formula_from_json, poset_to_json


def S(s: str) -> Subset:
    return Subset.from_string(s)


class TestCellularResolution:
    def test_flagship_vertex_labels(self):
        p = u11_u23_flats()
        labeled = cellular_resolution(p)
        vertex_labels = [
            labeled.labels[1 << i] for i in range(len(p))
        ]
        assert len(vertex_labels) == 10
        assert all(m.degree == 4 for m in vertex_labels)

    def test_singleton(self):
        p = SubsetPoset.from_strings(["0"])
        labeled = cellular_resolution(p)
        assert set(labeled.labels) == {0b0, 0b1}

    def test_one_edge_chain(self):
        p = SubsetPoset.from_strings(["0", "1"])
        labeled = cellular_resolution(p)
        assert str(labeled.labels[0b11]) == "x0_0*x0_1"

    def test_face_label_is_lcm_of_vertices(self, rng):
        for _ in range(40):
            p = random_intersection_closed_poset(rng, max_n=4)
            labeled = cellular_resolution(p)
            for face, label in labeled.labels.items():
                if face == 0:
                    assert label.degree == 0
                    continue
                acc = None
                rest = face
                while rest:
                    i = rest.bit_length() - 1
                    rest ^= 1 << i
                    vert = labeled.labels[1 << i]
                    acc = vert if acc is None else acc.lcm(vert)
                assert acc == label

    def test_rejects_non_intersection_closed(self):
        p = SubsetPoset.from_strings(["10", "01"])
        with pytest.raises(ValidationError):
            cellular_resolution(p)


def check_acyclic(capsys, p: SubsetPoset) -> tuple[int, str, str]:
    """``check --acyclic`` on ``p``: the exit code, stdout and stderr."""
    code = main(["check", "--acyclic", "--build", "poset:" + json.dumps(poset_to_json(p))])
    out, err = capsys.readouterr()
    return code, out, err


class TestVerifyAcyclic:
    """The theorem ``check --acyclic`` answers from, checked label degree by label degree."""

    def test_flat_lattice(self):
        labeled = cellular_resolution(u11_u23_flats())
        for field in (GF2, GF3, QQ):
            assert label_acyclic(labeled, field)

    def test_exhaustive_small(self, rng):
        for _ in range(15):
            p = random_intersection_closed_poset(rng, max_n=4)
            assert label_acyclic(cellular_resolution(p), exhaustive=True)

    def test_all_fields(self, rng):
        for _ in range(10):
            labeled = cellular_resolution(random_intersection_closed_poset(rng, max_n=4))
            for field in (GF2, GF3, QQ):
                assert label_acyclic(labeled, field)

    def test_matches_the_labeled_complex_reference(self, capsys, rng):
        """``check --acyclic`` says yes wherever the label-by-label scan holds."""
        for t in range(200):
            p = random_intersection_closed_poset(rng, max_n=4)
            labeled = cellular_resolution(p)
            for field in (GF2, GF3, QQ):
                assert label_acyclic(labeled, field)
                if t % 4 == 0:
                    assert label_acyclic(labeled, field, exhaustive=True)
            assert check_acyclic(capsys, p) == (0, "acyclic: yes\n", "")

    def test_spans_are_the_label_filtered_faces(self, rng):
        """The proof: the faces whose label divides m(L, U) are the chains of the
        members between L and U, and those form a cone on the least of them."""
        for _ in range(60):
            p = random_intersection_closed_poset(rng, max_n=4)
            labels = cellular_resolution(p).labels
            nonempty = [(f, lab) for f, lab in labels.items() if f != 0]
            for b in label_degrees(p.n):
                faces = {f for f, lab in nonempty if lab.divides(b)}
                lo, hi = ((1 << p.n) - 1) & ~b.support1.bits, b.support0.bits
                between = [x for x, m in enumerate(p._masks) if lo & m == lo and m & hi == m]
                span = sum(1 << x for x in between)
                assert faces == set(p.chain_masks(span)) - {0}
                if between:
                    apex = min(between, key=lambda x: p._masks[x].bit_count())
                    assert all(p._masks[apex] & p._masks[x] == p._masks[apex] for x in between)
                    assert all(f | 1 << apex in faces for f in faces)

    def test_rejects_non_intersection_closed(self, capsys):
        p = SubsetPoset.from_strings(["10", "01"])
        message = "cellular resolution requires an intersection-closed poset"
        with pytest.raises(ValidationError, match=message):
            cellular_resolution(p)
        assert check_acyclic(capsys, p) == (1, "", f"error: {message}\n")


class TestBettiViaIntervals:
    def test_flagship_rank_two_entry(self):
        table = betti_via_intervals(u11_u23_flats())
        assert table.get(2, monomial(S("0000"), S("0111"))) == 2

    def test_beta_zero_per_element(self):
        p = u11_u23_flats()
        table = betti_via_intervals(p)
        for a in p.elements:
            assert table.get(0, monomial(a, a)) == 1
        assert table.total(0) == 10

    def test_beta_one_marks_covers(self, rng):
        for _ in range(25):
            p = random_intersection_closed_poset(rng, max_n=4)
            table = betti_via_intervals(p)
            covers = set(p.cover_relations())
            for a in p.elements:
                for b in p.elements:
                    if a != b and a.bits & b.bits == a.bits:
                        expect = 1 if (a, b) in covers else 0
                        assert table.get(1, monomial(a, b)) == expect
            assert table.total(1) == len(covers)

    def test_rejects_non_intersection_closed(self):
        with pytest.raises(ValidationError):
            betti_via_intervals(SubsetPoset.from_strings(["10", "01"]))


def reference_profile(p: SubsetPoset, i: int, j: int, field) -> dict[int, int]:
    """Reduced homology of the open interval (e_i, e_j) from its order complex."""
    iv = p.interval(p.elements[i], p.elements[j])
    return reduced_homology(truncated_order_complex(iv), field).nonzero


def comparable_pairs(p: SubsetPoset):
    for i, a in enumerate(p.elements):
        for j in range(i, len(p)):
            if a.bits & p.elements[j].bits == a.bits:
                yield i, j


def nonzero(chain) -> dict[int, int]:
    """The nonzero reduced Betti numbers of an ``interval_homology`` result."""
    return {d: b for d in chain.faces if (b := chain.betti(d))}


def assert_matches_order_complex(p: SubsetPoset) -> None:
    for i, j in comparable_pairs(p):
        chains = interval_chains(p, i, j)
        for field in (GF2, GF3, QQ):
            chain = interval_homology(p, i, j, chains, field)
            assert nonzero(chain) == reference_profile(p, i, j, field)


def assert_faces_match_reference(p: SubsetPoset, rows=None) -> None:
    """Same faces, in the same order, as the ``SimplicialComplex`` reference."""
    for i, j, _, _, _, chains in p.intervals() if rows is None else rows:
        expected = reference_interval_complex(p, i, j, chains).faces_by_dim()
        assert interval_homology(p, i, j, chains, GF2).faces == expected


def kcnf_3_2() -> SubsetPoset:
    return formula_class(formula_from_json({"type": "kcnf", "d": 3, "k": 2}))[1]


def parity_4() -> SubsetPoset:
    return formula_class(formula_from_json({"type": "parity_conj", "d": 4}))[1]


def stacked_antichains() -> SubsetPoset:
    """0 < a_0..a_7 < x < y_0..y_7 < 1 on ground {0..15}.

    a_i = {i}, x = {0..7}, y_j = x | {8 + j}, and the top is {0..15}.
    """
    x = (1 << 8) - 1
    masks = [0, x, (1 << 16) - 1]
    masks += [1 << i for i in range(8)]
    masks += [x | 1 << (8 + j) for j in range(8)]
    return SubsetPoset.from_masks(16, masks)


@st.composite
def intersection_closed_posets(draw) -> SubsetPoset:
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=10))
    return SubsetPoset.from_masks(n, intersection_closure(masks))


class TestIntervalComplex:
    def test_matches_order_complex_on_every_interval(self, rng):
        for _ in range(300):
            n = rng.randint(1, 6)
            masks = intersection_closure(rng.getrandbits(n) for _ in range(rng.randint(1, 10)))
            assert_matches_order_complex(SubsetPoset.from_masks(n, masks))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(intersection_closed_posets())
    def test_matches_order_complex_property(self, p):
        assert_matches_order_complex(p)

    def test_falls_back_to_the_order_complex(self):
        # both crosscut complexes of the top interval are full 7-simplices
        # (2^8 faces), while its interior has 1 + 17 + 80 + 64 = 162 chains
        p = stacked_antichains()
        assert len(p) == 19 and p.is_intersection_closed()
        top = len(p) - 1
        assert interval_chains(p, 0, top) == 162
        faces = interval_homology(p, 0, top, 162, GF2).faces
        assert sum(map(len, faces.values())) == 162 and max(faces) == 2
        # the interior is elements 1..17 of p and 0..16 of the open sub-poset
        oracle = truncated_order_complex(p.interval(p.bottom(), p.top()))
        assert {f >> 1 for fs in faces.values() for f in fs} == oracle.face_set()
        assert_matches_order_complex(p)
        # elsewhere the crosscut on the fewer of atoms and coatoms is used:
        # x is the only atom of [a_0, 1] and the only coatom of [0, y_0]
        a0, y0 = p.index(S("1" + "0" * 15)), p.index(S("1" * 8 + "10000000"))
        for i, j in ((a0, top), (0, y0)):
            chain = interval_homology(p, i, j, interval_chains(p, i, j), GF2)
            assert chain.faces == {-1: [0], 0: [1]}
        for field in (GF2, GF3, QQ):
            assert _hdim_of_poset(p, field) == betti_via_intervals(p, field).projective_dimension

    def test_parity_top_interval_falls_back(self):
        # parity_4 flats: the top interval has 15 atoms and 15 coatoms, whose
        # crosscut complexes have 1536 faces against 696 chains in the interior
        p = parity_4()
        top = len(p) - 1
        assert next(row for row in p.intervals_above(0) if row[0] == top)[3:] == (64, 696)
        assert interval_chains(p, 0, top) == 696
        faces = interval_homology(p, 0, top, 696, GF2).faces
        assert sum(map(len, faces.values())) == 696
        assert faces[0] == [1 << x for x in range(1, top)]  # the interior of p as vertices
        for field in (GF2, GF3):
            chain = interval_homology(p, 0, top, 696, field)
            assert nonzero(chain) == reference_profile(p, 0, top, field)

    def test_degenerate_intervals(self):
        p = stacked_antichains()
        covers = set(p.cover_relations())
        for i, j in comparable_pairs(p):
            for field in (GF2, GF3, QQ):
                chain = interval_homology(p, i, j, interval_chains(p, i, j), field)
                if i == j:
                    assert chain.faces == {} and nonzero(chain) == {}
                elif (p.elements[i], p.elements[j]) in covers:
                    assert chain.faces == {-1: [0]} and nonzero(chain) == {-1: 1}
                else:
                    assert max(chain.faces) >= 0

    def test_rejects_incomparable_endpoints(self):
        p = SubsetPoset.from_strings(["00", "10", "01"])
        with pytest.raises(ValidationError):
            interval_homology(p, 1, 2, 1, GF2)

    def test_faces_match_reference_complex(self, rng):
        for _ in range(300):
            n = rng.randint(1, 6)
            masks = intersection_closure(rng.getrandbits(n) for _ in range(rng.randint(1, 10)))
            assert_faces_match_reference(SubsetPoset.from_masks(n, masks))
        assert_faces_match_reference(stacked_antichains())
        p = parity_4()
        top_row = next(row for row in p.intervals_above(0) if row[0] == len(p) - 1)
        assert_faces_match_reference(p, [(0, *top_row)])

    def test_faces_match_reference_complex_at_scale(self):
        for p in (kcnf_3_2(), UniformMatroid(5, 8).flats()):
            assert_faces_match_reference(p)

    def test_characteristic_dependence_through_crosscut(self):
        p = rp2_with_top()
        assert len(p) == 33 and p.is_intersection_closed()
        gf2, gf3 = betti_via_intervals(p, GF2), betti_via_intervals(p, GF3)
        assert gf2.totals() == [33, 76, 60, 17, 1]
        assert gf3.totals() == [33, 76, 60, 16]
        gens = dual_ideal(class_from_poset(p))
        assert gf2 == betti_oracle(gens, GF2)
        assert gf3 == betti_oracle(gens, GF3)


class TestBettiViaMobius:
    def test_flagship_matches_intervals(self):
        p = u11_u23_flats()
        assert betti_via_mobius(p) == betti_via_intervals(p)

    def test_face_poset_entries_are_one(self):
        from suboplex.builders import cube_complex

        p = cube_complex(2)
        table = betti_via_mobius(p)
        assert all(v == 1 for v in table.entries.values())

    def test_minor_mobius_numbers(self):
        # the entry at [bottom, {1,2,3}] is the Moebius number of the minor
        m = u11_u23_direct_sum()
        p = m.flats()
        minor = m.minor(S("0000"), S("0111"))
        mf = minor.flats()
        table = betti_via_mobius(p)
        assert table.get(2, monomial(S("0000"), S("0111"))) == abs(
            mf.mobius(mf.bottom(), mf.top())
        )

    def test_one_pass_over_the_intervals(self, monkeypatch):
        passes = []
        intervals_above = SubsetPoset.intervals_above

        def counting(self, i):
            passes.append(i)
            return intervals_above(self, i)

        monkeypatch.setattr(SubsetPoset, "intervals_above", counting)
        u47 = UniformMatroid(4, 7).flats()
        for p in (u11_u23_flats(), SubsetPoset(u47.n, u47.elements)):
            passes.clear()
            betti_via_mobius(p, GF3)
            assert sorted(passes) == list(range(len(p)))
        # with its symmetry, one pass per element orbit: rank 0 to 4
        passes.clear()
        betti_via_mobius(u47, GF3)
        assert passes == u47.orbit_representatives() == [0, 1, 8, 29, 64]

    def test_checks_interval_cm_over_its_field(self):
        p = rp2_with_top()
        with pytest.raises(ValidationError, match="interval Cohen-Macaulay"):
            betti_via_mobius(p, GF2)
        for field in (GF3, QQ):
            assert betti_via_mobius(p, field) == betti_via_intervals(p, field)

    def test_matches_intervals_on_interval_cm(self, rng):
        seen = set()
        for _ in range(40):
            p = random_intersection_closed_poset(rng, max_n=4)
            cm = is_interval_cm(p)
            seen.add(cm)
            if cm:
                assert betti_via_mobius(p) == betti_via_intervals(p)
            else:
                with pytest.raises(ValidationError):
                    betti_via_mobius(p)
        assert seen == {True, False}


class TestSweepsBuildNoComplex:
    # totals, projective dimension, interval-CM and Moebius totals (None when
    # betti_via_mobius raises), the same over GF(2) and GF(3)
    CASES = {
        "flagship": ([10, 17, 10, 2], 3, True, [10, 17, 10, 2]),
        "U(4,7)": ([65, 189, 210, 105, 20], 4, True, [65, 189, 210, 105, 20]),
        "kcnf(3,2)": ([166, 544, 706, 454, 152, 28, 3], 6, False, None),
    }

    def test_no_simplicial_complex_is_built(self, monkeypatch):
        posets = {
            "flagship": u11_u23_flats(),
            "U(4,7)": UniformMatroid(4, 7).flats(),
            "kcnf(3,2)": kcnf_3_2(),
        }
        tables = {
            (name, f): betti_via_intervals(p, f) for name, p in posets.items() for f in (GF2, GF3)
        }

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep built a SimplicialComplex")

        monkeypatch.setattr(SimplicialComplex, "from_faces", classmethod(refuse))
        monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
        for name, p in posets.items():
            totals, hdim, cm, mobius_totals = self.CASES[name]
            for field in (GF2, GF3):
                table = betti_via_intervals(p, field)
                assert table == tables[name, field] and table.totals() == totals
                assert _hdim_of_poset(p, field) == hdim
                assert is_interval_cm(p, field) == cm
                if mobius_totals is None:
                    with pytest.raises(ValidationError, match="interval Cohen-Macaulay"):
                        betti_via_mobius(p, field)
                else:
                    assert betti_via_mobius(p, field).totals() == mobius_totals


class TestRender:
    def test_flagship_golden(self):
        assert betti_via_intervals(u11_u23_flats()).render() == U11_U23_BETTI_TEXT

    def test_single_generator(self):
        p = SubsetPoset.from_strings(["0"])
        table = betti_via_intervals(p)
        assert table.render() == "total: 1\n1: 1"

    def test_two_element_chain(self):
        p = SubsetPoset.from_strings(["0", "1"])
        table = betti_via_intervals(p)
        assert table.render() == "total: 2 1\n1: 2 1"
        assert table == betti_oracle(dual_ideal(class_from_poset(p)))

    def test_json_entries_shape(self):
        table = betti_via_intervals(u11_u23_flats())
        text = table.render_json()
        assert text == json.dumps({"entries": reference_json_entries(table)})
        entries = json.loads(text)["entries"]
        assert {"i": 2, "degree": "m(0000,0111)", "value": 2} in entries
        assert all(set(e) == {"i", "degree", "value"} for e in entries)

    def test_json_entries_match_a_reference(self, rng):
        for _ in range(30):
            table = betti_via_intervals(random_intersection_closed_poset(rng, max_n=6))
            assert table.render_json() == json.dumps({"entries": reference_json_entries(table)})
        m = SquarefreeMonomial(S("100"), S("010"))
        table = BettiTable.from_entries(3, {(0, m): 1, (1, monomial(S("000"), S("110"))): 2})
        assert table.render_json() == json.dumps({"entries": reference_json_entries(table)})
        assert json.loads(table.render_json())["entries"][0] == {
            "i": 0, "degree": "x0_0*x1_1", "value": 1
        }
        assert BettiTable(3, {}).render_json() == json.dumps({"entries": []})


class TestValueTypes:
    def test_betti_table(self):
        m = monomial(S("01"), S("01"))
        cells = {(0, m.support0.bits, m.support1.bits): 1}
        table = assert_value_type(BettiTable, {"n": 2, "cells": cells})
        assert table == BettiTable.from_entries(2, {(0, m): 1})
        assert table != BettiTable(2, {}) and table != BettiTable(3, cells)

    def test_labeled_complex(self):
        p = SubsetPoset.from_strings(["0", "1"])
        labeled = cellular_resolution(p)
        fields = {"poset": p, "complex": labeled.complex, "labels": labeled.labels}
        assert labeled == assert_value_type(LabeledComplex, fields)


class TestHomologicalDimension:
    def test_flagship(self):
        assert homological_dimension(u11_u23_class()) == 3

    def test_delta_functions(self):
        assert homological_dimension(delta_class(4)) == 3

    def test_square_face_poset(self):
        from suboplex.builders import cube_complex

        assert homological_dimension(class_from_poset(cube_complex(2))) == 3

    def test_fast_scan_matches_table(self, rng):
        for _ in range(50):
            p = random_intersection_closed_poset(rng, max_n=4)
            if len(p) == 0:
                continue
            for field in (GF2, GF3):
                table = betti_via_intervals(p, field)
                assert _hdim_of_poset(p, field) == table.projective_dimension

    def test_hdim_at_most_rank(self, rng):
        for _ in range(50):
            p = random_intersection_closed_poset(rng, max_n=5)
            if len(p) == 0:
                continue
            c = class_from_poset(p)
            assert homological_dimension(c) <= p.rank()


class TestAgainstOracle:
    def test_intervals_equal_oracle_both_fields(self, rng):
        for _ in range(50):
            p = random_intersection_closed_poset(rng, max_n=4)
            if len(p) == 0:
                continue
            gens = dual_ideal(class_from_poset(p))
            for field in (GF2, GF3):
                assert betti_via_intervals(p, field) == betti_oracle(gens, field)

    def test_alternating_sum_is_mobius(self, rng):
        # per interval, the homology alternating sum of the truncated complex
        # recovers the Moebius value
        for _ in range(30):
            p = random_intersection_closed_poset(rng, max_n=4)
            for a in p.elements:
                for b in p.elements:
                    if a != b and a.bits & b.bits == a.bits:
                        k = truncated_order_complex(p.interval(a, b))
                        prof = reduced_homology(k)
                        alt = sum((-1) ** d * v for d, v in prof.nonzero.items())
                        assert alt == p.mobius(a, b)


class TestLinearResolutionCriterion:
    def test_boolean_after_loops_iff_linear(self):
        # a matroid flat lattice gives a linear resolution (all entries in
        # degree n + i) exactly when rank equals ground size minus loops
        from suboplex.builders import DirectSumMatroid, UniformMatroid

        cases = [
            UniformMatroid(2, 2),
            UniformMatroid(3, 3),
            UniformMatroid(2, 3),
            UniformMatroid(2, 4),
            u11_u23_direct_sum(),
            DirectSumMatroid([UniformMatroid(0, 1), UniformMatroid(2, 2)]),
        ]
        for m in cases:
            p = m.flats()
            table = betti_via_intervals(p)
            linear = all(deg.degree == p.n + i for (i, deg) in table.entries)
            boolean_after_loops = m.full_rank == m.m - m.loops().size
            assert linear == boolean_after_loops, repr(m)
