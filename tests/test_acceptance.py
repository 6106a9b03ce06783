"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they complete.  All comparisons are exact.
"""

import time
from contextlib import contextmanager
from math import comb

from bundled import (
    U11_U23_BETTI_TEXT,
    bowtie_poset,
    bundled_face_posets,
    bundled_matroids,
    bundled_posets,
    delta_class,
    u11_u23_direct_sum,
    u11_u23_graph,
    u11_u23_matrix,
)
from conftest import (
    cellular_resolution,
    label_acyclic,
    random_class,
    random_intersection_closed_poset,
)
from references import collapse_membership, cover_relations, reduced_euler_characteristic, set_pair
from suboplex import (
    GF2,
    GF3,
    Subset,
    betti_oracle,
    betti_via_intervals,
    betti_via_mobius,
    class_from_poset,
    dual_ideal,
    homological_dimension,
    is_cohen_macaulay,
    is_interval_cm,
    is_shattered,
    order_complex,
    regularity_oracle,
    suboplex_ideal,
    truncated_order_complex,
    vc_dimension,
    vc_oracle,
)
from suboplex.builders import FormulaClassSpec, formula_class


@contextmanager
def criterion(num: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    print(f"criterion {num:02d} PASS ({time.time() - start:.1f}s): {label}")


def test_criterion_01_golden_example():
    with criterion(1, "rank-3 example: Betti table, dimensions, shattering"):
        for make in (u11_u23_direct_sum, u11_u23_matrix, u11_u23_graph):
            poset = make().flats()
            cls = class_from_poset(poset)
            assert betti_via_intervals(poset).render() == U11_U23_BETTI_TEXT
            assert homological_dimension(cls) == 3
            assert vc_dimension(cls) == 3
            assert poset.rank() == 3
            assert is_shattered(cls, Subset.from_string("1110"))
            assert not is_shattered(cls, Subset.from_string("1111"))


def test_criterion_02_representation_independence():
    with criterion(2, "direct sum, matrix, and graph give identical invariants"):
        posets = [m.flats() for m in (u11_u23_direct_sum(), u11_u23_matrix(), u11_u23_graph())]
        assert posets[0] == posets[1] == posets[2]
        tables = [betti_via_intervals(p) for p in posets]
        assert tables[0] == tables[1] == tables[2]
        dims = {
            (homological_dimension(class_from_poset(p)), vc_dimension(class_from_poset(p)))
            for p in posets
        }
        assert dims == {(3, 3)}


def test_criterion_03_oracle_equivalence(rng):
    with criterion(3, "interval Betti equals Koszul oracle on 200 random posets"):
        done = 0
        while done < 200:
            poset = random_intersection_closed_poset(rng, max_n=5)
            if len(poset) == 0:
                continue
            gens = dual_ideal(class_from_poset(poset))
            for field in (GF2, GF3):
                assert betti_via_intervals(poset, field) == betti_oracle(gens, field)
            done += 1


def test_criterion_04_mobius_formula_on_bundled():
    with criterion(4, "Moebius Betti equals interval Betti; face posets are pure"):
        for name, matroid in bundled_matroids().items():
            poset = matroid.flats()
            assert is_interval_cm(poset), name
            assert betti_via_mobius(poset) == betti_via_intervals(poset), name
        for name, poset in bundled_face_posets().items():
            assert is_interval_cm(poset), name
            table = betti_via_mobius(poset)
            assert table == betti_via_intervals(poset), name
            bottom = poset.bottom()
            for (i, deg), value in table.entries.items():
                assert value == 1, name
                lo, hi = set_pair(deg)
                dim_lo = poset.interval(bottom, lo).members.rank() - 1
                dim_hi = poset.interval(bottom, hi).members.rank() - 1
                assert i == dim_hi - dim_lo, name


def test_criterion_05_matroid_trinity():
    with criterion(5, "VC = homological dimension = matroid rank on bundled matroids"):
        for name, matroid in bundled_matroids().items():
            if matroid.m > 8:
                continue
            cls = class_from_poset(matroid.flats())
            rank = matroid.rank_mask((1 << matroid.m) - 1)
            assert vc_dimension(cls) == rank, name
            assert homological_dimension(cls) == rank, name


def test_criterion_06_parity_and_polynomial_conjunctions():
    with criterion(6, "conjunctions of parities and of bounded-degree polynomials"):
        for d in (2, 3):
            cls, _ = formula_class(FormulaClassSpec("parity_conj", d))
            assert vc_dimension(cls) == d
            assert homological_dimension(cls) == d
        for d, k in ((2, 1), (2, 2), (3, 1)):
            cls, _ = formula_class(FormulaClassSpec("poly_conj", d, k=k))
            want = sum(comb(d, i) for i in range(k + 1))
            assert vc_dimension(cls) == want
            assert homological_dimension(cls) == want


def test_criterion_07_kcnf_bounds():
    with criterion(7, "clause-count bounds for small CNF classes"):
        for d, k in ((2, 1), (3, 1), (3, 2)):
            monotone, _ = formula_class(FormulaClassSpec("monotone_kcnf", d, k=k))
            vc_m = vc_oracle(monotone)
            hd_m = homological_dimension(monotone)
            assert comb(d, k) <= vc_m <= hd_m <= sum(comb(d, i) for i in range(k + 1))
            general, _ = formula_class(FormulaClassSpec("kcnf", d, k=k))
            vc_g = vc_oracle(general)
            hd_g = homological_dimension(general)
            assert comb(d, k) <= vc_g <= hd_g <= (1 << k) * comb(d, k)


def test_criterion_08_csp_bound(rng):
    with criterion(8, "conjunction closures respect the generator-count bound"):
        for _ in range(50):
            size = rng.randint(1, 6)
            gens = tuple(rng.getrandbits(8) for _ in range(size))
            cls, _ = formula_class(FormulaClassSpec("csp", 3, generators=gens))
            assert homological_dimension(cls) <= size


def test_criterion_09_universal_inequality(rng):
    with criterion(9, "VC dimension at most homological dimension, 500 random classes"):
        for _ in range(500):
            cls = random_class(rng, max_n=5)
            hdim = betti_oracle(dual_ideal(cls)).projective_dimension
            assert vc_oracle(cls) <= hdim


def test_criterion_10_collapse_map(rng):
    with criterion(10, "collapse membership complements shattering; VC from degrees"):
        for _ in range(500):
            cls = random_class(rng, max_n=5)
            n = cls.n
            outside = []
            for u in range(1 << n):
                sub = Subset(n, u)
                inside = collapse_membership(cls, sub)
                assert inside == (not is_shattered(cls, sub))
                if not inside:
                    outside.append(sub.size)
            assert vc_dimension(cls) == max(outside)


def test_criterion_11_regularity_relation(rng):
    with criterion(11, "regularity of the class ideal is homological dimension + 1"):
        for _ in range(50):
            cls = random_class(rng, max_n=4)
            assert regularity_oracle(suboplex_ideal(cls)) == homological_dimension(cls) + 1


def test_criterion_12_structural_invariants():
    with criterion(12, "Hall identity, cover count, rank bound, acyclicity, landmarks"):
        for name, poset in bundled_posets().items():
            for a in poset.elements:
                for b in poset.elements:
                    if a != b and a.bits & b.bits == a.bits:
                        trunc = truncated_order_complex(poset.interval(a, b))
                        assert reduced_euler_characteristic(trunc) == poset.mobius(a, b), name
            table = betti_via_intervals(poset)
            assert table.total(1) == len(cover_relations(poset)), name
            assert table.projective_dimension <= poset.rank(), name
            assert label_acyclic(cellular_resolution(poset)), name
        bowtie = bowtie_poset()
        assert is_interval_cm(bowtie)
        assert not is_cohen_macaulay(order_complex(bowtie))
        deltas = delta_class(4)
        assert homological_dimension(deltas) == 3
        assert vc_dimension(deltas) == 1


def test_criterion_13_cube_classes():
    with criterion(13, "cube face classes: homological dimension d+1, VC dimension d"):
        from suboplex.builders import cube_complex

        for d in (2, 3):
            cls = class_from_poset(cube_complex(d))
            assert homological_dimension(cls) == d + 1
            assert vc_oracle(cls) == d
