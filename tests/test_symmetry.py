"""Symmetry-reduced interval sweeps against the same posets with no symmetry.

Every builder's poset is rebuilt with each prefix of its generators, the
empty prefix included, and every sweep must give the answers of the
trivial group: the group may only save time.
"""

import pytest

from suboplex import (
    GF2,
    GF3,
    QQ,
    CapExceededError,
    Subset,
    SubsetPoset,
    ValidationError,
    betti_oracle,
    betti_via_intervals,
    betti_via_mobius,
    class_from_poset,
    dual_ideal,
    is_interval_cm,
)
from suboplex.betti import _hdim_of_poset
from suboplex.builders import (
    CellComplexInput,
    FormulaClassSpec,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    cube_complex,
    face_poset,
    formula_class,
)
from suboplex.io import poset_from_json
from suboplex.posets import and_closed
from references import reference_index_map


def formula(variant: str, d: int, k: int | None = None) -> SubsetPoset:
    return formula_class(FormulaClassSpec(variant, d, k=k))[1]


# name -> (builder, number of generators it declares)
BUILDERS = {
    **{
        f"{variant}({d},{k})": (
            lambda variant=variant, d=d, k=k: formula(variant, d, k),
            d if variant == "kcnf" else d - 1,
        )
        for variant in ("kcnf", "monotone_kcnf")
        for d in (1, 2, 3)
        for k in range(1, d + 1)
    },
    "cube_2": (lambda: cube_complex(2), 2),
    "cube_3": (lambda: cube_complex(3), 3),
    **{
        f"U({k},{m})": (lambda k=k, m=m: UniformMatroid(k, m).flats(), 2 if m > 1 else 0)
        for m in range(1, 8)
        for k in range(m + 1)
    },
    **{f"parity_conj({d})": (lambda d=d: formula("parity_conj", d), d - 1) for d in (1, 2, 3)},
}

# To keep the suite fast, the full sweeps run over Q only up to 70 members,
# and over GF(3) up to 100.
Q_MAX_MEMBERS = 70
GF3_MAX_MEMBERS = 100


def without_symmetry(p: SubsetPoset) -> SubsetPoset:
    return SubsetPoset(p.n, p.elements)


def outcome(fn, *args):
    """The result, or the type and text of a refusal."""
    try:
        return fn(*args)
    except (ValidationError, CapExceededError) as e:
        return type(e), str(e)


def answers(p: SubsetPoset, field) -> list:
    return [
        betti_via_intervals(p, field),
        outcome(betti_via_mobius, p, field),
        is_interval_cm(p, field),
        # every builder's poset is bounded, so p.bounded() is p: see test_bounded_sweeps
        p.bounded() is p or is_interval_cm(p.bounded(), field),
        _hdim_of_poset(p, field),
    ]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builders_declare_their_groups(name):
    build, gens = BUILDERS[name]
    p = build()
    assert len(p.symmetry) == gens
    assert p == without_symmetry(p) and hash(p) == hash(without_symmetry(p))


@pytest.mark.parametrize("name", list(BUILDERS))
def test_reduced_sweeps_equal_full_sweeps(name):
    p = BUILDERS[name][0]()
    fields = [GF2, GF3, QQ][: 1 + (len(p) <= GF3_MAX_MEMBERS) + (len(p) <= Q_MAX_MEMBERS)]
    for field in fields:
        full = answers(without_symmetry(p), field)
        for k in range(1, len(p.symmetry) + 1):
            reduced = SubsetPoset(p.n, p.elements, p.symmetry[:k])
            assert answers(reduced, field) == full, (field, k)


@pytest.mark.parametrize("name", ["cube_3", "U(3,5)", "kcnf(3,2)"])
def test_bounded_sweeps(name):
    # the members other than the bottom and the top: closed under the group,
    # and bounded() adds both back
    p = BUILDERS[name][0]()
    for field in (GF2, GF3, QQ):
        cm = []
        for k in range(len(p.symmetry) + 1):
            proper = SubsetPoset(p.n, p.elements[1:-1], p.symmetry[:k])
            assert proper.bounded() == p and proper.bounded().symmetry == p.symmetry[:k]
            cm.append((is_interval_cm(proper, field), is_interval_cm(proper.bounded(), field)))
        assert cm == [cm[0]] * len(cm)
        assert cm[0][1] == (name != "kcnf(3,2)")


@pytest.mark.parametrize("name", list(BUILDERS))
def test_interval_orbits_partition_the_intervals(name):
    p = BUILDERS[name][0]()
    rows = {(i, j): rest for i, j, *rest in p.intervals()}
    for k in range(len(p.symmetry) + 1):
        q = SubsetPoset(p.n, p.elements, p.symmetry[:k])
        listed = []
        reps = set(q.orbit_representatives())
        for (i, j, *rest), pairs in q.interval_orbits():
            assert pairs[0] == (i, j) and i in reps
            assert all(rows[pair] == rest for pair in pairs)
            orbit = set(pairs)
            assert all((g[a], g[b]) in orbit for g in q._automorphisms for a, b in pairs)
            listed += pairs
        assert sorted(listed) == sorted(rows)  # every pair exactly once
        if k == 0:
            assert len(listed) == len(list(q.interval_orbits()))


def test_orbit_counts():
    # a generator lost from a builder keeps the answers but not the speed
    counts = {
        "kcnf(3,2)": (166, 14, 99, 2601),
        "U(4,7)": (65, 5, 10, 379),
        "cube_3": (28, 5, 10, 125),
        "parity_conj(3)": (16, 8, 19, 50),
    }
    for name, expected in counts.items():
        p = BUILDERS[name][0]()
        got = (
            len(p),
            len(p.orbit_representatives()),
            len(list(p.interval_orbits())),
            len(list(p.intervals())),
        )
        assert got == expected, name


def index_map_outcome(fn, p: SubsetPoset, k: int, g) -> object:
    try:
        return fn(p, k, tuple(g))
    except ValidationError as e:
        return str(e)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_index_maps_match_the_bitwise_reference(name):
    p = BUILDERS[name][0]()
    for k, g in enumerate(p.symmetry):
        assert p._automorphisms[k] == reference_index_map(p, k, g)


def test_index_maps_on_random_posets(rng):
    """Members closed under a random permutation, so it maps onto members; a second one mostly not."""
    for _ in range(200):
        n = rng.choice([1, 2, 7, 8, 9, 16, 17, 30])
        g = list(range(n))
        rng.shuffle(g)
        masks = set()
        for _ in range(rng.randint(1, 8)):
            m = rng.getrandbits(n)
            while m not in masks:
                masks.add(m)
                m = sum(1 << g[v] for v in range(n) if m >> v & 1)
        p = SubsetPoset.from_masks(n, masks)
        h = list(range(n))
        rng.shuffle(h)
        for k, perm in enumerate((g, h, [*g[1:], g[0]], g[:-1] + [n])):
            got = index_map_outcome(SubsetPoset._index_map, p, k, perm)
            assert got == index_map_outcome(reference_index_map, p, k, perm), (n, perm)


class TestGenerators:
    FLAG = ["0000", "1000", "0100", "0010", "0001", "1100", "1010", "1001", "0111", "1111"]

    def flag(self, *symmetry) -> SubsetPoset:
        return SubsetPoset(4, [Subset.from_string(s) for s in self.FLAG], symmetry)

    @pytest.mark.parametrize(
        "g", [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 4], [0.0, 1, 2, 3]]
    )
    def test_not_a_permutation(self, g):
        with pytest.raises(ValidationError, match="generator 1 is not a permutation of range"):
            self.flag([0, 1, 2, 3], g)

    def test_not_an_automorphism(self):
        # 2 <-> 3 maps the flags onto flags; 0 <-> 1 sends 1010 to 0110
        assert len(self.flag([0, 1, 3, 2]).orbit_representatives()) == 8
        with pytest.raises(ValidationError, match="generator 0 maps 1010 to a non-member"):
            self.flag([1, 0, 2, 3])

    def test_not_an_automorphism_from_a_builder(self):
        # columns e_0, e_1, e_0: swapping the parallel 0 and 2 is an automorphism, 0 and 1 not
        columns = [(1, 0), (0, 1), (1, 0)]
        p = LinearMatroid(2, columns, [[2, 1, 0]]).flats()
        assert p.symmetry == ((2, 1, 0),) and len(p.orbit_representatives()) == len(p) == 4
        with pytest.raises(ValidationError, match="generator 1 maps 010 to a non-member"):
            LinearMatroid(2, columns, [[2, 1, 0], [1, 0, 2]]).flats()

    def test_bounded_keeps_and_restrictions_drop_the_group(self):
        p = self.flag([0, 1, 3, 2])
        q = p.restrict(range(1, 9))  # no bottom and no top
        assert q.symmetry == () and p.interval(p.elements[0], p.elements[5]).members.symmetry == ()
        r = SubsetPoset(4, q.elements, p.symmetry)
        assert r.bounded() == p and r.bounded().symmetry == ((0, 1, 3, 2),)

    def test_other_inputs_get_the_trivial_group(self):
        posets = [
            poset_from_json({"n": 2, "elements": ["00", "10", "01", "11"]}),
            formula_class(FormulaClassSpec("csp", 2, generators=(0b0111, 0b1011)))[1],
            formula("poly_conj", 2, 1),
            face_poset(CellComplexInput(3, (0b011, 0b110))),
            GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]).flats(),
            LinearMatroid(2, [(1, 0), (0, 1)]).flats(),
        ]
        assert [p.symmetry for p in posets] == [()] * len(posets)


def refuse(*args, **kwargs):
    raise AssertionError("the oracle must not sweep the poset")


@pytest.mark.parametrize("name", ["cube_2", "kcnf(2,1)", "kcnf(2,2)", "parity_conj(2)"])
def test_oracle_agrees_and_never_reads_the_group(monkeypatch, name):
    # cube_3 lives on 8 points, past the oracle's cap of 12 variables
    p = BUILDERS[name][0]()
    tables = {field: betti_via_intervals(p, field) for field in (GF2, GF3)}
    for attr in ("interval_orbits", "orbit_representatives", "intervals_above"):
        monkeypatch.setattr(SubsetPoset, attr, refuse)
    gens = dual_ideal(class_from_poset(p))
    for field, table in tables.items():
        assert betti_oracle(gens, field) == table


def pair_scan(p: SubsetPoset) -> bool:
    masks = {e.bits for e in p.elements}
    return all(a & b in masks for a in masks for b in masks)


def test_closedness_scan_takes_orbit_representatives(monkeypatch):
    # Builders are closed by construction; the families of all sets whose
    # size lies in K, under S_n, are closed only for some K.
    posets = [builder() for builder, _ in BUILDERS.values()]
    for n in range(1, 8):
        s_n = [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []
        for k_mask in range(1, 1 << n + 1):
            masks = [m for m in range(1 << n) if k_mask >> m.bit_count() & 1]
            posets.append(SubsetPoset.from_masks(n, masks, s_n))
    scans = []
    reps_of = SubsetPoset.orbit_representatives
    monkeypatch.setattr(
        SubsetPoset, "orbit_representatives", lambda self: scans.append(self) or reps_of(self)
    )
    answers = [p._scan_intersection_closed() for p in posets]
    assert scans == posets
    assert answers == [pair_scan(p) for p in posets]
    assert answers.count(False) >= 200
    assert sum(len(reps_of(p)) < len(p) for p in posets) >= 200


def test_and_closed_over_every_index_matches_the_orbit_scan(rng):
    posets = [builder() for builder, _ in BUILDERS.values()]
    for _ in range(300):
        n = rng.randint(1, 7)
        s_n = [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []
        sizes = rng.getrandbits(n + 1) or 1
        posets.append(SubsetPoset.from_masks(
            n, [m for m in range(1 << n) if sizes >> m.bit_count() & 1], s_n
        ))
    answers = [and_closed(p._masks, p._index, range(len(p))) for p in posets]
    assert answers == [p._scan_intersection_closed() for p in posets]
    assert 50 <= answers.count(False) <= len(posets) - 50
