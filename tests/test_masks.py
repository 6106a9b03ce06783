"""The mask-based poset tables and Betti cells against direct constructions.

``SubsetPoset`` builds its comparability tables by transposition and its
covers by a walk; the interval sweeps write ``BettiTable`` cells straight
from member masks.  Both must agree exactly with the pair-by-pair
constructions and the monomial-keyed sweeps of ``references``, on random
posets, on every builder and on the benchmark's inputs.
"""

import json
from types import SimpleNamespace

import pytest

from bundled import bundled_posets, u11_u23_flats
from conftest import random_intersection_closed_poset, reference_json_entries, rp2_with_top
from references import (
    poset_tables,
    reference_interval_entries,
    reference_mobius_entries,
    reference_render,
    reference_tables,
    reference_totals,
)
from suboplex import (
    GF2,
    GF3,
    QQ,
    BettiTable,
    CapExceededError,
    SquarefreeMonomial,
    Subset,
    SubsetPoset,
    ValidationError,
    betti_oracle,
    betti_via_intervals,
    betti_via_mobius,
    class_from_poset,
    dual_ideal,
    intersection_closure,
)
from suboplex.builders import FormulaClassSpec, UniformMatroid, cube_complex, formula_class


def formula(variant: str, d: int, k: int | None = None) -> SubsetPoset:
    return formula_class(FormulaClassSpec(variant, d, k=k))[1]


def builder_posets() -> dict[str, SubsetPoset]:
    """Every builder's posets, and the inputs of the benchmark workloads."""
    out = dict(bundled_posets())
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            out[f"kcnf({d},{k})"] = formula("kcnf", d, k)
            out[f"monotone_kcnf({d},{k})"] = formula("monotone_kcnf", d, k)
            out[f"poly_conj({d},{k})"] = formula("poly_conj", d, k)
    for d in (1, 2, 3, 4):
        out[f"parity_conj({d})"] = formula("parity_conj", d)
    out["csp"] = formula_class(FormulaClassSpec("csp", 3, generators=(0b1011, 0b0110)))[1]
    out["U(4,7)"] = UniformMatroid(4, 7).flats()
    out["U(5,8)"] = UniformMatroid(5, 8).flats()
    out["cube_4"] = cube_complex(4)
    out["flagship"] = u11_u23_flats()
    out["rp2_with_top"] = rp2_with_top()
    return out


POSETS = builder_posets()

# To keep the suite fast, the monomial-keyed reference sweeps run over Q
# only up to 70 members, and over GF(3) up to 170 (kcnf(3,2) has 166).
FIELD_MAX_MEMBERS = {GF2: None, GF3: 170, QQ: 70}


def random_family(rng) -> SubsetPoset:
    n = rng.randint(1, 8)
    return SubsetPoset.from_masks(n, {rng.getrandbits(n) for _ in range(rng.randint(1, 40))})


class TestTables:
    def test_random_posets(self, rng):
        for _ in range(300):
            p = random_family(rng)
            assert poset_tables(p) == reference_tables(p)

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_builders(self, name):
        p = POSETS[name]
        assert poset_tables(p) == reference_tables(p)

    def test_empty_and_single(self):
        for p in (SubsetPoset(3, []), SubsetPoset.from_masks(3, [0b101])):
            assert poset_tables(p) == reference_tables(p)

    def test_wide_ground(self):
        masks = [0, 1 << 63, (1 << 64) - 1, 0b1011 << 40, 0b0011 << 40, 0b1000 << 40]
        p = SubsetPoset.from_masks(64, masks)
        assert poset_tables(p) == reference_tables(p)

    def test_cap_comes_before_the_tables(self, monkeypatch):
        import suboplex.posets

        monkeypatch.setattr(suboplex.posets, "POSET_MAX_MEMBERS", 3)
        monkeypatch.setattr(suboplex.posets, "_comparability", None)  # never reached
        with pytest.raises(CapExceededError, match="a poset is capped at 3 members, got 4"):
            SubsetPoset.from_masks(2, range(4))


def assert_same_table(table: BettiTable, entries: dict) -> None:
    """``table`` equals the monomial-keyed ``entries`` in every reading."""
    assert table.entries == entries
    assert list(table.entries) == list(entries)
    assert table == BettiTable.from_entries(table.n, entries)
    for (i, m), v in entries.items():
        assert table.get(i, m) == v
    n = table.n
    assert table.get(0, SquarefreeMonomial(Subset(n, 0), Subset(n, 0))) == 0
    assert table.totals() == reference_totals(entries)
    assert table.render().encode() == reference_render(entries).encode()
    ours = table.render_json()
    theirs = json.dumps({"entries": reference_json_entries(SimpleNamespace(entries=entries))})
    assert ours.encode() == theirs.encode()


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as e:
        return str(e)


def sweep_cases():
    for name in sorted(POSETS):
        for field, cap in FIELD_MAX_MEMBERS.items():
            if POSETS[name].is_intersection_closed() and (cap is None or len(POSETS[name]) <= cap):
                yield pytest.param(name, field, id=f"{name}-{field}")


class TestSweeps:
    @pytest.mark.parametrize("name, field", sweep_cases())
    def test_builders(self, name, field):
        p = POSETS[name]
        assert_same_table(betti_via_intervals(p, field), reference_interval_entries(p, field))
        ours = outcome(betti_via_mobius, p, field)
        theirs = outcome(reference_mobius_entries, p, field)
        if isinstance(theirs, str):
            assert ours == theirs
        else:
            assert_same_table(ours, theirs)

    def test_random_posets(self, rng):
        for _ in range(40):
            p = random_intersection_closed_poset(rng, max_n=6)
            for field in (GF2, GF3, QQ):
                table = betti_via_intervals(p, field)
                assert_same_table(table, reference_interval_entries(p, field))

    def test_refusals_match_on_a_poset_that_is_not_closed(self):
        p = SubsetPoset.from_masks(2, [0b01, 0b10])
        for sweep, reference in (
            (betti_via_intervals, reference_interval_entries),
            (betti_via_mobius, reference_mobius_entries),
        ):
            assert outcome(sweep, p, GF2) == outcome(reference, p, GF2)

    def test_equal_to_the_oracle_up_to_ground_six(self, rng):
        for n in range(1, 7):
            for _ in range(4):
                masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 5))}
                p = SubsetPoset.from_masks(n, intersection_closure(masks))
                gens = dual_ideal(class_from_poset(p))
                for field in (GF2, GF3):
                    oracle = betti_oracle(gens, field)
                    assert betti_via_intervals(p, field) == oracle
                    assert oracle == betti_via_intervals(p, field)


class TestTableValue:
    def test_monomial_keys_construct_and_read_back(self):
        m = SquarefreeMonomial(Subset(3, 0b001), Subset(3, 0b010))
        table = BettiTable.from_entries(3, {(1, m): 2})
        assert table == BettiTable(3, {(1, 0b001, 0b010): 2})
        assert table.cells == {(1, 0b001, 0b010): 2}
        assert table.entries == {(1, m): 2} and table.get(1, m) == 2
        assert table.render_json() == '{"entries": [{"i": 1, "degree": "x0_0*x1_1", "value": 2}]}'

    def test_a_monomial_on_another_ground_is_missing(self):
        m = SquarefreeMonomial(Subset(3, 0b001), Subset(3, 0b010))
        table = BettiTable.from_entries(3, {(1, m): 2})
        wide = SquarefreeMonomial(Subset(4, 0b001), Subset(4, 0b010))
        assert table.get(1, wide) == 0
        assert (1, wide) not in table.entries
        with pytest.raises(KeyError):
            table.entries[(1, wide)]
        assert table.cells == {(1, 0b001, 0b010): 2}

    def test_a_malformed_key_is_refused_on_write(self):
        m = SquarefreeMonomial(Subset(2, 0b01), Subset(2, 0b10))
        wide = SquarefreeMonomial(Subset(3, 0b01), Subset(3, 0b10))
        for key in ((1, wide), ("1", m), (True, m), (1, "x0_0"), (1,), "nonsense", (1, Subset(2, 1))):
            message = f"Betti table key must be (int, SquarefreeMonomial on ground 2), got {key!r}"
            with pytest.raises(ValidationError) as info:
                BettiTable.from_entries(2, {(0, m): 1, key: 1})
            assert str(info.value) == message

    def test_entries_is_a_new_dict(self):
        table = betti_via_intervals(u11_u23_flats())
        cells = dict(table.cells)
        entries = table.entries
        assert entries is not table.entries and entries == table.entries
        (i, m), v = next(iter(entries.items()))
        entries[(i, m)] = v + 7
        assert table.get(i, m) == v
        entries.clear()
        assert table.cells == cells and len(table.entries) == len(cells)
