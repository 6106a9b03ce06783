import pytest

import suboplex.posets
from bundled import bowtie_poset, u11_u23_flats
from conftest import (
    assert_value_type,
    frontier_closure,
    interval_chains,
    random_intersection_closed_poset,
    random_poset,
)
from suboplex import (
    CapExceededError,
    Interval,
    Subset,
    SubsetPoset,
    ValidationError,
    intersection_closure,
    reduced_euler_characteristic,
    truncated_order_complex,
)
from suboplex.io import poset_from_json, poset_to_json

FLAG_ELEMENTS = [
    "0000",
    "1000",
    "0100",
    "0010",
    "0001",
    "1100",
    "1010",
    "1001",
    "0111",
    "1111",
]


def S(s: str) -> Subset:
    return Subset.from_string(s)


class TestBuild:
    def test_flagship_lattice(self):
        p = SubsetPoset.from_strings(FLAG_ELEMENTS)
        assert len(p) == 10
        assert p == u11_u23_flats()

    def test_two_chain(self):
        p = SubsetPoset(1, [S("0"), S("1")])
        assert p.rank() == 1
        assert len(p.cover_relations()) == 1

    def test_antichain(self):
        p = SubsetPoset.from_strings(["10", "01"])
        assert p.cover_relations() == []
        assert p.rank() == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            SubsetPoset(2, [S("10"), S("10")])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SubsetPoset(2, [Subset(3, 0b100)])

    def test_empty_poset_allowed(self):
        p = SubsetPoset(2, [])
        assert len(p) == 0
        with pytest.raises(ValidationError):
            p.rank()
        assert p.closure(S("10")) is None


class TestRank:
    def test_flagship(self):
        assert u11_u23_flats().rank() == 3

    def test_singleton(self):
        assert SubsetPoset.from_strings(["00"]).rank() == 0

    def test_full_boolean(self):
        p = SubsetPoset.from_masks(3, range(8))
        assert p.rank() == 3


class TestCovers:
    def test_flagship_has_17(self):
        assert len(u11_u23_flats().cover_relations()) == 17

    def test_square(self):
        p = SubsetPoset.from_masks(2, range(4))
        assert len(p.cover_relations()) == 4

    def test_cover_skips_middle(self):
        p = SubsetPoset.from_strings(["000", "100", "110"])
        covers = p.cover_relations()
        assert (S("000"), S("110")) not in covers
        assert len(covers) == 2

    def test_matches_a_sorted_cover_list(self, rng):
        for _ in range(100):
            p = random_poset(rng, max_n=5)
            below = [(a, b) for a in p for b in p if a != b and p.leq(a, b)]
            covers = [
                (a, b) for a, b in below if not any((a, c) in below and (c, b) in below for c in p)
            ]
            covers.sort(key=lambda ab: (p.index(ab[0]), p.index(ab[1])))
            assert p.cover_relations() == covers


class TestIntersectionClosed:
    def test_flat_lattice(self):
        assert u11_u23_flats().is_intersection_closed()

    def test_missing_meet(self):
        assert not SubsetPoset.from_strings(["10", "01"]).is_intersection_closed()

    def test_matches_pair_scan(self, rng):
        seen = set()
        for _ in range(200):
            p = random_poset(rng)
            masks = {e.bits for e in p}
            expected = all(a & b in masks for a in masks for b in masks)
            assert p.is_intersection_closed() == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_scans_once_per_poset(self, monkeypatch):
        scans = []
        scan = SubsetPoset._scan_intersection_closed

        def counting(self):
            scans.append(self)
            return scan(self)

        monkeypatch.setattr(SubsetPoset, "_scan_intersection_closed", counting)
        p = SubsetPoset.from_strings(["10", "01"])
        assert not p.is_intersection_closed() and not p.is_intersection_closed()
        q = u11_u23_flats()
        assert q.is_intersection_closed() and q.is_intersection_closed()
        assert scans == [p, q]

    def test_closure_matches_frontier_reference(self, rng):
        assert intersection_closure([]) == frontier_closure([]) == set()
        sizes = set()
        for _ in range(300):
            n = rng.randint(1, 8)
            family = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.3:
                family.append(0)
            closed = intersection_closure(iter(family))
            assert closed == frontier_closure(family)
            assert all(a & b in closed for a in closed for b in closed)
            sizes.add(len(closed) - len(set(family)))
        assert 0 in sizes and max(sizes) >= 5

    def test_closure_membership_criterion(self, rng):
        # V(A) nonempty iff closure(A) in P, for intersection-closed P
        for _ in range(100):
            p = random_intersection_closed_poset(rng, max_n=4)
            n = p.n
            for a in range(1 << n):
                sub = Subset(n, a)
                cl = p.closure(sub)
                covered = any(a & m == a for m in (e.bits for e in p.elements))
                assert covered == (cl is not None and cl in p)


class TestMemberCap:
    def test_closure_and_poset_raise_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(suboplex.posets, "POSET_MAX_MEMBERS", 4)
        assert len(SubsetPoset.from_masks(2, range(4))) == 4
        assert intersection_closure([0b011, 0b110]) == {0b011, 0b110, 0b010}
        with pytest.raises(CapExceededError, match="intersection closure is capped at 4"):
            intersection_closure([0b0111, 0b1110, 0b1011])
        p = SubsetPoset.__new__(SubsetPoset)
        with pytest.raises(CapExceededError, match="a poset is capped at 4 members, got 5"):
            p.__init__(3, [Subset(3, m) for m in range(5)])
        assert not hasattr(p, "_masks") and not hasattr(p, "_up_strict")


def unique_extreme(p: SubsetPoset, minimal: bool) -> Subset | None:
    """The only element with nothing strictly below (or above) it, if there is one."""
    found = [
        a for a in p if not any(b != a and (p.leq(b, a) if minimal else p.leq(a, b)) for b in p)
    ]
    return found[0] if len(found) == 1 else None


class TestBounded:
    def test_bottom_and_top_match_the_extreme_scans(self, rng):
        posets = [random_poset(rng) for _ in range(300)] + [
            SubsetPoset(3, []),
            SubsetPoset.from_strings(["010"]),
            SubsetPoset.from_strings(["10", "01"]),
            SubsetPoset.from_strings(["100", "010", "110", "011"]),
        ]
        kinds = set()
        for p in posets:
            assert p.bottom() == unique_extreme(p, minimal=True)
            assert p.top() == unique_extreme(p, minimal=False)
            kinds.add((len(p), p.bottom() is None, p.top() is None))
        assert {(1, False, False), (2, True, True)} <= kinds
        assert {(b, t) for size, b, t in kinds if size > 2} == {
            (True, True), (True, False), (False, True), (False, False)
        }

    def test_bowtie_gains_only_a_top(self):
        p = bowtie_poset()
        b = p.bounded()
        assert p.bottom() is not None and p.top() is None
        assert b.bottom() == p.bottom() and b.top() == S("1111")
        assert set(b.elements) == set(p.elements) | {S("1111")}

    def test_full_ground_without_bottom_or_top(self):
        a, c = Subset(64, 1), Subset(64, 1 << 63)
        p = SubsetPoset(64, [a, c, Subset(64, 1 | 1 << 32)])
        assert p.bottom() is None and p.top() is None
        b = p.bounded()
        assert b.n == 64 and len(b) == 5
        assert b.bottom() == Subset(64, 0)
        assert b.top() == Subset(64, 1 | 1 << 32 | 1 << 63)

    def test_one_element_is_its_own_bounded_copy(self):
        p = SubsetPoset.from_strings(["010"])
        assert p.bounded() is p

    def test_bounded_poset_is_returned_itself(self):
        p = u11_u23_flats()
        assert p.bounded() is p

    def test_bottom_and_top_bound_every_member(self, rng):
        for _ in range(100):
            p = random_poset(rng)
            b = p.bounded()
            lo, hi = b.bottom(), b.top()
            assert lo is not None and hi is not None
            assert set(p.elements) <= set(b.elements) and len(b) - len(p) <= 2
            assert all(b.leq(lo, e) and b.leq(e, hi) for e in b.elements)
            if p.is_intersection_closed():
                assert b.is_intersection_closed()


class TestClosure:
    def test_u23_closure_forces_top(self):
        from suboplex.builders import UniformMatroid

        m = UniformMatroid(2, 3)
        p = m.flats()
        a = S("110")
        assert p.closure(a) == S("111")
        assert m.closure(a) == S("111")

    def test_member_is_its_own_closure(self):
        p = u11_u23_flats()
        for e in p.elements:
            assert p.closure(e) == e

    def test_uncovered_subset(self):
        p = SubsetPoset.from_strings(["10"])
        assert p.closure(S("01")) is None

    def test_closure_properties(self, rng):
        for _ in range(100):
            p = random_poset(rng)
            n = p.n
            for trial in range(10):
                a = Subset(n, rng.getrandbits(n))
                cl = p.closure(a)
                if cl is None:
                    continue
                assert a.issubset(cl)  # extensive
                assert p.closure(cl) == cl  # idempotent whenever defined
                bigger = a | Subset(n, rng.getrandbits(n))
                cl2 = p.closure(bigger)
                if cl2 is not None:
                    assert cl.issubset(cl2)  # monotone


class TestInterval:
    def test_flagship_rank_two_interval(self):
        p = u11_u23_flats()
        iv = p.interval(S("0000"), S("0111"))
        assert len(iv.members) == 5
        assert iv.members.rank() == 2

    def test_degenerate(self):
        p = u11_u23_flats()
        iv = p.interval(S("1000"), S("1000"))
        assert len(iv.members) == 1

    def test_open_cover_is_empty(self):
        p = u11_u23_flats()
        iv = p.interval(S("0000"), S("1000"), open=True)
        assert len(iv.members) == 0

    def test_value_type(self):
        p = u11_u23_flats()
        iv = p.interval(S("0000"), S("0111"))
        fields = {"lo": S("0000"), "hi": S("0111"), "members": iv.members, "is_open": False}
        assert assert_value_type(Interval, fields) == iv
        assert Interval(S("0000"), S("0111"), iv.members) == iv
        assert iv != p.interval(S("0000"), S("0111"), open=True)

    def test_non_nested_rejected(self):
        p = u11_u23_flats()
        with pytest.raises(ValidationError):
            p.interval(S("1000"), S("0100"))
        with pytest.raises(ValidationError):
            p.interval(S("1000"), S("0110"))

    def test_interval_rank_bounded(self, rng):
        for _ in range(50):
            p = random_poset(rng)
            if len(p) == 0:
                continue
            r = p.rank()
            for a in p.elements:
                for b in p.elements:
                    if a.bits & b.bits == a.bits:
                        assert p.interval(a, b).members.rank() <= r

    def test_interval_ranks_match_sub_posets(self, rng):
        posets = [random_poset(rng) for _ in range(200)]
        posets += [random_intersection_closed_poset(rng, max_n=6) for _ in range(200)]
        outcomes = set()
        for p in posets:
            seen = []
            for i, j, rank, graded, _, _ in p.intervals():
                a, b = p.elements[i], p.elements[j]
                assert a != b and a.bits & b.bits == a.bits
                members = p.interval(a, b).members
                assert rank == members.rank()
                covers = set(members.cover_relations())
                lengths = {
                    len(c) - 1
                    for c in members.chains()
                    if c and c[0] == a and c[-1] == b
                    and all(pair in covers for pair in zip(c, c[1:]))
                }
                assert graded == (len(lengths) == 1)
                outcomes.add(graded)
                seen.append((i, j))
            assert seen == [
                (i, j)
                for i, a in enumerate(p.elements)
                for j, b in enumerate(p.elements)
                if a != b and a.bits & b.bits == a.bits
            ]
        assert outcomes == {True, False}

    def test_mu_and_chains_match_references(self, rng):
        # mu by Hall's theorem: the reduced Euler characteristic of the
        # open interval's order complex; chains by enumeration
        posets = [random_poset(rng) for _ in range(200)]
        posets += [random_intersection_closed_poset(rng, max_n=6) for _ in range(200)]
        for p in posets:
            for i, j, _, _, mu, chains in p.intervals():
                a, b = p.elements[i], p.elements[j]
                assert mu == reduced_euler_characteristic(
                    truncated_order_complex(p.interval(a, b))
                )
                assert chains == interval_chains(p, i, j)


class TestMobius:
    def test_diagonal(self):
        p = u11_u23_flats()
        for e in p.elements:
            assert p.mobius(e, e) == 1

    def test_rank_two_non_boolean(self):
        p = u11_u23_flats()
        assert p.mobius(S("0000"), S("0111")) == 2

    def test_boolean_interval_is_unit(self):
        p = u11_u23_flats()
        assert abs(p.mobius(S("0000"), S("1100"))) == 1

    def test_incomparable_rejected(self):
        p = u11_u23_flats()
        with pytest.raises(ValidationError):
            p.mobius(S("1000"), S("0100"))

    def test_recursion_sums_to_zero(self, rng):
        for _ in range(60):
            p = random_poset(rng)
            for a in p.elements:
                for b in p.elements:
                    if a != b and a.bits & b.bits == a.bits:
                        total = sum(
                            p.mobius(a, c)
                            for c in p.elements
                            if a.bits & c.bits == a.bits and c.bits & b.bits == c.bits
                        )
                        assert total == 0

    def test_interval_restriction_consistency(self, rng):
        for _ in range(60):
            p = random_poset(rng)
            for a in p.elements:
                for b in p.elements:
                    if a.bits & b.bits == a.bits:
                        standalone = p.interval(a, b).members
                        assert standalone.mobius(a, b) == p.mobius(a, b)

    def test_rank_one_interval_count_is_cover_count(self, rng):
        for _ in range(60):
            p = random_poset(rng)
            rank_one = 0
            for a in p.elements:
                for b in p.elements:
                    if a.bits & b.bits == a.bits and a != b:
                        if p.interval(a, b).members.rank() == 1:
                            rank_one += 1
            assert rank_one == len(p.cover_relations())


class TestChains:
    def test_counts_on_flagship(self):
        chains = list(u11_u23_flats().chains())
        assert () in chains  # the empty chain
        assert len([c for c in chains if len(c) == 1]) == 10
        # maximal chains descend bottom -> atom -> coatom -> top
        assert max(len(c) for c in chains) == 4

    def test_strictly_increasing(self, rng):
        for _ in range(30):
            p = random_poset(rng)
            for chain in p.chains():
                for a, b in zip(chain, chain[1:]):
                    assert a != b and a.issubset(b)


class TestJson:
    def test_flagship_document(self):
        doc = {"n": 4, "elements": FLAG_ELEMENTS}
        p = poset_from_json(doc)
        assert p == u11_u23_flats()
        assert poset_to_json(p) == {
            "n": 4,
            "elements": sorted(FLAG_ELEMENTS, key=lambda s: (s.count("1"), Subset.from_string(s).bits)),
        }

    def test_validates_width(self):
        with pytest.raises(ValidationError):
            poset_from_json({"n": 3, "elements": ["0000"]})

    def test_validates_distinct(self):
        with pytest.raises(ValidationError):
            poset_from_json({"n": 2, "elements": ["01", "01"]})
