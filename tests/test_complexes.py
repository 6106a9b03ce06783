import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundled import bowtie_poset, u11_u23_flats
from conftest import (
    assert_value_type,
    RP2_FACETS,
    random_class,
    random_complex,
    random_intersection_closed_poset,
    random_poset,
    reference_crosscut_faces,
)
from suboplex import (
    GF2,
    GF3,
    QQ,
    CapExceededError,
    HomologyProfile,
    SimplicialComplex,
    Subset,
    SubsetPoset,
    ValidationError,
    intersection_closure,
    is_cohen_macaulay,
    is_interval_cm,
    order_complex,
    reduced_euler_characteristic,
    reduced_homology,
    shatter_complex,
    truncated_order_complex,
)
from suboplex.homology import ChainHomology, _bits, _by_dim, _crosscut_faces
from references import reference_maximal

HOLLOW_TRIANGLE = SimplicialComplex.from_facets(3, [0b011, 0b101, 0b110])


def reisner_cm(k: SimplicialComplex, fieldspec) -> bool:
    """Reference: Reisner's criterion, every link's homology vanishes below its top."""
    if k.is_null:
        return True
    for face in sorted(k.face_set(), key=lambda f: f.bit_count()):
        lk = k.link(face)
        d = lk.dim
        if d <= -1:
            continue
        profile = reduced_homology(lk, fieldspec)
        if any(profile[i] for i in range(-1, d)):
            return False
    return True


def reisner_interval_cm(p: SubsetPoset, fieldspec) -> bool:
    """Reference: Reisner's criterion on the open part of every interval."""
    for a in p.elements:
        for b in p.elements:
            if a == b or a.bits & b.bits != a.bits:
                continue
            iv = p.interval(a, b)
            if iv.members.rank() <= 1:
                continue
            if not reisner_cm(truncated_order_complex(iv), fieldspec):
                return False
    return True


class TestComplexBasics:
    def test_null_vs_empty(self):
        null = SimplicialComplex.null()
        empty = SimplicialComplex.empty()
        assert null.is_null and not null.is_empty_complex
        assert empty.is_empty_complex and not empty.is_null
        assert null.dim == -2 and empty.dim == -1
        assert null != empty
        assert 0 not in null and null.is_null  # asking for faces keeps it null

    def test_faces_by_dim(self):
        fv = HOLLOW_TRIANGLE.f_vector()
        assert fv == {-1: 1, 0: 3, 1: 3}

    def test_from_faces_keeps_maximal(self):
        k = SimplicialComplex.from_faces(3, [0b011, 0b001, 0b010, 0b100])
        assert set(k.facets) == {0b011, 0b100}

    def test_from_faces_dim_null_and_empty(self):
        k = SimplicialComplex.from_faces(3, [0b011, 0b001, 0b010, 0b100])
        assert k.dim == 1 and not k.is_empty_complex and not k.is_null
        empty = SimplicialComplex.from_faces(3, [0])
        assert empty.dim == -1 and empty.is_empty_complex and not empty.is_null
        null = SimplicialComplex.from_faces(3, [])
        assert null.dim == -2 and null.is_null and not null.is_empty_complex

    def test_one_face_bucketing(self, rng):
        for _ in range(40):
            faces = random_complex(rng).face_set()
            k = SimplicialComplex.from_faces(6, faces)
            buckets = {
                d: sorted(f for f in faces if f.bit_count() == d + 1)
                for d in range(-1, max(f.bit_count() for f in faces))
            }
            assert k.faces_by_dim() == _by_dim(faces) == buckets
            assert k.dim == max(buckets)

    def test_from_faces_facets_match_from_facets(self, rng):
        """The one-vertex-less rule of ``from_faces`` against the column rule of ``from_facets``."""
        for _ in range(40):
            p = random_poset(rng)
            k = order_complex(p)
            assert k.facets == SimplicialComplex.from_facets(len(p), k.face_set()).facets

    def test_facets_match_a_vertex_probe(self, rng):
        def vertex_probe_facets(k: SimplicialComplex) -> tuple[int, ...]:
            faces = k.face_set()
            nv = k.num_vertices
            return tuple(sorted(
                f for f in faces
                if not any(f | 1 << v in faces for v in range(nv) if not f >> v & 1)
            ))

        for _ in range(60):
            for k in (
                SimplicialComplex.from_faces(6, random_complex(rng).face_set()),
                shatter_complex(random_class(rng, max_n=6, max_size=20)),
                order_complex(random_poset(rng, max_n=5)),
            ):
                assert k.facets == vertex_probe_facets(k)

    def test_from_facets_matches_the_pair_scan(self, rng):
        families = [[], [0], [0, 0], [0, 0b1], [0b101, 0b101, 0b1], [0, 1 << 99, 1 << 99]]
        for _ in range(300):
            nv = rng.choice([1, 3, 6, 10, 100])
            masks = [rng.getrandbits(nv) for _ in range(rng.randint(1, 30))]
            masks += rng.choices(masks, k=rng.randint(0, 5))  # duplicates
            chain = rng.choice(masks)
            while chain:  # a nested chain under one mask
                chain &= chain - 1 if rng.getrandbits(1) else rng.getrandbits(nv)
                masks.append(chain)
            if rng.getrandbits(1):
                masks.append(0)
            families.append(rng.sample(masks, len(masks)))
        for masks in families:
            k = SimplicialComplex.from_facets(100, masks)
            assert k.facets == reference_maximal(masks)


class TestOrderComplex:
    def test_antichain_gives_points(self):
        p = SubsetPoset.from_strings(["100", "010", "001"])
        k = order_complex(p)
        assert k.f_vector() == {-1: 1, 0: 3}

    def test_bowtie_gives_two_triangles(self):
        k = order_complex(bowtie_poset())
        assert k.f_vector() == {-1: 1, 0: 5, 1: 6, 2: 2}

    def test_chain_gives_simplex(self):
        p = SubsetPoset.from_strings(["00", "10", "11"])
        k = order_complex(p)
        assert k.facets == (0b111,)


class TestTruncatedOrderComplex:
    def test_flagship_middle_layer(self):
        p = u11_u23_flats()
        k = truncated_order_complex(p.interval(p.bottom(), p.top()))
        assert k.f_vector() == {-1: 1, 0: 8, 1: 9}

    def test_cover_gives_empty_complex(self):
        p = u11_u23_flats()
        iv = p.interval(Subset.from_string("0000"), Subset.from_string("1000"))
        assert truncated_order_complex(iv).is_empty_complex

    def test_point_gives_null(self):
        p = u11_u23_flats()
        iv = p.interval(p.bottom(), p.bottom())
        assert truncated_order_complex(iv).is_null


class TestReducedHomology:
    def test_flagship_truncated_profile(self):
        p = u11_u23_flats()
        k = truncated_order_complex(p.interval(p.bottom(), p.top()))
        prof = reduced_homology(k)
        assert prof[0] == 0 and prof[1] == 2

    def test_empty_complex(self):
        prof = reduced_homology(SimplicialComplex.empty())
        assert prof[-1] == 1 and prof.nonzero == {-1: 1}

    def test_circle(self):
        prof = reduced_homology(HOLLOW_TRIANGLE)
        assert prof.nonzero == {1: 1}

    def test_null(self):
        assert reduced_homology(SimplicialComplex.null()).is_zero

    def test_minus_one_detects_empty_complex(self, rng):
        for _ in range(50):
            p = random_poset(rng)
            k = order_complex(p)
            prof = reduced_homology(k)
            assert (prof[-1] != 0) == k.is_empty_complex

    def test_render(self):
        assert reduced_homology(HOLLOW_TRIANGLE).render() == "H~[-1..1] = [0, 0, 1]"


class TestLink:
    def test_link_of_empty_face(self):
        assert HOLLOW_TRIANGLE.link(0) == HOLLOW_TRIANGLE

    def test_link_of_shared_bottom_in_bowtie(self):
        k = order_complex(bowtie_poset())
        # vertex 0 is the common bottom; its link is two disjoint edges
        lk = k.link(0b1)
        assert lk.f_vector() == {-1: 1, 0: 4, 1: 2}
        assert reduced_homology(lk)[0] == 1

    def test_link_of_facet(self):
        lk = HOLLOW_TRIANGLE.link(0b011)
        assert lk.is_empty_complex

    def test_link_of_non_face_rejected(self):
        with pytest.raises(ValidationError):
            HOLLOW_TRIANGLE.link(0b111)


class TestCohenMacaulay:
    def test_bowtie_complex_fails(self):
        assert not is_cohen_macaulay(order_complex(bowtie_poset()))

    def test_full_simplex(self):
        assert is_cohen_macaulay(SimplicialComplex.from_facets(4, [0b1111]))

    def test_circle(self):
        assert is_cohen_macaulay(HOLLOW_TRIANGLE)

    def test_nonpure_fails(self):
        k = SimplicialComplex.from_facets(4, [0b0111, 0b1001])
        assert not is_cohen_macaulay(k)


@st.composite
def small_posets(draw):
    n = draw(st.integers(1, 4))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=7))
    return SubsetPoset.from_masks(n, masks)


class TestCohenMacaulayThroughIntervals:
    """The order complex of P is CM iff P with a bottom and a top is interval-CM."""

    def test_null_and_empty_complexes(self):
        for field in (GF2, GF3, QQ):
            assert is_cohen_macaulay(SimplicialComplex.null(), field)
            assert is_cohen_macaulay(SimplicialComplex.empty(), field)

    def test_bowtie_is_interval_cm_but_not_cm(self):
        p = bowtie_poset()
        assert is_interval_cm(p) and not is_interval_cm(p.bounded())

    def test_unused_vertices_are_dropped(self):
        # a circle on vertices 0, 40 and 99: more vertices than the ground allows
        k = SimplicialComplex.from_facets(100, [1 | 1 << 40, 1 << 40 | 1 << 99, 1 | 1 << 99])
        assert is_cohen_macaulay(k) and reisner_cm(k, GF2)

    def test_more_used_vertices_than_the_ground_is_capped(self):
        points = SimplicialComplex.from_facets(65, [1 << v for v in range(65)])
        with pytest.raises(CapExceededError):
            is_cohen_macaulay(points)

    def test_agrees_with_reisner_on_random_posets(self, rng):
        for make in (random_poset, random_intersection_closed_poset):
            outcomes = set()
            for _ in range(300):
                p = make(rng)
                k = order_complex(p)
                for field in (GF2, GF3, QQ):
                    expected = reisner_cm(k, field)
                    assert is_interval_cm(p.bounded(), field) == expected
                    outcomes.add(expected)
            assert outcomes == {True, False}

    def test_agrees_with_reisner_on_random_complexes(self, rng):
        outcomes = set()
        for _ in range(300):
            k = random_complex(rng)
            for field in (GF2, GF3, QQ):
                expected = reisner_cm(k, field)
                assert is_cohen_macaulay(k, field) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(small_posets(), st.sampled_from([GF2, GF3, QQ]))
    def test_poset_identity_property(self, p, field):
        assert is_interval_cm(p.bounded(), field) == reisner_cm(order_complex(p), field)


class TestIntervalCM:
    def test_bowtie_poset_is_interval_cm(self):
        assert is_interval_cm(bowtie_poset())

    def test_flat_lattice(self):
        assert is_interval_cm(u11_u23_flats())

    def test_polytope_face_poset(self):
        from suboplex.builders import cube_complex

        assert is_interval_cm(cube_complex(2))

    def test_ungraded_interval_rejected(self):
        # the top interval has maximal chains of lengths 2 and 3
        p = SubsetPoset.from_strings(["000", "100", "110", "001", "111"])
        assert p.is_intersection_closed()
        assert not is_interval_cm(p)

    def test_disconnected_graded_interval_rejected(self):
        # graded of rank 3, but the open top interval is two disjoint edges
        p = SubsetPoset.from_strings(["0000", "1000", "1100", "0010", "0011", "1111"])
        assert p.is_intersection_closed()
        assert not is_interval_cm(p)

    def test_agrees_with_reisner_on_every_interval(self, rng):
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            masks = intersection_closure(rng.getrandbits(n) for _ in range(rng.randint(1, 10)))
            p = SubsetPoset.from_masks(n, masks)
            for field in (GF2, GF3, QQ):
                expected = reisner_interval_cm(p, field)
                assert is_interval_cm(p, field) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_agrees_with_reisner_without_intersection_closure(self, rng):
        # intervals need not be lattices here, so no crosscut may be used
        outcomes = set()
        closed = set()
        for _ in range(400):
            p = random_poset(rng)
            closed.add(p.is_intersection_closed())
            for field in (GF2, GF3):
                expected = reisner_interval_cm(p, field)
                assert is_interval_cm(p, field) == expected
                outcomes.add(expected)
        assert outcomes == {True, False} and False in closed
        # the Boolean lattice B_4 without {1,2} and {0,3}: the top interval
        # is not a lattice, and its common-bound crosscuts miss the H_1 of its
        # order complex
        p = SubsetPoset.from_strings([
            "0000", "1000", "0100", "0010", "0001", "1100", "1010",
            "0101", "0011", "1110", "1101", "1011", "0111", "1111",
        ])
        assert not p.is_intersection_closed()
        assert not reisner_interval_cm(p, GF2) and not is_interval_cm(p, GF2)

    def test_cm_implies_interval_cm(self, rng):
        checked = 0
        for _ in range(200):
            p = random_poset(rng, max_n=3)
            if len(p) == 0:
                continue
            if reisner_cm(order_complex(p), GF2):
                checked += 1
                assert is_interval_cm(p)
        assert checked > 20


class TestEulerCharacteristic:
    def test_empty_complex(self):
        assert reduced_euler_characteristic(SimplicialComplex.empty()) == -1

    def test_flagship_truncated_equals_mobius(self):
        p = u11_u23_flats()
        k = truncated_order_complex(p.interval(p.bottom(), p.top()))
        assert reduced_euler_characteristic(k) == -2
        assert p.mobius(p.bottom(), p.top()) == -2

    def test_circle(self):
        assert reduced_euler_characteristic(HOLLOW_TRIANGLE) == -1

    def test_euler_poincare(self, rng):
        # alternating face counts match alternating homology dimensions,
        # over every field
        for _ in range(40):
            p = random_poset(rng, max_n=3)
            k = order_complex(p)
            lhs = reduced_euler_characteristic(k)
            for field in (GF2, GF3, QQ):
                prof = reduced_homology(k, field)
                rhs = sum(
                    (-1) ** d * prof[d] for d in range(-1, max(k.dim, -1) + 1)
                )
                assert lhs == rhs

    def test_philip_hall(self, rng):
        for _ in range(40):
            p = random_poset(rng)
            for a in p.elements:
                for b in p.elements:
                    if a != b and a.bits & b.bits == a.bits:
                        k = truncated_order_complex(p.interval(a, b))
                        assert reduced_euler_characteristic(k) == p.mobius(a, b)


class TestBoundarySquaresToZero:
    def test_dd_zero(self, rng):
        for _ in range(20):
            p = random_poset(rng, max_n=3)
            k = order_complex(p)
            faces = k.faces_by_dim()
            index = {
                d: {f: i for i, f in enumerate(fs)} for d, fs in faces.items()
            }
            for field in (GF3, QQ):
                for d in range(1, max(faces) + 1 if faces else 0):
                    for f in faces.get(d, ()):
                        # expand the boundary of the boundary as a coefficient map
                        acc: dict[int, int] = {}
                        verts = [v for v in range(k.num_vertices) if f >> v & 1]
                        for j, v in enumerate(verts):
                            g = f ^ (1 << v)
                            gverts = [w for w in verts if w != v]
                            for t, w in enumerate(gverts):
                                h = g ^ (1 << w)
                                acc[h] = acc.get(h, 0) + (-1) ** j * (-1) ** t
                        assert all(c == 0 for c in acc.values())


class TestConeProperty:
    def test_cones_are_acyclic(self, rng):
        for _ in range(40):
            nv = rng.randint(1, 5)
            facets = {rng.getrandbits(nv) | 1 for _ in range(rng.randint(1, 4))}
            k = SimplicialComplex.from_facets(nv, facets)  # vertex 0 in every facet
            for field in (GF2, GF3):
                assert reduced_homology(k, field).is_zero


class TestSuspensionShift:
    def test_chains_avoiding_both_endpoints(self, rng):
        # the subcomplex of interval chains not containing both endpoints is a
        # suspension of the truncated complex: homology shifts by one degree
        for _ in range(25):
            p = random_intersection_closed_poset(rng, max_n=4)
            for a in p.elements:
                for b in p.elements:
                    if a == b or a.bits & b.bits != a.bits:
                        continue
                    iv = p.interval(a, b)
                    k = order_complex(iv.members)
                    ia, ib = iv.members.index(a), iv.members.index(b)
                    both = (1 << ia) | (1 << ib)
                    keep = [f for f in k.face_set() if f & both != both]
                    susp = SimplicialComplex.from_faces(k.num_vertices, keep)
                    hs = reduced_homology(susp)
                    ht = reduced_homology(truncated_order_complex(iv))
                    for d in range(-1, max(k.dim, 0) + 2):
                        assert hs[d] == ht[d - 1]


class TestFieldDependence:
    # minimal triangulation of the real projective plane: homology and the
    # Cohen-Macaulay property depend on the characteristic
    RP2 = SimplicialComplex.from_facets(6, RP2_FACETS)

    def test_homology_differs_by_characteristic(self):
        over_gf2 = reduced_homology(self.RP2, GF2)
        assert over_gf2.nonzero == {1: 1, 2: 1}
        for field in (GF3, QQ):
            assert reduced_homology(self.RP2, field).is_zero

    def test_cm_differs_by_characteristic(self):
        assert not reisner_cm(self.RP2, GF2)
        assert reisner_cm(self.RP2, GF3)
        assert reisner_cm(self.RP2, QQ)

    def test_cm_through_intervals_differs_by_characteristic(self):
        assert not is_cohen_macaulay(self.RP2, GF2)
        assert is_cohen_macaulay(self.RP2, GF3)
        assert is_cohen_macaulay(self.RP2, QQ)


class TestLazyChainHomology:
    def test_matches_full_profile(self, rng):
        for _ in range(30):
            p = random_poset(rng, max_n=3)
            k = order_complex(p)
            prof = reduced_homology(k, GF3)
            chain = ChainHomology(k.faces_by_dim(), GF3)
            for d in range(k.dim, -2, -1):
                assert chain.betti(d) == prof[d]


class TestCrosscutFaces:
    def test_matches_flat_enumeration_and_limit(self, rng):
        # faces in enumeration order, None just past the limit;
        # coatoms from the cover masks are the interior's maximal elements
        sizes = set()
        for _ in range(200):
            n = rng.randint(1, 6)
            masks = intersection_closure(rng.getrandbits(n) for _ in range(rng.randint(1, 10)))
            p = SubsetPoset.from_masks(n, masks)
            up, down = p._up_strict, p._down_strict
            for i, j, *_ in p.intervals():
                interior = up[i] & down[j]
                if not interior:
                    continue
                atoms = _bits(p._covers_up[i] & down[j])
                coatoms = _bits(p._covers_down[j] & up[i])
                assert coatoms == [x for x in _bits(interior) if not up[x] & interior]
                for verts, bounds in ((atoms, up), (coatoms, down)):
                    flat = reference_crosscut_faces(verts, bounds, interior, 1 << 20)
                    assert _crosscut_faces(verts, bounds, interior, len(flat)) == flat
                    assert _crosscut_faces(verts, bounds, interior, len(flat) - 1) is None
                    sizes.add(max(f.bit_count() for f in flat) - 1)
        assert {0, 1, 2} <= sizes


class TestHomologyProfileValueType:
    def test_value_type(self):
        h = assert_value_type(HomologyProfile, {"nonzero": {1: 2}, "complex_dim": 3})
        assert h[1] == 2 and h[0] == 0 and h.render() == "H~[-1..3] = [0, 0, 2, 0, 0]"
        assert HomologyProfile() == HomologyProfile({}, -2)
        assert HomologyProfile().nonzero is not HomologyProfile().nonzero
        assert reduced_homology(SimplicialComplex.null()) == HomologyProfile()
