import copy
import pickle
import random
import sys

import pytest

from references import divides, set_pair
from suboplex import (
    GF2,
    BettiTable,
    FunctionClass,
    SimplicialComplex,
    SquarefreeMonomial,
    Subset,
    SubsetPoset,
    ValidationError,
    intersection_closure,
    monomial,
    order_complex,
    reduced_homology,
)
from suboplex.bitsets import Value
from suboplex.complexes import _bits


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20250809,
        help="seed for randomized property tests",
    )


@pytest.fixture
def rng(request) -> random.Random:
    return random.Random(request.config.getoption("--seed"))


# facets of the minimal (6-vertex) triangulation of the real projective plane
RP2_FACETS = [
    0b010011, 0b100011, 0b001101, 0b010101, 0b101001,
    0b001110, 0b100110, 0b011010, 0b110100, 0b111000,
]


def rp2_with_top() -> SubsetPoset:
    """Every face of RP^2, the empty face included, plus the top {0..5}.

    It is interval Cohen-Macaulay over GF(3) and Q but not over GF(2).
    """
    faces = SimplicialComplex.from_facets(6, RP2_FACETS).face_set()
    return SubsetPoset.from_masks(6, faces | {(1 << 6) - 1})


def random_poset(rng: random.Random, max_n: int = 4) -> SubsetPoset:
    n = rng.randint(1, max_n)
    masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 7))}
    return SubsetPoset.from_masks(n, masks)


def random_intersection_closed_poset(rng: random.Random, max_n: int = 5) -> SubsetPoset:
    n = rng.randint(1, max_n)
    masks = {rng.getrandbits(n) for _ in range(rng.randint(1, 6))}
    return SubsetPoset.from_masks(n, intersection_closure(masks))


def interval_chains(p: SubsetPoset, i: int, j: int) -> int:
    """Chains of the open interval (e_i, e_j), the empty one included, by enumeration."""
    lo, hi = p.elements[i].bits, p.elements[j].bits
    interior = sum(
        1 << x
        for x, e in enumerate(p.elements)
        if lo & e.bits == lo and e.bits & hi == e.bits and e.bits not in (lo, hi)
    )
    return sum(1 for _ in p.chain_masks(interior))


def random_complex(rng: random.Random, max_n: int = 6) -> SimplicialComplex:
    nv = rng.randint(1, max_n)
    facets = {rng.getrandbits(nv) for _ in range(rng.randint(1, 5))}
    return SimplicialComplex.from_facets(nv, facets)


def random_class(
    rng: random.Random, max_n: int = 5, max_size: int = 8
) -> FunctionClass:
    n = rng.randint(1, max_n)
    size = rng.randint(1, min(1 << n, max_size))
    return FunctionClass.from_masks(n, rng.sample(range(1 << n), size))


def reference_crosscut_faces(verts, bounds, interior, limit):
    """Flat list of the crosscut faces, as ``_crosscut_faces`` lists them by dimension."""
    faces = [0]
    stack = [(0, interior, 0)]
    while stack:
        face, common, start = stack.pop()
        for k in range(start, len(verts)):
            narrowed = common & (bounds[verts[k]] | 1 << verts[k])
            if narrowed:
                faces.append(face | 1 << k)
                if len(faces) > limit:
                    return None
                stack.append((face | 1 << k, narrowed, k + 1))
    return faces


def reference_interval_complex(p: SubsetPoset, i: int, j: int, chains: int) -> SimplicialComplex:
    """The complex whose faces ``interval_homology`` takes, built as a ``SimplicialComplex``.

    Coatoms are found by scanning the interior for elements with nothing
    above them in it, not from the cover masks.
    """
    up, down = p._up_strict, p._down_strict
    if i == j:
        return SimplicialComplex.null()
    if not up[i] >> j & 1:
        raise ValidationError(f"interval endpoints must satisfy e_{i} < e_{j}")
    interior = up[i] & down[j]
    if not interior:
        return SimplicialComplex.empty()
    if p.is_intersection_closed():
        atoms = _bits(p._covers_up[i] & down[j])
        coatoms = [x for x in _bits(interior) if not up[x] & interior]
        verts, bounds = (atoms, up) if len(atoms) <= len(coatoms) else (coatoms, down)
        faces = reference_crosscut_faces(verts, bounds, interior, chains)
        if faces is not None:
            return SimplicialComplex.from_faces(len(verts), faces)
    return SimplicialComplex.from_faces(len(p), p.chain_masks(interior))


def frontier_closure(masks) -> set[int]:
    """Intersection closure by intersecting each new frontier with the closed set."""
    closed = set(masks)
    frontier = set(closed)
    while frontier:
        fresh: set[int] = set()
        for a in frontier:
            for b in closed:
                c = a & b
                if c not in closed and c not in fresh:
                    fresh.add(c)
        closed |= fresh
        frontier = fresh
    return closed


def label_degrees(n: int) -> list[SquarefreeMonomial]:
    """All 4^n squarefree degrees over the variables x(i,0), x(i,1), i in [n]."""
    return [
        SquarefreeMonomial(Subset(n, s0), Subset(n, s1))
        for s0 in range(1 << n)
        for s1 in range(1 << n)
    ]


class LabeledComplex(Value):
    """The order complex of a poset with faces labeled by monomials.

    A chain's label is m(min, max), the lcm of its vertex labels; the
    empty face is labeled 1.
    """

    _fields = ("poset", "complex", "labels")
    poset: SubsetPoset
    complex: SimplicialComplex
    labels: dict[int, SquarefreeMonomial]

    def __init__(
        self, poset: SubsetPoset, complex: SimplicialComplex, labels: dict[int, SquarefreeMonomial]
    ) -> None:
        self._assign(poset, complex, labels)


def cellular_resolution(p: SubsetPoset) -> LabeledComplex:
    """The labeled order complex that supports a free resolution of the dual ideal.

    ``label_acyclic`` of it is the numeric check of the theorem that
    ``check --acyclic`` answers from.
    """
    if not p.is_intersection_closed():
        raise ValidationError("cellular resolution requires an intersection-closed poset")
    k = order_complex(p)
    labels: dict[int, SquarefreeMonomial] = {}
    for faces in k.faces_by_dim().values():
        for f in faces:
            if f == 0:
                labels[f] = SquarefreeMonomial(Subset.empty(p.n), Subset.empty(p.n))
            else:
                lo = (f & -f).bit_length() - 1
                hi = f.bit_length() - 1
                labels[f] = monomial(p.elements[lo], p.elements[hi])
    return LabeledComplex(poset=p, complex=k, labels=labels)


def label_acyclic(labeled: LabeledComplex, field=GF2, exhaustive: bool = False) -> bool:
    """Acyclicity of a labeled order complex, one label-filtered face scan per degree.

    For each degree b, the nonempty faces whose label divides b must form
    a null complex or one with zero reduced homology.  The degrees are
    the realized labels, or with ``exhaustive`` all squarefree degrees.
    """
    nonempty = [(f, lab) for f, lab in labeled.labels.items() if f != 0]
    if exhaustive:
        degrees = label_degrees(labeled.poset.n)
    else:
        degrees = sorted(
            {lab for _, lab in nonempty},
            key=lambda m: (m.degree, m.support0.bits, m.support1.bits),
        )
    nv = labeled.complex.num_vertices
    for b in degrees:
        faces = [f for f, lab in nonempty if divides(lab, b)]
        if not faces:
            continue
        sub = SimplicialComplex.from_faces(nv, faces)
        if not reduced_homology(sub, field).is_zero:
            return False
    return True


def chars(s: Subset) -> str:
    return "".join("1" if i in s else "0" for i in range(s.n))


def reference_json_entries(table: BettiTable) -> list[dict]:
    """``render_json``'s entries through the set pair of each degree, one character at a time."""
    out = []
    for (i, m), v in table.entries.items():
        if (m.support0 | m.support1).bits == (1 << m.n) - 1:
            a, b = set_pair(m)
            degree = f"m({chars(a)},{chars(b)})"
        else:
            degree = str(m)
        key = (i, m.degree, m.support0.bits, m.support1.bits)
        out.append((key, {"i": i, "degree": degree, "value": v}))
    return [entry for _, entry in sorted(out, key=lambda kv: kv[0])]


def refuse_everywhere(monkeypatch, fn, replacement) -> None:
    """Replace every reference to ``fn`` that a loaded suboplex module holds."""
    for name, module in list(sys.modules.items()):
        if name == "suboplex" or name.startswith("suboplex."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, replacement)


def assert_value_type(cls, fields: dict, frozen: bool = True):
    """Check that ``cls`` behaves as a dataclass over ``fields``, in order.

    Keyword and positional construction agree and read the fields back;
    instances equal only instances of the same class (not a subclass, not
    the field tuple); ``hash`` is that of the field tuple, or raises
    ``TypeError`` where a field (or the class) is unhashable; ``repr`` is
    ``Name(field=value, ...)``; assignment raises ``AttributeError`` on a
    frozen class and goes through otherwise.  Returns the instance.
    """
    names, values = list(fields), tuple(fields.values())
    a, b = cls(**fields), cls(*values)
    assert a == b and not a != b
    assert [getattr(a, f) for f in names] == list(values)
    assert a != values and a.__eq__(values) is NotImplemented

    class Derived(cls):
        __slots__ = ()

    assert a != Derived(*values)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    try:
        expected = hash(values)
    except TypeError:
        expected = None
    if expected is None or cls.__hash__ is None:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == expected
    inner = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(a) == f"{cls.__qualname__}({inner})"
    if frozen:
        for f in names:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(a, f))
    else:
        setattr(b, names[0], values[0])
        assert a == b
    return a
