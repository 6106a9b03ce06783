"""JSON loaders and dumpers for posets, classes, complexes, and build specs.

Schemas:

* poset:   {"n": 4, "elements": ["0000", "1000", ...]}
* class:   {"n": 4, "functions": ["0000", "1000", ...]}
* complex: {"vertices": 5, "facets": [[0, 1, 2], [2, 3, 4]]}
* matroid: {"type": "uniform", "k": 2, "m": 3}
           {"type": "linear", "p": 2, "matrix": [[...], ...]}
           {"type": "graphic", "vertices": 4, "edges": [[0, 1], ...]}
           {"type": "direct_sum", "parts": [...]}
* cells:   {"vertices": 5, "faces": [[0, 1, 2], ...]}
* formula: {"type": "kcnf", "d": 3, "k": 2, "monotone": true}
           {"type": "csp", "d": 3, "generators": ["01010101", ...]}
           {"type": "parity_conj", "d": 2}
           {"type": "poly_conj", "d": 2, "k": 1}

Bit strings follow the membership convention: character i is the value
at ground element i.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .bitsets import Subset, _bits, is_int
from .errors import CapExceededError, ValidationError
from .posets import SubsetPoset

if TYPE_CHECKING:
    from .builders.cells import CellComplexInput
    from .builders.formulas import FormulaClassSpec
    from .builders.matroids import Matroid
    from .classes import FunctionClass
    from .complexes import SimplicialComplex

# A facet's mask is as wide as its largest vertex + 1, so the masks' summed
# width is capped before any is built: 16 MiB, a few times that while read.
COMPLEX_MAX_MASK_BITS = 1 << 27


def _require(data: Any, key: str, what: str, kind: type = object) -> Any:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} document must be a JSON object")
    if key not in data:
        raise ValidationError(f"{what} document is missing the {key!r} field")
    if not (is_int(data[key]) if kind is int else isinstance(data[key], kind)):
        raise ValidationError(f"{what} field {key!r} must be {kind.__name__}, got {data[key]!r}")
    return data[key]


def _bit_strings(strings: Any, n: int, what: str) -> list[Subset]:
    if not isinstance(strings, list) or not strings:
        raise ValidationError(f"{what} must be a nonempty list of bit strings")
    out = []
    for s in strings:
        if not isinstance(s, str):
            raise ValidationError(f"{what} entries must be strings, got {s!r}")
        member = Subset.from_string(s)
        if member.n != n:
            raise ValidationError(
                f"{what} entry {s!r} has width {member.n}, inconsistent with n = {n}"
            )
        out.append(member)
    return out


def poset_from_json(data: Any) -> SubsetPoset:
    n = _require(data, "n", "poset", int)
    elements = _bit_strings(_require(data, "elements", "poset"), n, "poset elements")
    return SubsetPoset(n, elements)


def poset_to_json(p: SubsetPoset) -> dict:
    return {"n": p.n, "elements": [e.to_string() for e in p.elements]}


def class_from_json(data: Any) -> FunctionClass:
    from .classes import FunctionClass

    n = _require(data, "n", "class", int)
    members = _bit_strings(_require(data, "functions", "class"), n, "class functions")
    return FunctionClass(n, members)


def class_to_json(c: FunctionClass) -> dict:
    return {"n": c.n, "functions": [m.to_string() for m in c.members]}


def complex_from_json(data: Any) -> SimplicialComplex:
    from .complexes import SimplicialComplex

    nv = _require(data, "vertices", "complex", int)
    facets = _require(data, "facets", "complex", list)
    if nv < 0:
        raise ValidationError(f"complex vertex count must be a nonnegative integer, got {nv!r}")
    width = 0
    for face in facets:
        if not isinstance(face, list):
            raise ValidationError(f"complex facet {face!r} must be a vertex list")
        for v in face:
            if not is_int(v) or not 0 <= v < nv:
                raise ValidationError(f"facet vertex {v!r} out of range({nv})")
        width += max(face, default=-1) + 1
    if width > COMPLEX_MAX_MASK_BITS:
        raise CapExceededError(
            f"complex input is capped at {COMPLEX_MAX_MASK_BITS} facet mask bits "
            f"(largest vertex + 1, summed over the facets), got {width}"
        )
    return SimplicialComplex.from_facets(nv, [_mask(face) for face in facets])


def _mask(face: list[int]) -> int:
    """The mask of a vertex list, in time linear in its width and length."""
    data = bytearray(max(face, default=-1) // 8 + 1)
    for v in face:
        data[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(data, "little")


def complex_to_json(k: SimplicialComplex) -> dict:
    return {
        "vertices": k.num_vertices,
        "facets": [_bits(f) for f in k.facets],
    }


def matroid_from_json(data: Any) -> Matroid:
    from .builders.matroids import DirectSumMatroid, GraphicMatroid, LinearMatroid, UniformMatroid

    kind = _require(data, "type", "matroid")
    if kind == "uniform":
        k = _require(data, "k", "uniform matroid", int)
        return UniformMatroid(k, _require(data, "m", "uniform matroid", int))
    if kind == "linear":
        p = _require(data, "p", "linear matroid", int)
        rows = _require(data, "matrix", "linear matroid", list)
        if not all(isinstance(r, list) and all(is_int(x) for x in r) for r in rows):
            raise ValidationError("linear matroid matrix must be a list of integer rows")
        return LinearMatroid.from_rows(p, rows)
    if kind == "graphic":
        nv = _require(data, "vertices", "graphic matroid", int)
        edges = _require(data, "edges", "graphic matroid", list)
        pairs = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(is_int(v) for v in e)):
                raise ValidationError(f"graphic matroid edge {e!r} must be a pair of vertices")
            pairs.append((e[0], e[1]))
        return GraphicMatroid(nv, pairs)
    if kind == "direct_sum":
        parts = _require(data, "parts", "direct sum matroid")
        if not isinstance(parts, list) or not parts:
            raise ValidationError("direct sum needs a nonempty list of parts")
        return DirectSumMatroid([matroid_from_json(p) for p in parts])
    raise ValidationError(f"unknown matroid type {kind!r}")


def cells_from_json(data: Any) -> CellComplexInput:
    from .builders.cells import CellComplexInput

    nv = _require(data, "vertices", "cell complex", int)
    faces = _require(data, "faces", "cell complex", list)
    if not all(isinstance(face, list) for face in faces):
        raise ValidationError("cell complex faces must be vertex lists")
    return CellComplexInput.from_vertex_lists(nv, faces)


def formula_from_json(data: Any) -> FormulaClassSpec:
    from .builders.formulas import FormulaClassSpec, csp_ground

    kind = _require(data, "type", "formula spec")
    d = _require(data, "d", "formula spec", int)
    if kind == "kcnf":
        monotone = "monotone" in data and _require(data, "monotone", "kcnf spec", bool)
        variant = "monotone_kcnf" if monotone else "kcnf"
        return FormulaClassSpec(variant, d, k=_require(data, "k", "kcnf spec", int))
    if kind == "monotone_kcnf":
        return FormulaClassSpec("monotone_kcnf", d, k=_require(data, "k", "kcnf spec", int))
    if kind == "csp":
        if d < 1:
            raise ValidationError(f"csp spec needs a positive integer d, got {d!r}")
        n = csp_ground(d)
        raw = _require(data, "generators", "csp spec")
        gens = tuple(s.bits for s in _bit_strings(raw, n, "csp generators"))
        return FormulaClassSpec("csp", d, generators=gens)
    if kind == "parity_conj":
        return FormulaClassSpec("parity_conj", d)
    if kind == "poly_conj":
        return FormulaClassSpec("poly_conj", d, k=_require(data, "k", "poly_conj spec", int))
    raise ValidationError(f"unknown formula type {kind!r}")
