"""Command-line front end.

Verbs: vcdim, hdim, betti, mobius, extentures, shatter, check, build,
oracle.  Inputs come from a JSON file (--input) or an inline build spec
(--build KIND:JSON with KIND one of poset, class, matroid, cube, cells,
formula, complex).  --field takes a prime or Q and defaults to 2.
Output is deterministic for fixed input and flags.

``betti`` picks its path from the input: the interval sweep on
intersection-closed posets and classes, the brute-force oracle
otherwise.  ``betti --method mobius`` reads Moebius values instead and
fails unless the poset is interval Cohen-Macaulay over the field.

Exit codes: 0 success, 1 validation or usage error, 2 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import io as sio
from .betti import (
    BettiTable,
    betti_via_intervals,
    betti_via_mobius,
    homological_dimension,
    verify_acyclic,
)
from .bitsets import Subset, _bits, is_int
from .builders import cube_complex, face_poset, formula_class
from .builders.formulas import VARIANTS
from .classes import (
    FunctionClass,
    class_from_poset,
    dual_ideal,
    extentures,
    is_shattered,
    shatter_complex,
    suboplex_ideal,
    vc_dimension,
    warn_if_degenerate,
)
from .complexes import SimplicialComplex, is_cohen_macaulay, is_interval_cm
from .errors import CapExceededError, ValidationError
from .linalg import FieldSpec
from .oracles import betti_oracle, regularity_oracle, vc_oracle
from .posets import SubsetPoset

BUILD_KINDS = ("poset", "class", "matroid", "cube", "cells", "formula", "complex")


_Input = SubsetPoset | FunctionClass | SimplicialComplex


def _as_class(loaded: _Input) -> FunctionClass:
    if isinstance(loaded, FunctionClass):
        return loaded
    if isinstance(loaded, SubsetPoset):
        return class_from_poset(loaded)
    raise ValidationError("this command needs a function class or poset input")


def _as_poset(loaded: _Input) -> SubsetPoset:
    if isinstance(loaded, SubsetPoset):
        return loaded
    if isinstance(loaded, FunctionClass):
        return loaded.support_poset()
    raise ValidationError("this command needs a poset or function class input")


def _parse_json(text: str, origin: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed JSON in {origin}: {e}") from None


def _load_document(kind: str, data: Any) -> _Input:
    if kind == "poset":
        return sio.poset_from_json(data)
    if kind == "class":
        c = sio.class_from_json(data)
        warn_if_degenerate(c)
        return c
    if kind == "matroid":
        return sio.matroid_from_json(data).flats()
    if kind == "cube":
        d = data.get("d") if isinstance(data, dict) else None
        if not is_int(d):
            raise ValidationError('cube spec must look like {"d": 2}')
        return cube_complex(d)
    if kind == "cells":
        return face_poset(sio.cells_from_json(data))
    if kind == "formula":
        return formula_class(sio.formula_from_json(data))[1]
    if kind == "complex":
        return sio.complex_from_json(data)
    raise ValidationError(f"unknown build kind {kind!r}; expected one of {BUILD_KINDS}")


def _infer_kind(data: Any) -> str:
    if not isinstance(data, dict):
        raise ValidationError("input document must be a JSON object")
    if "elements" in data:
        return "poset"
    if "functions" in data:
        return "class"
    if "facets" in data:
        return "complex"
    if "faces" in data:
        return "cells"
    if "type" in data:
        return "formula" if data["type"] in VARIANTS else "matroid"
    if "d" in data:
        return "cube"
    raise ValidationError("cannot infer input kind from the document's fields")


def _load_input(args: argparse.Namespace) -> _Input:
    if bool(args.input) == bool(args.build):
        raise ValidationError("exactly one of --input or --build is required")
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValidationError(f"cannot read input file: {e}") from None
        data = _parse_json(text, args.input)
        return _load_document(_infer_kind(data), data)
    spec = args.build
    kind, sep, payload = spec.partition(":")
    if not sep:
        raise ValidationError("--build expects KIND:JSON")
    return _load_document(kind.strip(), _parse_json(payload, "--build spec"))


def _render_betti(table: BettiTable, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"entries": table.json_entries()})
    return table.render()


def _betti_table(loaded: _Input, args: argparse.Namespace) -> BettiTable:
    field = FieldSpec.parse(args.field)
    if args.method == "mobius":
        return betti_via_mobius(_as_poset(loaded), field)
    # a class answers from its own masks, so a non-closed one builds no poset
    source = loaded if isinstance(loaded, SubsetPoset) else _as_class(loaded)
    if source.is_intersection_closed():
        return betti_via_intervals(_as_poset(source), field)
    return betti_oracle(dual_ideal(_as_class(source)), field)


def _parse_index_set(text: str, n: int) -> Subset:
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"--set expects comma-separated indices, got {text!r}") from None
    return Subset.from_indices(n, indices)


def _cmd_vcdim(args) -> int:
    print(vc_dimension(_as_class(_load_input(args))))
    return 0


def _cmd_hdim(args) -> int:
    print(homological_dimension(_as_class(_load_input(args)), FieldSpec.parse(args.field)))
    return 0


def _cmd_betti(args) -> int:
    loaded = _load_input(args)
    print(_render_betti(_betti_table(loaded, args), args.format))
    return 0


def _cmd_mobius(args) -> int:
    poset = _as_poset(_load_input(args))
    if args.all:
        names = [str(e) for e in poset.elements]
        lines = []
        for i, a in enumerate(names):
            lines.append(f"{a} {a} 1\n")
            lines.extend(f"{a} {names[j]} {mu}\n" for j, _, _, mu, _ in poset.intervals_above(i))
        sys.stdout.write("".join(lines))
        return 0
    bottom, top = poset.bottom(), poset.top()
    if bottom is None or top is None:
        raise ValidationError("poset is not bounded; use --all for the full table")
    print(poset.mobius(bottom, top))
    return 0


def _cmd_extentures(args) -> int:
    for f in extentures(_as_class(_load_input(args))):
        print(f.pattern())
    return 0


def _cmd_shatter(args) -> int:
    cls = _as_class(_load_input(args))
    if args.set is not None:
        u = _parse_index_set(args.set, cls.n)
        print("yes" if is_shattered(cls, u) else "no")
        return 0
    complex_ = shatter_complex(cls)
    facets = sorted(_bits(f) for f in complex_.facets)
    print(json.dumps({"vc_dimension": complex_.dim + 1, "facets": facets}))
    return 0


def _cmd_check(args) -> int:
    loaded = _load_input(args)
    field = FieldSpec.parse(args.field)
    results: list[tuple[str, bool]] = []
    if isinstance(loaded, SimplicialComplex):
        if not args.cm or args.intersection_closed or args.acyclic or args.interval_cm:
            raise ValidationError("complex inputs support only the --cm check")
        results.append(("CM", is_cohen_macaulay(loaded, field)))
    else:
        if args.intersection_closed:
            # a class answers from its own masks, so this alone builds no poset
            results.append(("intersection-closed", loaded.is_intersection_closed()))
        if args.acyclic:
            results.append(("acyclic", verify_acyclic(_as_poset(loaded), field, args.exhaustive)))
        if args.interval_cm or args.cm:
            # The order complex of a poset is CM iff its bounded copy is
            # interval-CM; a bounded poset is its own bounded copy.
            poset = _as_poset(loaded)
            bounded = poset.bounded()
            cm = None
            if args.interval_cm:
                cm = is_interval_cm(poset, field)
                results.append(("interval-CM", cm))
            if cm is None or bounded is not poset:
                cm = is_interval_cm(bounded, field)
            results.append(("CM", cm))
    if not results:
        raise ValidationError(
            "check needs at least one of --intersection-closed, --acyclic, "
            "--interval-cm, --cm"
        )
    print("; ".join(f"{name}: {'yes' if ok else 'no'}" for name, ok in results))
    return 0


def _cmd_build(args) -> int:
    loaded = _load_input(args)
    target = args.as_
    if target is None:
        target = "class" if isinstance(loaded, FunctionClass) else "poset"
    if target == "poset":
        print(json.dumps(sio.poset_to_json(_as_poset(loaded))))
    elif target == "class":
        print(json.dumps(sio.class_to_json(_as_class(loaded))))
    else:
        if not isinstance(loaded, SimplicialComplex):
            raise ValidationError("this command needs a simplicial complex input")
        print(json.dumps(sio.complex_to_json(loaded)))
    return 0


def _cmd_oracle(args) -> int:
    loaded = _load_input(args)
    field = FieldSpec.parse(args.field)
    cls = _as_class(loaded)
    if args.what == "betti":
        print(_render_betti(betti_oracle(dual_ideal(cls), field), args.format))
    elif args.what == "reg":
        print(regularity_oracle(suboplex_ideal(cls), field))
    else:
        print(vc_oracle(cls))
    return 0


def _add_io_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="path to a JSON input document")
    sub.add_argument("--build", help="inline build spec KIND:JSON")
    sub.add_argument(
        "--field", default="2", help="coefficient field: a prime or Q (default 2)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suboplex",
        description="Exact invariants of Boolean function classes",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("vcdim", help="VC dimension of a class")
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_vcdim)

    p = subs.add_parser("hdim", help="homological dimension of a class")
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_hdim)

    p = subs.add_parser("betti", help="Betti table of the dual ideal")
    _add_io_arguments(p)
    p.add_argument("--format", choices=["m2", "json"], default="m2")
    p.add_argument(
        "--method",
        choices=["mobius"],
        help="Betti numbers from Moebius values; the poset must be interval-CM",
    )
    p.set_defaults(func=_cmd_betti)

    p = subs.add_parser("mobius", help="Moebius values of a poset")
    _add_io_arguments(p)
    p.add_argument("--all", action="store_true", help="list mu for all comparable pairs")
    p.set_defaults(func=_cmd_mobius)

    p = subs.add_parser("extentures", help="minimal non-extendable partial functions")
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_extentures)

    p = subs.add_parser("shatter", help="shattered sets of a class")
    _add_io_arguments(p)
    p.add_argument("--set", help="comma-separated indices to test")
    p.set_defaults(func=_cmd_shatter)

    p = subs.add_parser("check", help="structural checks on a poset or complex")
    _add_io_arguments(p)
    p.add_argument("--intersection-closed", action="store_true", dest="intersection_closed")
    p.add_argument("--acyclic", action="store_true")
    p.add_argument("--exhaustive", action="store_true", help="acyclicity over all degrees")
    p.add_argument("--interval-cm", action="store_true", dest="interval_cm")
    p.add_argument("--cm", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("build", help="materialize an input as canonical JSON")
    _add_io_arguments(p)
    p.add_argument("--as", dest="as_", choices=["poset", "class", "complex"])
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("oracle", help="brute-force verifiers")
    p.add_argument("what", choices=["betti", "reg", "vcdim"])
    _add_io_arguments(p)
    p.add_argument("--format", choices=["m2", "json"], default="m2")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if e.code else 0
    try:
        return args.func(args)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
