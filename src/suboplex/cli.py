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

The command line is read against one table, ``VERBS``: each verb's
command, help line, positional (only ``oracle`` has one) and options,
with --input, --build and --field shared.  The grammar is argparse's:
``--opt value`` or ``--opt=value``, any unique prefix of a long option,
the last of a repeated option winning, the positional anywhere, and
``--`` ending the options.  Help (-h, --help) comes from the same table.
The parser is a few dozen lines because importing and building argparse
took about 10 ms of every call.

Exit codes: 0 success, 1 validation or usage error, 2 size cap exceeded.

``main`` returns its exit code and never ends the process, so a caller
in the same interpreter (the tests, the benchmark's tracer, which writes
its spans after ``main`` returns) keeps control.  The process entry is
``run``, for ``python -m suboplex.cli`` and the installed ``suboplex``
script alike: it flushes stdout and stderr and leaves by ``os._exit``,
skipping the interpreter's teardown (the final collection and module
clearing), which took longer than many calls' own work.  A closed stdout
pipe ends the call with exit 1 and no traceback; any other uncaught
exception leaves through the interpreter as usual, traceback and exit 1.

The commands reach the package's functions as attributes of their
modules, read at call time, so a call runs only the modules its verb
and input use (the package docstring says how), and a wrapper set on a
module attribute (the tracer's) is the one called.
"""

from __future__ import annotations

import json
import os
import sys
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Any, Container, NoReturn

from . import betti, builders, classes, complexes, homology, linalg, oracles, posets, shattering
from . import io as sio
from .bitsets import Subset, _bits, is_int
from .errors import CapExceededError, ValidationError

if TYPE_CHECKING:
    _Input = posets.SubsetPoset | classes.FunctionClass | complexes.SimplicialComplex

BUILD_KINDS = ("poset", "class", "matroid", "cube", "cells", "formula", "complex")


def _is(loaded: _Input, module: ModuleType, cls: str) -> bool:
    """``isinstance(loaded, module.<cls>)``, leaving a lazy ``module`` unrun.

    A lazy module's type turns into ``ModuleType`` when it runs, and no
    instance of its classes exists before that.
    """
    return type(module) is ModuleType and isinstance(loaded, getattr(module, cls))


def _as_class(loaded: _Input) -> classes.FunctionClass:
    if _is(loaded, classes, "FunctionClass"):
        return loaded
    if isinstance(loaded, posets.SubsetPoset):
        return classes.class_from_poset(loaded)
    raise ValidationError("this command needs a function class or poset input")


def _as_poset(loaded: _Input) -> posets.SubsetPoset:
    if isinstance(loaded, posets.SubsetPoset):
        return loaded
    if _is(loaded, classes, "FunctionClass"):
        return loaded.support_poset()
    raise ValidationError("this command needs a poset or function class input")


def _parse_json(text: str, origin: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValidationError(f"malformed JSON in {origin}: {e}") from None


def _load_document(kind: str, data: Any) -> _Input:
    if kind == "poset":
        return sio.poset_from_json(data)
    if kind == "class":
        from .classes import warn_if_degenerate  # the warning quotes the line below

        c = sio.class_from_json(data)
        warn_if_degenerate(c)
        return c
    if kind == "matroid":
        return sio.matroid_from_json(data).flats()
    if kind == "cube":
        d = data.get("d") if isinstance(data, dict) else None
        if not is_int(d):
            raise ValidationError('cube spec must look like {"d": 2}')
        return builders.cube_complex(d)
    if kind == "cells":
        return builders.face_poset(sio.cells_from_json(data))
    if kind == "formula":
        return builders.formulas.formula_poset(sio.formula_from_json(data))
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
        return "formula" if data["type"] in builders.formulas.VARIANTS else "matroid"
    if "d" in data:
        return "cube"
    raise ValidationError("cannot infer input kind from the document's fields")


def _load_input(args: SimpleNamespace) -> _Input:
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


def _render_betti(table: betti.BettiTable, fmt: str) -> str:
    return table.render_json() if fmt == "json" else table.render()


def _as_source(loaded: _Input) -> posets.SubsetPoset | classes.FunctionClass:
    """A poset as it is, any other input as a class: what ``vcdim``, ``shatter``,
    ``hdim`` and ``betti`` take."""
    return loaded if isinstance(loaded, posets.SubsetPoset) else _as_class(loaded)


def _betti_table(loaded: _Input, args: SimpleNamespace) -> betti.BettiTable:
    field = linalg.FieldSpec.parse(args.field)
    if args.method == "mobius":
        return betti.betti_via_mobius(_as_poset(loaded), field)
    # a class answers from its own masks, so a non-closed one builds no poset
    source = _as_source(loaded)
    if source.is_intersection_closed():
        return betti.betti_via_intervals(_as_poset(source), field)
    return oracles.betti_oracle(classes.dual_ideal(_as_class(source)), field)


def _parse_index_set(text: str, n: int) -> Subset:
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"--set expects comma-separated indices, got {text!r}") from None
    return Subset.from_indices(n, indices)


def _cmd_vcdim(args) -> int:
    print(shattering.vc_dimension(_as_source(_load_input(args))))
    return 0


def _cmd_hdim(args) -> int:
    source = _as_source(_load_input(args))
    print(betti.homological_dimension(source, linalg.FieldSpec.parse(args.field)))
    return 0


def _cmd_betti(args) -> int:
    loaded = _load_input(args)
    print(_render_betti(_betti_table(loaded, args), args.format))
    return 0


def _cmd_mobius(args) -> int:
    poset = _as_poset(_load_input(args))
    if args.all:
        names = [str(e) for e in poset.elements]
        for i, row in poset.mobius_rows():
            a = names[i]
            rows = "".join([f"{a} {names[j]} {mu}\n" for j, mu in row])
            sys.stdout.write(f"{a} {a} 1\n{rows}")
        return 0
    bottom, top = poset.bottom(), poset.top()
    if bottom is None or top is None:
        raise ValidationError("poset is not bounded; use --all for the full table")
    print(poset.mobius(bottom, top))
    return 0


def _cmd_extentures(args) -> int:
    for f in classes.extentures(_as_class(_load_input(args))):
        print(f.pattern())
    return 0


def _cmd_shatter(args) -> int:
    source = _as_source(_load_input(args))
    if args.set is not None:
        u = _parse_index_set(args.set, source.n)
        print("yes" if classes.is_shattered(source, u) else "no")
        return 0
    complex_ = classes.shatter_complex(source)
    facets = sorted(_bits(f) for f in complex_.facets)
    print(json.dumps({"vc_dimension": complex_.dim + 1, "facets": facets}))
    return 0


def _cmd_check(args) -> int:
    loaded = _load_input(args)
    field = linalg.FieldSpec.parse(args.field)
    results: list[tuple[str, bool]] = []
    if _is(loaded, complexes, "SimplicialComplex"):
        if not args.cm or args.intersection_closed or args.acyclic or args.interval_cm:
            raise ValidationError("complex inputs support only the --cm check")
        results.append(("CM", complexes.is_cohen_macaulay(loaded, field)))
    else:
        if args.intersection_closed:
            # a class answers from its own masks, so this alone builds no poset
            results.append(("intersection-closed", loaded.is_intersection_closed()))
        if args.acyclic:
            # The labeled order complex of an intersection-closed poset is
            # acyclic in every degree: each degree's subcomplex is a cone
            # (the proof is in the ``betti`` module docstring).
            if not loaded.is_intersection_closed():
                raise ValidationError("cellular resolution requires an intersection-closed poset")
            results.append(("acyclic", True))
        if args.interval_cm or args.cm:
            # The order complex of a poset is CM iff its bounded copy is
            # interval-CM; a bounded poset is its own bounded copy.
            poset = _as_poset(loaded)
            bounded = poset.bounded()
            cm = None
            if args.interval_cm:
                cm = homology.is_interval_cm(poset, field)
                results.append(("interval-CM", cm))
            if cm is None or bounded is not poset:
                cm = homology.is_interval_cm(bounded, field)
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
        target = "class" if _is(loaded, classes, "FunctionClass") else "poset"
    if target == "poset":
        print(json.dumps(sio.poset_to_json(_as_poset(loaded))))
    elif target == "class":
        print(json.dumps(sio.class_to_json(_as_class(loaded))))
    else:
        if not _is(loaded, complexes, "SimplicialComplex"):
            raise ValidationError("this command needs a simplicial complex input")
        print(json.dumps(sio.complex_to_json(loaded)))
    return 0


def _cmd_oracle(args) -> int:
    loaded = _load_input(args)
    field = linalg.FieldSpec.parse(args.field)
    cls = _as_class(loaded)
    if args.what == "betti":
        print(_render_betti(oracles.betti_oracle(classes.dual_ideal(cls), field), args.format))
    elif args.what == "reg":
        print(oracles.regularity_oracle(classes.suboplex_ideal(cls), field))
    else:
        print(oracles.vc_oracle(cls))
    return 0


# The verb table: verb -> (command, help line, positional, options).  The
# one positional is (attribute, choices, help).  An option maps its attribute
# (``--as`` is stored as ``as_``) to (default, choices, help): choices
# None takes any value, and a False default marks a store-true flag.
_IO = {
    "input": (None, None, "path to a JSON input document"),
    "build": (None, None, "inline build spec KIND:JSON"),
    "field": ("2", None, "coefficient field: a prime or Q (default 2)"),
}
_FORMAT = {"format": ("m2", ("m2", "json"), "output format")}
VERBS: dict[str, tuple] = {
    "vcdim": (_cmd_vcdim, "VC dimension of a class", None, {}),
    "hdim": (_cmd_hdim, "homological dimension of a class", None, {}),
    "betti": (_cmd_betti, "Betti table of the dual ideal", None, {**_FORMAT, "method": (
        None, ("mobius",), "Betti numbers from Moebius values; the poset must be interval-CM")}),
    "mobius": (_cmd_mobius, "Moebius values of a poset", None,
               {"all": (False, None, "list mu for all comparable pairs")}),
    "extentures": (_cmd_extentures, "minimal non-extendable partial functions", None, {}),
    "shatter": (_cmd_shatter, "shattered sets of a class", None,
                {"set": (None, None, "comma-separated indices to test")}),
    "check": (_cmd_check, "structural checks on a poset or complex", None, {
        "intersection_closed": (False, None, "is the family closed under intersection"),
        "acyclic": (False, None, "is the cellular resolution acyclic"),
        "interval_cm": (False, None, "is every interval Cohen-Macaulay (prints CM too)"),
        "cm": (False, None, "is the order complex or the complex Cohen-Macaulay"),
    }),
    "build": (_cmd_build, "materialize an input as canonical JSON", None,
              {"as_": (None, ("poset", "class", "complex"), "the kind to write")}),
    "oracle": (_cmd_oracle, "brute-force verifiers", (
        "what", ("betti", "reg", "vcdim"), "the invariant to compute by brute force"), _FORMAT),
}


def _flag(attr: str) -> str:
    return "--" + attr.rstrip("_").replace("_", "-")


def _metavar(attr: str, default: Any, choices: tuple[str, ...] | None) -> str:
    if default is False:
        return ""
    return " {" + ",".join(choices) + "}" if choices else " " + attr.upper()


def _usage(verb: str | None) -> str:
    if verb is None:
        return "usage: suboplex [-h] {" + ",".join(VERBS) + "} ..."
    _, _, positional, options = VERBS[verb]
    parts = [f"[{_flag(a)}{_metavar(a, d, c)}]" for a, (d, c, _) in {**_IO, **options}.items()]
    if positional:
        parts.append("{" + ",".join(positional[1]) + "}")
    return f"usage: suboplex {verb} [-h] " + " ".join(parts)


def _help(verb: str | None) -> str:
    if verb is None:
        rows = [(v, spec[1]) for v, spec in VERBS.items()]
        about, heading = "Exact invariants of Boolean function classes", "verbs:"
    else:
        _, about, positional, options = VERBS[verb]
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(_flag(a) + _metavar(a, d, c), text) for a, (d, c, text) in {**_IO, **options}.items()]
        if positional:
            rows.append(("{" + ",".join(positional[1]) + "}", positional[2]))
        heading = "options:"
    return "\n".join([_usage(verb), "", about, "", heading, *(f"  {a:<26}{b}" for a, b in rows)])


def _fail(verb: str | None, message: str) -> NoReturn:
    print(_usage(verb), file=sys.stderr)
    print(f"suboplex{' ' + verb if verb else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _choose(verb: str | None, name: str, value: str, choices: tuple[str, ...] | None) -> str:
    if choices is not None and value not in choices:
        options = ", ".join(map(repr, choices))
        _fail(verb, f"argument {name}: invalid choice: {value!r} (choose from {options})")
    return value


def _kind(verb: str | None, arg: str, flags: Container[str]) -> Any:
    """``"--"``; None for a positional; else (flag or None if unknown, value after ``=``).

    A long option may be any unique prefix of a flag.  A dash followed by
    a number, or an unknown option with a space in it, is a positional.
    """
    if arg == "--" or arg[:1] != "-" or arg == "-":
        return arg if arg == "--" else None
    if arg[1] != "-":
        if arg[1] == "h":  # -hh... asks for help twice; -hx gives -h the value x
            return "-h", None if arg.strip("h") == "-" else arg[2:]
        head, dot, tail = arg[1:].partition(".")
        if (head.isdecimal() or not head) and (tail.isdecimal() or not dot) and head + tail:
            return None
        return None if " " in arg else (None, None)
    name, eq, value = arg.partition("=")
    matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
    if len(matches) > 1:
        _fail(verb, f"ambiguous option: {name} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return None if " " in arg else (None, None)


def _parse_verb(verb: str, argv: list[str]) -> SimpleNamespace:
    func, _, positional, options = VERBS[verb]
    table = {**_IO, **options}
    flags = {"-h": None, "--help": None, **{_flag(a): a for a in table}}
    # Classify every argument first, so an ambiguous prefix fails before
    # anything is taken; everything after "--" is a positional.
    kinds: list[Any] = []
    for arg in argv:
        kinds.append(None if "--" in kinds else _kind(verb, arg, flags))
    values = {"verb": verb, "func": func, **{a: spec[0] for a, spec in table.items()}}
    extras, after, i = [], -1, 0  # after: the index just past the positional
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind == "--":  # dropped before the positional or right after it
            if not positional or positional[0] in values and after != i - 1:
                extras.append(arg)
        elif kind is None:
            if positional and positional[0] not in values:
                values[positional[0]] = _choose(verb, positional[0], arg, positional[1])
                after = i
            else:
                extras.append(arg)
        elif kind[0] is None:
            extras.append(arg)
        else:
            name, value = kind
            attr = flags[name]
            if attr is not None and table[attr][0] is not False:  # takes a value
                if value is None:
                    if i == len(argv) or kinds[i] is not None:
                        _fail(verb, f"argument {name}: expected one argument")
                    value, i = argv[i], i + 1
                values[attr] = _choose(verb, name, value, table[attr][1])
            elif value is not None:
                shown = "-h/--help" if attr is None else name
                _fail(verb, f"argument {shown}: ignored explicit argument {value!r}")
            elif attr is None:
                print(_help(verb))
                raise SystemExit(0)
            else:
                values[attr] = True
    if positional and positional[0] not in values:
        _fail(verb, f"the following arguments are required: {positional[0]}")
    if extras:
        _fail(verb, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The verb's attributes, with defaults filled in, by the table ``VERBS``.

    Help exits 0 and a usage error exits 1, each through ``SystemExit``.
    Everything up to the verb may only be a request for help.
    """
    extras = []
    for i, arg in enumerate(argv):
        kind = _kind(None, arg, ("-h", "--help"))
        if kind is None or kind == "--":
            ns = _parse_verb(_choose(None, "verb", arg, tuple(VERBS)), argv[i + 1 :])
            if extras:
                _fail(None, "unrecognized arguments: " + " ".join(extras))
            return ns
        name, value = kind
        if name is None:
            extras.append(arg)
        elif value is not None:
            _fail(None, f"argument -h/--help: ignored explicit argument {value!r}")
        else:
            print(_help(None))
            raise SystemExit(0)
    _fail(None, "the following arguments are required: verb")


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:  # after help (0) or a usage error (1)
        return e.code
    try:
        return args.func(args)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry: ``main`` on ``sys.argv``, then flush and end the process."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader went away; what it did not take is dropped
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
