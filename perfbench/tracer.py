"""Run one suboplex CLI call with spans around each layer's public functions.

Usage: python perfbench/tracer.py SPANS_JSON CLI_ARG...

This runs in its own capped child, never in the benchmark process.
Wrappers are installed wherever callers look a name up: every
``suboplex`` module holding a reference to a traced function gets the
wrapper, and methods are replaced on their class.  A traced name that
no longer exists is skipped and reported as not installed, so its
metrics are absent rather than the run failing.  Spans (name, start,
end, parent) are kept in memory and written to SPANS_JSON when the call
ends, also when it raises.  The CLI's stdout is left untouched.
"""

import sys
import time

_perf = time.perf_counter
T_START = _perf()

import importlib.machinery  # noqa: E402

LARGE_CELLS = 1 << 21  # the dense-elimination switch in linalg at the seed


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.installed: set[str] = set()
        self.chain_counters: list = []  # one itertools.count per chain_masks call

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _perf()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = _perf()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        spans = self.spans
        return any(spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span named ``name``; ``after`` sees args, result, seconds."""
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(args, result, rec[2] - rec[1])
            return result

        return traced


class TimedImport:
    """Meta-path finder that puts a span around one top-level module import."""

    def __init__(self, tracer: Tracer, module: str, span: str) -> None:
        self.tracer, self.module, self.span = tracer, module, span

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.module:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer, span = self.tracer, self.span
        tracer.installed.add(span)

        def timed_exec(module):
            rec = tracer.open(span)
            try:
                exec_module(module)
            finally:
                tracer.close(rec)

        spec.loader.exec_module = timed_exec
        return spec


def _package_modules():
    return [m for k, m in list(sys.modules.items()) if k == "suboplex" or k.startswith("suboplex.")]


def patch_function(tracer, module, attr, name, make, only_in=None):
    """Replace every reference to ``module.attr`` held by a suboplex module."""
    orig = getattr(sys.modules.get(module), attr, None)
    if orig is None:
        return
    wrapped = make(orig)
    holders = [sys.modules[only_in]] if only_in else _package_modules()
    for mod in holders:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
    tracer.installed.add(name)


def patch_method(tracer, module, cls_name, attr, name, make):
    cls = getattr(sys.modules.get(module), cls_name, None)
    raw = None if cls is None else cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))
    tracer.installed.add(name)


def install(t: Tracer) -> None:
    def span(name, after=None):
        return lambda fn: t.wrap(name, fn, after)

    for attr in (
        "poset_from_json", "class_from_json", "complex_from_json",
        "matroid_from_json", "cells_from_json", "formula_from_json",
    ):
        patch_function(t, "suboplex.io", attr, "io.parse", span("io.parse"))

    patch_method(t, "suboplex.builders.matroids", "Matroid", "flats", "builders", span("builders"))
    for module, attr in (
        ("suboplex.builders.cells", "cube_complex"),
        ("suboplex.builders.cells", "face_poset"),
        ("suboplex.builders.formulas", "formula_class"),
    ):
        patch_function(t, module, attr, "builders", span("builders"))

    for attr, name in (
        ("__init__", "posets.init"),
        ("interval", "posets.interval"),
        ("rank", "posets.rank"),
        ("mobius", "posets.mobius"),
    ):
        patch_method(t, "suboplex.posets", "SubsetPoset", attr, name, span(name))

    def count_chains(fn):
        import itertools
        import operator

        def chain_masks(self):
            seen = itertools.count()
            t.chain_counters.append(seen)
            return map(operator.itemgetter(0), zip(fn(self), seen))

        return chain_masks

    patch_method(t, "suboplex.posets", "SubsetPoset", "chain_masks", "posets.chains", count_chains)

    def faces_after(args, k, seconds):
        size = len(k.face_set())
        t.count("complexes.faces", size)
        t.peak("complexes.max_faces", size)

    patch_function(t, "suboplex.complexes", "order_complex", "complexes.order_complex",
                   span("complexes.order_complex"))
    patch_method(t, "suboplex.complexes", "SimplicialComplex", "from_faces",
                 "complexes.from_faces", span("complexes.from_faces", faces_after))
    patch_method(t, "suboplex.complexes", "SimplicialComplex", "link", "complexes.link",
                 span("complexes.link"))
    patch_function(t, "suboplex.complexes", "reduced_homology", "complexes.homology",
                   span("complexes.homology"))
    patch_method(t, "suboplex.complexes", "ChainHomology", "boundary_rank",
                 "complexes.boundary", span("complexes.boundary"))

    def count_nonzero(fn):
        def betti(self, d):
            value = fn(self, d)
            if value and not self.__dict__.get("_traced_nonzero") and t.inside("betti.sweep"):
                self._traced_nonzero = True
                t.count("betti.intervals_nonzero")
            return value

        return betti

    patch_method(t, "suboplex.complexes", "ChainHomology", "betti", "betti.intervals_nonzero",
                 count_nonzero)

    def rank_span(fn):
        def rank_from_columns(columns, nrows, field, *rest, **kwargs):
            cells = len(columns) * nrows
            t.count("linalg.rank.calls")
            t.count("linalg.rank.cells", cells)
            t.count("linalg.rank.nnz", sum(map(len, columns)))
            t.peak("linalg.rank.max_cells", cells)
            name = "linalg.rank.gf2" if field.p == 2 else (
                "linalg.rank.q" if field.p is None else "linalg.rank.gfp")
            rec = t.open(name)
            try:
                return fn(columns, nrows, field, *rest, **kwargs)
            finally:
                t.close(rec)
                if cells > LARGE_CELLS:
                    t.count("linalg.rank.large_calls")
                    t.count("linalg.rank.large_s", rec[2] - rec[1])

        return rank_from_columns

    patch_function(t, "suboplex.linalg", "rank_from_columns", "linalg.rank", rank_span)

    for attr in ("betti_via_intervals", "betti_via_mobius", "homological_dimension"):
        patch_function(t, "suboplex.betti", attr, "betti.sweep", span("betti.sweep"))

    def count_intervals(fn):
        def truncated_order_complex(interval):
            t.count("betti.intervals")
            return fn(interval)

        return truncated_order_complex

    patch_function(t, "suboplex.complexes", "truncated_order_complex", "betti.intervals",
                   count_intervals, only_in="suboplex.betti")

    for attr in ("vc_dimension", "is_shattered", "shatter_complex"):
        patch_function(t, "suboplex.classes", attr, "classes.vc", span("classes.vc"))
    patch_function(
        t, "suboplex.classes", "extentures", "classes.extentures",
        span("classes.extentures", lambda a, r, s: t.count("classes.extentures", len(r))),
    )
    for attr in ("dual_ideal", "suboplex_ideal"):
        patch_function(t, "suboplex.classes", attr, "classes.ideal", span("classes.ideal"))
    patch_function(t, "suboplex.oracles", "betti_oracle", "oracles.betti", span("oracles.betti"))


def main() -> int:
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    t = Tracer()
    sys.meta_path.insert(0, TimedImport(t, "numpy", "import.numpy"))
    rec = t.open("import.suboplex")
    import suboplex  # noqa: F401
    import suboplex.cli

    t.close(rec)
    t.installed.add("import.suboplex")
    install(t)
    code = 1
    rec = t.open("cli")
    try:
        code = suboplex.cli.main(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        t.close(rec)
        sys.stdout.flush()
        import json

        t.counters["posets.chains"] = sum(next(c) for c in t.chain_counters)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "t_start": T_START,
                    "installed": sorted(t.installed),
                    "counters": t.counters,
                    "spans": t.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
