"""Per-layer metrics from the spans of traced calls.

A span's self time is its duration minus the durations of its child
spans.  Each traced call also gets an ``import.python`` span from the
moment the benchmark spawned the child to the tracer's first statement
(interpreter start).  Wall time covered by no span is ``trace.other_s``,
so per call the self times plus the uncovered time add up to the
traced wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EPS_S = 1e-6

# (metric, unit, source, kind, installed name it needs or None)
#   self: summed self time of spans named source; calls: their count;
#   counter: summed counter; peak: largest counter over the calls.
PER_LAYER = [
    ("import.python_s", "s", "import.python", "self", None),
    ("import.suboplex_s", "s", "import.suboplex", "self", "import.suboplex"),
    ("import.numpy_s", "s", "import.numpy", "self", None),
    ("cli.self_s", "s", "cli", "self", None),
    ("io.parse_s", "s", "io.parse", "self", "io.parse"),
    ("builders.s", "s", "builders", "self", "builders"),
    ("posets.init.calls", "count", "posets.init", "calls", "posets.init"),
    ("posets.init.s", "s", "posets.init", "self", "posets.init"),
    ("posets.interval.calls", "count", "posets.interval", "calls", "posets.interval"),
    ("posets.interval.s", "s", "posets.interval", "self", "posets.interval"),
    ("posets.rank.calls", "count", "posets.rank", "calls", "posets.rank"),
    ("posets.rank.s", "s", "posets.rank", "self", "posets.rank"),
    ("posets.mobius.calls", "count", "posets.mobius", "calls", "posets.mobius"),
    ("posets.mobius.s", "s", "posets.mobius", "self", "posets.mobius"),
    ("posets.chains", "count", "posets.chains", "counter", "posets.chains"),
    ("complexes.order_complex.calls", "count", "complexes.order_complex", "calls",
     "complexes.order_complex"),
    ("complexes.order_complex.s", "s", "complexes.order_complex", "self",
     "complexes.order_complex"),
    ("complexes.from_faces.calls", "count", "complexes.from_faces", "calls",
     "complexes.from_faces"),
    ("complexes.from_faces.s", "s", "complexes.from_faces", "self", "complexes.from_faces"),
    ("complexes.faces", "count", "complexes.faces", "counter", "complexes.from_faces"),
    ("complexes.max_faces", "count", "complexes.max_faces", "peak", "complexes.from_faces"),
    ("complexes.boundary_s", "s", "complexes.boundary", "self", "complexes.boundary"),
    ("complexes.link.calls", "count", "complexes.link", "calls", "complexes.link"),
    ("complexes.link.s", "s", "complexes.link", "self", "complexes.link"),
    ("complexes.homology.calls", "count", "complexes.homology", "calls", "complexes.homology"),
    ("complexes.homology.s", "s", "complexes.homology", "self", "complexes.homology"),
    ("linalg.rank.calls", "count", "linalg.rank.calls", "counter", "linalg.rank"),
    ("linalg.rank.gf2_s", "s", "linalg.rank.gf2", "self", "linalg.rank"),
    ("linalg.rank.gfp_s", "s", "linalg.rank.gfp", "self", "linalg.rank"),
    ("linalg.rank.q_s", "s", "linalg.rank.q", "self", "linalg.rank"),
    ("linalg.rank.cells", "count", "linalg.rank.cells", "counter", "linalg.rank"),
    ("linalg.rank.nnz", "count", "linalg.rank.nnz", "counter", "linalg.rank"),
    ("linalg.rank.max_cells", "count", "linalg.rank.max_cells", "peak", "linalg.rank"),
    ("linalg.rank.large_calls", "count", "linalg.rank.large_calls", "counter", "linalg.rank"),
    ("linalg.rank.large_s", "s", "linalg.rank.large_s", "counter", "linalg.rank"),
    ("betti.sweep_s", "s", "betti.sweep", "self", "betti.sweep"),
    ("betti.intervals", "count", "betti.intervals", "counter", "betti.intervals"),
    ("betti.intervals_nonzero", "count", "betti.intervals_nonzero", "counter",
     "betti.intervals_nonzero"),
    ("classes.vc_s", "s", "classes.vc", "self", "classes.vc"),
    ("classes.extentures_s", "s", "classes.extentures", "self", "classes.extentures"),
    ("classes.extentures", "count", "classes.extentures", "counter", "classes.extentures"),
    ("classes.ideal_s", "s", "classes.ideal", "self", "classes.ideal"),
    ("oracles.betti_s", "s", "oracles.betti", "self", "oracles.betti"),
]

# Ratios of two metrics above: (metric, numerator, denominator).
RATIOS = [
    ("linalg.rank.density", "linalg.rank.nnz", "linalg.rank.cells"),
    ("betti.useful_ratio", "betti.intervals_nonzero", "betti.intervals"),
]

TRACE_METRICS = [
    ("trace.overhead_ratio", "ratio"),
    ("trace.other_s", "s"),
    ("trace.wall_s", "s"),
]


def metric_units() -> dict[str, str]:
    units = {name: unit for name, unit, *_ in PER_LAYER}
    units.update({name: "ratio" for name, _, _ in RATIOS})
    units.update(dict(TRACE_METRICS))
    return units


@dataclass
class CallTrace:
    """Self time and span count per name, counters, and uncovered time of one call."""

    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    installed: set[str] = field(default_factory=set)
    wall_s: float = 0.0
    other_s: float = 0.0
    consistent: bool = True  # children inside parents, spans inside the call


def self_times(spans: list[list]) -> list[float]:
    """Duration of each [name, start, end, parent] span minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def trace_call(doc: dict, spawned: float, ended: float) -> CallTrace:
    """Account one traced call's wall time (``spawned`` to ``ended``) to its spans."""
    spans = [["import.python", spawned, doc["t_start"], -1]]
    offset = len(spans)
    spans += [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in doc["spans"]]
    out = CallTrace(
        counters=dict(doc["counters"]),
        installed=set(doc["installed"]),
        wall_s=ended - spawned,
    )
    own = self_times(spans)
    covered = 0.0
    for (name, start, end, parent), s in zip(spans, own):
        out.self_s[name] = out.self_s.get(name, 0.0) + s
        out.calls[name] = out.calls.get(name, 0) + 1
        lo, hi = (spawned, ended) if parent < 0 else spans[parent][1:3]
        if parent < 0:
            covered += end - start
        if s < -EPS_S or start < lo - EPS_S or end > hi + EPS_S:
            out.consistent = False
    out.other_s = out.wall_s - covered
    if out.other_s < -EPS_S:
        out.consistent = False
    accounted = sum(out.self_s.values()) + out.other_s
    if abs(accounted - out.wall_s) > EPS_S * max(1, len(spans)):
        out.consistent = False
    return out


def pass_metrics(traces: list[CallTrace], untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: sums over its calls."""
    installed = set().union(*(t.installed for t in traces))
    values: dict[str, float] = {}
    for name, _, source, kind, needs in PER_LAYER:
        if needs is not None and needs not in installed:
            continue
        if kind == "self":
            values[name] = sum(t.self_s.get(source, 0.0) for t in traces)
        elif kind == "calls":
            values[name] = sum(t.calls.get(source, 0) for t in traces)
        elif kind == "counter":
            values[name] = sum(t.counters.get(source, 0) for t in traces)
        else:
            values[name] = max((t.counters.get(source, 0) for t in traces), default=0)
    for name, num, den in RATIOS:
        if num in values and den in values:
            values[name] = values[num] / values[den] if values[den] else 0.0
    traced_wall = sum(t.wall_s for t in traces)
    values["trace.wall_s"] = traced_wall
    values["trace.other_s"] = sum(t.other_s for t in traces)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall_s
    return values
