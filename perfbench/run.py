"""Benchmark of the suboplex CLI: time to a correct answer, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kcnf --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli_small --record

Each CLI call runs as ``python -m suboplex.cli ...`` in its own child,
one at a time, against this checkout's ``src``.  With ``--trace 0`` the
calls are timed from outside; with ``--trace 1`` one untraced pass is
followed by traced passes through ``tracer.py`` that give the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record``
rewrites ``expected/<workload>.json`` from one pass at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 3  # fewest samples of each set-up build in a run
TRACER = Path(__file__).resolve().parent / "tracer.py"

# The host-speed probe: a fixed pure-Python child that runs before every
# timed sample.  It runs no suboplex code, so no change to the program
# moves it; it only tracks how fast the shared host is at that moment.
PROBE_ARGS = ("-c", "s = 0\nfor i in range(300000):\n    s += i * i % 7\n")
PROBE_REF_S = 0.15  # the probe's wall time on the reference host
PROBE_WINDOW = 4  # probes on each side of a sample that set its host speed

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "betti_s": "s",
    "hdim_s": "s",
    "check_s": "s",
    "query_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


class SetupError(Exception):
    """The program cannot be located, or a recording pass found problems."""


@dataclass
class Sample:
    """One execution of a call and whether it gave a correct answer."""

    outcome: harness.Outcome
    ok: bool
    probe_s: float | None = None  # wall time of the probe run just before it
    host: float = 1.0  # host slowness around it: probe median / PROBE_REF_S

    @property
    def seconds(self) -> float:
        return self.outcome.seconds

    @property
    def charged(self) -> float:
        return harness.charged_seconds(self.outcome, self.ok)

    @property
    def adjusted(self) -> float:
        """Charged time at the reference host speed; a failure keeps its charge."""
        return self.seconds / self.host if self.ok else self.charged


@dataclass
class Run:
    """Everything one benchmark run observed."""

    workload: wl.Workload
    seed: int
    expected: dict[str, str] | None  # None while recording
    env: dict[str, str]
    input_dir: Path
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    timeline: list[Sample] = field(default_factory=list)  # probed samples, in order
    outputs: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def argv(self, args: list[str]) -> list[str]:
        resolved = [
            str((self.input_dir / a[1:]).relative_to(harness.ROOT)) if a.startswith("@") else a
            for a in args
        ]
        return harness.python_argv("-m", "suboplex.cli", *resolved)

    def output_ok(self, call: wl.Call, stdout: str) -> bool:
        if call.validate is not None and not call.validate(stdout):
            return False
        # Recording, or a seeded input with no committed output: seeded calls
        # without a validator are checked against each other afterwards.
        if self.expected is None or (call.seeded and self.seed != wl.DEFAULT_SEED):
            return True
        if call.label in self.expected:
            return stdout == self.expected[call.label]
        return call.validate is not None

    def judge(self, call: wl.Call, outcome: harness.Outcome) -> Sample:
        """A sample is ok when the call exited 0 with the right output.

        A wrong output is also recorded as a problem, which makes the run
        incorrect; a nonzero exit or a kill is only a failure.
        """
        ok = outcome.returncode == 0
        if ok:
            first = self.outputs.setdefault(call.label, outcome.stdout)
            ok = first == outcome.stdout and self.output_ok(call, outcome.stdout)
            if not ok:
                self.problems.append(f"{call.label}: unexpected output {outcome.stdout[:120]!r}")
        return Sample(outcome, ok)

    def call(self, call: wl.Call, argv: list[str] | None = None, key: str = "",
             probe: bool = False) -> Sample:
        """Run ``call`` (through ``argv`` if given) and file the sample under label + key.

        With ``probe``, the host-speed probe runs just before the call.
        """
        probe_s = None
        if probe:
            probe_s = harness.run_child(harness.python_argv(*PROBE_ARGS), self.env).seconds
        sample = self.judge(call, harness.run_child(argv or self.argv(call.args), self.env))
        sample.probe_s = probe_s
        self.samples.setdefault(call.label + key, []).append(sample)
        if probe:
            self.timeline.append(sample)
        return sample

    def failed_calls(self) -> int:
        """Calls with at least one failed sample."""
        return sum(not all(x.ok for x in self.samples.get(c.label, []))
                   for c in self.workload.calls)


def locate_program(env: dict[str, str]) -> None:
    """The children must import suboplex from this checkout's ``src``."""
    out = harness.run_child(
        harness.python_argv("-c", "import suboplex; print(suboplex.__file__)"), env
    )
    want = harness.ROOT / "src" / "suboplex"
    if out.returncode != 0:
        raise SetupError(f"cannot import suboplex from {want}: {out.stderr.strip()[-300:]}")
    found = Path(out.stdout.strip()).resolve()
    if found.parent != want.resolve():
        raise SetupError(f"suboplex resolves to {found}, not under {want}")


def write_inputs(workload: wl.Workload, input_dir: Path) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in workload.input_files.items():
        (input_dir / name).write_text(json.dumps(doc), encoding="utf-8")


def plan_repeats(costs: dict[str, float], budget: float) -> list[str]:
    """Labels of the repeats to run in ``budget`` seconds, spread evenly.

    First, within half of the budget, calls get a second sample, longest
    first, so long calls get one when the budget holds them.  The rest
    goes to the call with the least planned measuring time, so short
    calls get many samples.  Each call's repeats are then spaced evenly
    over the window, so every call is sampled across the whole run.
    """
    extra = {label: 0 for label in costs}
    second = budget / 2
    for label in sorted(costs, key=costs.get, reverse=True):
        if costs[label] <= second:
            extra[label] += 1
            second -= costs[label]
            budget -= costs[label]
    while True:
        fits = [label for label in costs if costs[label] <= budget]
        if not fits:
            break
        label = min(fits, key=lambda x: (1 + extra[x]) * costs[x])
        extra[label] += 1
        budget -= costs[label]
    slots = sorted(((k + 0.5) / n, label) for label, n in extra.items() for k in range(n))
    return [label for _, label in slots]


def set_host_speed(timeline: list[Sample], ref_s: float = PROBE_REF_S,
                   window: int = PROBE_WINDOW) -> None:
    """Give each sample the host slowness of its neighbourhood.

    A sample's ``host`` is the median of the probes within ``window``
    samples of it, divided by the probe's time on the reference host.
    The median over neighbours smooths out the probes' own noise while
    following the host's drift over seconds to minutes.
    """
    probes = [s.probe_s for s in timeline]
    for k, sample in enumerate(timeline):
        sample.host = statistics.median(probes[max(0, k - window): k + window + 1]) / ref_s


def measure(run: Run, seconds: float) -> None:
    """One pass over every call, then planned repeats while the budget allows.

    The pass starts with the set-up builds.  Every sample is preceded by
    the host-speed probe, whose time counts towards the budget.  A call
    whose first sample failed is not repeated: its charge is fixed.  A
    planned repeat that no longer fits in the budget is skipped, so a run
    lasts about ``seconds``, or one pass if that is longer.
    """
    start = time.perf_counter()
    for call in run.workload.calls:
        run.call(call, probe=True)
    by_label = {c.label: c for c in run.workload.calls}
    costs = {
        c.label: run.samples[c.label][0].seconds + run.samples[c.label][0].probe_s
        for c in run.workload.calls
        if run.samples[c.label][0].ok
    }
    for label in plan_repeats(costs, seconds - (time.perf_counter() - start)):
        if time.perf_counter() - start + costs[label] <= seconds:
            run.call(by_label[label], probe=True)
    for call in run.workload.calls:
        while call.setup and len(run.samples[call.label]) < SETUP_REPS:
            run.call(call, probe=True)
    set_host_speed(run.timeline)


def check_identities(run: Run) -> None:
    """Cross-call checks, run outside the timed passes."""
    for a, b in run.workload.same_output:
        if a not in run.outputs or b not in run.outputs:
            continue  # a failed call is already counted
        if run.outputs[a] != run.outputs[b]:
            run.problems.append(f"{a} and {b} disagree")
    for betti_source, mobius_source in run.workload.hall:
        betti = output_of(run, betti_source)
        mobius = output_of(run, mobius_source)
        if betti is not None and mobius is not None and not wl.hall_identity_holds(betti, mobius):
            run.problems.append(f"Hall's identity fails for {betti_source} and {mobius_source}")


def output_of(run: Run, source: str | list[str]) -> str | None:
    """Stdout of a timed call by label, or of a fresh call with these args.

    None when the call failed; a timed call's failure is already counted,
    a fresh call's is recorded as a problem.
    """
    if isinstance(source, str):
        return run.outputs.get(source)
    out = harness.run_child(run.argv(source), run.env)
    if out.returncode != 0:
        run.problems.append(f"{source}: exit {out.returncode}")
        return None
    return out.stdout


def end_to_end(run: Run) -> dict[str, float]:
    """Sums over calls of each call's median sample at the reference host speed.

    On a shared host the speed drifts by a quarter within a minute, so
    each sample is divided by the host slowness the probes measured
    around it.  A failed sample is charged the call limit.
    """
    values = {name: 0.0 for name in END_TO_END_UNITS}
    for call in run.workload.calls:
        cost = statistics.median(s.adjusted for s in run.samples[call.label])
        values[call.metric] += cost
        if not call.setup:
            values["wall_s"] += cost
    values["peak_rss_mb"] = max(
        statistics.median(s.outcome.rss_mb for s in run.samples[c.label])
        for c in run.workload.calls
    )
    ok_calls = sum(all(s.ok for s in run.samples[c.label]) for c in run.workload.calls)
    values["ok_share"] = ok_calls / len(run.workload.calls)
    return values


def traced_passes(run: Run, seconds: float) -> dict[str, float]:
    """One untraced pass, then traced passes while one more fits; medians."""
    start = time.perf_counter()
    untraced = sum(run.call(call).seconds for call in run.workload.calls)
    trace_dir = harness.OUT_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    per_pass: list[dict[str, float]] = []
    spans_out = []
    last_pass = 0.0
    while not per_pass or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        traces = []
        for call_id, call in enumerate(run.workload.calls):
            path = trace_dir / f"{call.label}-{os.getpid()}.json"
            path.unlink(missing_ok=True)
            argv = harness.python_argv(str(TRACER), str(path), *run.argv(call.args)[3:])
            outcome = run.call(call, argv, key="+trace").outcome
            if not path.exists():
                if outcome.returncode == 0:
                    run.problems.append(f"{call.label}: traced call wrote no spans")
                continue  # killed by the limit: counted as failed
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            trace = layers.trace_call(doc, outcome.started, outcome.started + outcome.seconds)
            if not trace.consistent:
                run.problems.append(f"{call.label}: spans do not account for the wall time")
            traces.append(trace)
            spans_out.append({"pass": len(per_pass), "call_id": call_id, "label": call.label,
                              "spawned": outcome.started, "t_start": doc["t_start"],
                              "ended": outcome.started + outcome.seconds,
                              "spans": doc["spans"]})
        per_pass.append(layers.pass_metrics(traces, untraced))
        last_pass = time.perf_counter() - pass_start
    (harness.OUT_DIR / f"trace-{run.workload.name}-{run.seed}.json").write_text(
        json.dumps(spans_out), encoding="utf-8")
    names = [n for n in layers.metric_units() if all(n in p for p in per_pass)]
    return {n: statistics.median(p[n] for p in per_pass) for n in names}


def print_summary(run: Run, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"workload {run.workload.name} seed {run.seed}")
    for call in run.workload.calls:
        s = harness.summarize([x.charged for x in run.samples[call.label]])
        tail = "no tail (n<20)" if s["tail_pct"] is None else f"p{s['tail_pct']:g} {s['tail']:.4f}"
        bad = sum(not x.ok for x in run.samples[call.label])
        adjusted = statistics.median(x.adjusted for x in run.samples[call.label])
        print(f"  {call.label:24s} median {s['median']:.4f} s  {tail}  n={s['n']}  "
              f"failed={bad}  at reference speed {adjusted:.4f} s")
    for problem in run.problems:
        print(f"  PROBLEM {problem}")
    calls = run.workload.calls
    failed = run.failed_calls()
    print(f"  fail_share {harness.fail_share(failed, len(calls)):.4f} ({failed}/{len(calls)} calls)")
    if run.timeline:
        probes = [s.probe_s for s in run.timeline]
        print(f"  host probe median {statistics.median(probes):.4f} s "
              f"(reference {PROBE_REF_S} s), n={len(probes)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def record(run: Run) -> None:
    """Write the expected stdout of every successful call at the default seed."""
    for call in run.workload.calls:
        run.call(call)
    check_identities(run)
    if run.problems:
        raise SetupError("; ".join(run.problems))
    path = wl.EXPECTED_DIR / f"{run.workload.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(sorted(run.outputs.items())), indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    env = harness.child_env()
    try:
        locate_program(env)
        workload = wl.make_workload(args.workload, args.seed)
        input_dir = harness.OUT_DIR / "inputs" / f"{args.workload}-{args.seed}"
        write_inputs(workload, input_dir)
        run = Run(workload, args.seed, None if args.record else wl.load_expected(args.workload),
                  env, input_dir)
        if args.record:
            if args.seed != wl.DEFAULT_SEED:
                raise SetupError("--record writes the default seed's outputs only")
            record(run)
            return 0
        if args.trace:
            metrics = traced_passes(run, args.seconds)
            units = layers.metric_units()
        else:
            measure(run, args.seconds)
            metrics = end_to_end(run)
            units = END_TO_END_UNITS
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    check_identities(run)
    print_summary(run, metrics, units)
    # Calls, not samples: how many samples fit in a run depends on the host,
    # but which calls fail does not.
    result = {
        "correct": not run.problems,
        "attempted": len(run.workload.calls),
        "failed": run.failed_calls(),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
