"""Tests of the benchmark's own logic: failure charging, shares, per-child RSS."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _child(code: str, out_dir: Path, limit_s: float = 20.0) -> harness.Outcome:
    return harness.run_child(
        harness.python_argv("-c", code), harness.child_env(), out_dir, limit_s=limit_s
    )


def _outcome(stdout: str = "", returncode: int | None = 0, seconds: float = 1.0):
    return harness.Outcome(seconds, 0.0, 10.0, returncode, stdout, "")


def test_failed_call_is_charged_the_limit():
    out = _outcome(seconds=2.5)
    assert harness.charged_seconds(out, ok=True) == 2.5
    assert harness.charged_seconds(out, ok=False) == harness.CALL_LIMIT_S


def test_fail_share():
    assert harness.fail_share(1, 6) == pytest.approx(1 / 6)
    assert harness.fail_share(0, 17) == 0.0
    with pytest.raises(ValueError):
        harness.fail_share(0, 0)


def test_peak_rss_is_per_child_not_running_maximum(tmp_path):
    big = _child("b = bytearray(200 << 20); b[::4096] = b'x' * len(b[::4096])", tmp_path)
    small = _child("pass", tmp_path)
    assert big.returncode == 0 and small.returncode == 0
    assert big.rss_mb > 150
    assert small.rss_mb < 100


def test_memory_cap_applies_to_the_child_only(tmp_path):
    out = _child("bytearray(2 << 30)", tmp_path)
    assert out.returncode == 1
    assert "MemoryError" in out.stderr
    # The benchmark process itself is not capped.
    import resource

    assert resource.getrlimit(resource.RLIMIT_AS)[0] != harness.MEMORY_CAP_BYTES


def test_time_limit_kills_the_child(tmp_path):
    out = _child("import time; time.sleep(30)", tmp_path, limit_s=0.5)
    assert out.timed_out
    assert out.seconds < 10


def _run(calls, expected):
    return run.Run(wl.Workload("t", calls), wl.DEFAULT_SEED, expected, {}, Path("."))


def test_judging_and_end_to_end_metrics():
    setup = wl.Call("setup", ["build"], setup=True)
    good = wl.Call("good", ["vcdim"])
    bad = wl.Call("bad", ["hdim"])
    wrong = wl.Call("wrong", ["betti"])
    r = _run([setup, good, bad, wrong], {"setup": "{}\n", "good": "3\n", "wrong": "x\n"})
    r.samples["setup"] = [r.judge(setup, _outcome("{}\n", 0, t)) for t in (0.2, 1.0, 0.4)]
    r.samples["good"] = [r.judge(good, _outcome("3\n", 0, t)) for t in (0.7, 0.5)]
    r.samples["bad"] = [r.judge(bad, _outcome("", 1, 2.0))]
    r.samples["wrong"] = [r.judge(wrong, _outcome("y\n", 0, 1.0))]
    assert [s.ok for s in r.samples["good"]] == [True, True]
    assert not r.samples["bad"][0].ok and not r.samples["wrong"][0].ok
    # Only the wrong output is a problem; a nonzero exit is just a failure.
    assert len(r.problems) == 1 and r.problems[0].startswith("wrong")
    values = run.end_to_end(r)
    limit = harness.CALL_LIMIT_S
    assert values["setup_s"] == 0.4  # the median set-up build
    assert values["query_s"] == pytest.approx(0.6)  # the median sample
    assert values["hdim_s"] == limit
    assert values["betti_s"] == limit
    assert values["wall_s"] == pytest.approx(0.6 + 2 * limit)
    assert values["ok_share"] == 0.5
    # Failures are counted per call, whatever the number of samples.
    r.samples["bad"].append(r.judge(bad, _outcome("", 1, 2.0)))
    assert r.failed_calls() == 2


def test_host_speed_scales_samples_to_the_reference_host():
    timeline = [run.Sample(_outcome(seconds=t), ok=True, probe_s=p)
                for t, p in [(1.0, 0.3), (2.0, 0.3), (1.0, 0.3), (0.5, 0.15), (0.5, 0.15)]]
    timeline.append(run.Sample(_outcome("", 1, 0.5), ok=False, probe_s=0.15))
    run.set_host_speed(timeline, ref_s=0.15, window=1)
    # Each sample takes the median probe of itself and its neighbours.
    assert [s.host for s in timeline] == [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
    assert [s.adjusted for s in timeline[:5]] == [0.5, 1.0, 0.5, 0.5, 0.5]
    assert timeline[5].adjusted == harness.CALL_LIMIT_S  # a failure keeps its charge


def test_validator_without_committed_output():
    call = wl.Call("h", ["hdim"], validate=wl._int_in(*wl.KCNF_HDIM_RANGE))
    r = _run([call], {})
    assert r.output_ok(call, "6\n") and r.output_ok(call, "7\n")
    assert not r.output_ok(call, "5\n") and not r.output_ok(call, "")


def test_self_times_account_for_the_wall_time():
    doc = {
        "t_start": 1.0,
        "counters": {},
        "installed": [],
        "spans": [["import.suboplex", 1.0, 2.0, -1], ["import.numpy", 1.2, 1.7, 0],
                  ["cli", 2.1, 4.0, -1], ["betti.sweep", 2.5, 3.5, 2]],
    }
    t = layers.trace_call(doc, spawned=0.5, ended=4.5)
    assert t.consistent
    assert t.self_s["import.python"] == pytest.approx(0.5)
    assert t.self_s["import.suboplex"] == pytest.approx(0.5)
    assert t.self_s["cli"] == pytest.approx(0.9)
    assert t.other_s == pytest.approx(0.6)
    assert sum(t.self_s.values()) + t.other_s == pytest.approx(t.wall_s)
    doc["spans"][3] = ["betti.sweep", 2.5, 4.2, 2]  # child outlives its parent
    assert not layers.trace_call(doc, spawned=0.5, ended=4.5).consistent


def test_hall_identity_on_a_chain():
    betti = ('{"entries": [{"i": 0, "degree": "m(0,0)", "value": 1},'
             '{"i": 0, "degree": "m(1,1)", "value": 1},'
             '{"i": 1, "degree": "m(0,1)", "value": 1}]}')
    assert wl.hall_identity_holds(betti, "0 0 1\n0 1 -1\n1 1 1\n")
    assert not wl.hall_identity_holds(betti, "0 0 1\n0 1 1\n1 1 1\n")
    assert not wl.hall_identity_holds(betti, "CM: yes\n")
    assert not wl.hall_identity_holds("3\n", "0 0 1\n")


def test_references_match_the_package():
    sys.path.insert(0, str(harness.ROOT / "src"))
    import suboplex

    rng = random.Random(7)
    for _ in range(5):
        n = 5
        members = sorted(rng.sample(range(1 << n), 9))
        cls = suboplex.FunctionClass.from_masks(n, members)
        assert wl.reference_vcdim(n, members) == suboplex.vc_dimension(cls)
        got = [f.pattern() for f in suboplex.extentures(cls)]
        assert wl.reference_extentures(n, members) == got


def test_seeded_inputs_repeat_and_vary():
    a, b = wl.make_workload("cli_small", 1), wl.make_workload("cli_small", 1)
    c = wl.make_workload("cli_small", 2)
    assert a.input_files == b.input_files
    assert [x.label for x in a.calls] == [x.label for x in b.calls]
    assert a.input_files != c.input_files


def test_repeat_plan_fits_the_budget_and_spreads_samples():
    costs = {"long": 8.0, "mid": 3.0, "a": 0.25, "b": 0.3}
    plan = run.plan_repeats(costs, 20.0)
    assert sum(costs[x] for x in plan) <= 20.0
    assert plan.count("long") == 1 and plan.count("mid") >= 1
    assert plan.count("a") > 5 and plan.count("b") > 5
    # Short calls are spread over the window, not packed at one end.
    first = len(plan) // 3
    assert "a" in plan[:first] and "a" in plan[-first:]
    assert run.plan_repeats(costs, 0.1) == []
