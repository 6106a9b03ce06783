"""Workloads of the suboplex benchmark and the checks on their outputs.

A workload is a fixed list of CLI calls.  The seed fixes the order of
the calls and, for ``cli_small``, generates the two ``--input`` files;
the program only ever sees those files.  Every successful call is
checked: against the stdout committed under ``expected/`` for the
default seed, and, for the seed-dependent calls, against references
computed here without the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

FLAGSHIP = (
    'matroid:{"type":"direct_sum","parts":[{"type":"uniform","k":1,"m":1},'
    '{"type":"uniform","k":2,"m":3}]}'
)
KCNF = 'formula:{"type":"kcnf","d":3,"k":2}'
U58 = 'matroid:{"type":"uniform","k":5,"m":8}'
U47 = 'matroid:{"type":"uniform","k":4,"m":7}'
PARITY4 = 'formula:{"type":"parity_conj","d":4}'
CUBE4 = 'cube:{"d":4}'
# Minimal triangulation of the real projective plane: Cohen-Macaulay over
# GF(3) but not over GF(2).
RP2 = (
    'complex:{"vertices":6,"facets":[[0,1,4],[0,1,5],[0,2,3],[0,2,4],[0,3,5],'
    "[1,2,3],[1,2,5],[1,3,4],[2,4,5],[3,4,5]]}"
)

# kcnf(d=3,k=2): vcdim is 6 and the poset has rank 7, and
# vc_dimension <= homological_dimension <= rank.
KCNF_HDIM_RANGE = (6, 7)

# Which end-to-end metric a call's verb is summed into.
VERB_METRIC = {
    "betti": "betti_s",
    "hdim": "hdim_s",
    "check": "check_s",
    "vcdim": "query_s",
    "mobius": "query_s",
    "shatter": "query_s",
    "extentures": "query_s",
    "oracle": "query_s",
    "build": "query_s",
}

Validator = Callable[[str], bool]


@dataclass
class Call:
    """One CLI call: a stable label, its arguments and how to judge stdout."""

    label: str
    args: list[str]
    seeded: bool = False  # output depends on the seed-generated input
    validate: Validator | None = None
    setup: bool = False  # builds a workload input: counted in setup_s only

    @property
    def metric(self) -> str:
        return "setup_s" if self.setup else VERB_METRIC[self.args[0]]


@dataclass
class Workload:
    name: str
    calls: list[Call]  # set-up builds first, then the workload's calls
    # (`betti --format json`, `mobius --all`): each the label of a timed call or args of one
    hall: list[tuple[str | list[str], str | list[str]]] = field(default_factory=list)
    same_output: list[tuple[str, str]] = field(default_factory=list)
    input_files: dict[str, dict] = field(default_factory=dict)


def _bits(n: int, mask: int) -> str:
    """The CLI's bit-string form: character i is the value at element i."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def close_under_intersection(masks: set[int]) -> set[int]:
    closed = set(masks)
    while True:
        fresh = {a & b for a in closed for b in closed} - closed
        if not fresh:
            return closed
        closed |= fresh


# ---------------------------------------------------------------------------
# References computed without the program.


def _shattered(members: list[int], u: int) -> bool:
    return len({m & u for m in members}) == 1 << u.bit_count()


def reference_vcdim(n: int, members: list[int]) -> int:
    return max(u.bit_count() for u in range(1 << n) if _shattered(members, u))


def reference_shatter(n: int, members: list[int]) -> dict:
    shattered = [u for u in range(1 << n) if _shattered(members, u)]
    facets = [u for u in shattered if not any(u != v and u & v == u for v in shattered)]
    return {
        "vc_dimension": max(u.bit_count() for u in shattered),
        "facets": sorted([v for v in range(n) if u >> v & 1] for u in facets),
    }


def reference_extentures(n: int, members: list[int]) -> list[str]:
    """Minimal partial functions (ones, domain) that no member extends."""
    extendable = {(m & dom, dom) for m in members for dom in range(1 << n)}
    found = []
    for dom in range(1 << n):
        ones = dom
        while True:
            if (ones, dom) not in extendable and all(
                (ones & ~(1 << v), dom & ~(1 << v)) in extendable
                for v in range(n)
                if dom >> v & 1
            ):
                found.append((dom.bit_count(), ones, dom ^ ones))
            if ones == 0:
                break
            ones = (ones - 1) & dom
    found.sort()
    return [
        "".join("1" if ones >> i & 1 else "0" if zeros >> i & 1 else "*" for i in range(n))
        for _, ones, zeros in found
    ]


def hall_identity_holds(betti_json: str, mobius_all: str) -> bool:
    """sum_i (-1)^i beta_{i, m(A,B)} == mu(A, B) on every comparable pair.

    Malformed output from either call fails the check.
    """
    euler: dict[tuple[str, str], int] = {}
    mu = {}
    try:
        for entry in json.loads(betti_json)["entries"]:
            degree = entry["degree"]
            if not (degree.startswith("m(") and degree.endswith(")")):
                return False
            a, b = degree[2:-1].split(",")
            euler[(a, b)] = euler.get((a, b), 0) + (-1) ** entry["i"] * entry["value"]
        for line in mobius_all.splitlines():
            a, b, value = line.split()
            mu[(a, b)] = int(value)
    except (ValueError, KeyError, TypeError):  # JSONDecodeError is a ValueError
        return False
    if not mu or not set(euler) <= set(mu):
        return False
    return all(euler.get(pair, 0) == value for pair, value in mu.items())


def _equals(expected: str) -> Validator:
    return lambda out: out.strip() == expected


def _int_in(lo: int, hi: int) -> Validator:
    def check(out: str) -> bool:
        text = out.strip()
        return text.lstrip("-").isdigit() and lo <= int(text) <= hi

    return check


def _json_equals(expected: object) -> Validator:
    def check(out: str) -> bool:
        try:
            return json.loads(out) == expected
        except json.JSONDecodeError:
            return False

    return check


def _lines_equal(expected: list[str]) -> Validator:
    return lambda out: out.splitlines() == expected


def _same_class(doc: dict) -> Validator:
    """``build`` of a class file prints the same members, in its own order."""

    def check(out: str) -> bool:
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            return False
        return got["n"] == doc["n"] and sorted(got["functions"]) == sorted(doc["functions"])

    return check


def _build(label: str, inputs: list[str], **kwargs) -> Call:
    return Call(label, ["build", *inputs], setup=True, **kwargs)


# ---------------------------------------------------------------------------
# The workloads.


def _kcnf() -> Workload:
    b = ["--build", KCNF]
    calls = [
        _build("build", b),
        Call("betti_gf2", ["betti", *b, "--field", "2", "--format", "json"]),
        Call("hdim_gf2", ["hdim", *b, "--field", "2"]),
        Call("hdim_gf3", ["hdim", *b, "--field", "3"], validate=_int_in(*KCNF_HDIM_RANGE)),
        Call("vcdim", ["vcdim", *b]),
        Call("mobius", ["mobius", *b]),
        Call("mobius_all", ["mobius", "--all", *b]),
        Call("check_ic", ["check", "--intersection-closed", *b]),
    ]
    return Workload("kcnf", calls, hall=[("betti_gf2", "mobius_all")])


def _uniform() -> Workload:
    b = ["--build", U58]
    calls = [
        _build("build_u58", b),
        _build("build_u47", ["--build", U47]),
        Call("betti_gf3", ["betti", *b, "--field", "3", "--format", "json"]),
        Call("hdim_gf3", ["hdim", *b, "--field", "3"]),
        Call("betti_mobius", ["betti", *b, "--method", "mobius"]),
        Call("vcdim", ["vcdim", *b]),
        Call("mobius_all", ["mobius", "--all", *b]),
        Call("u47_betti_q", ["betti", "--build", U47, "--field", "Q"]),
        Call("u47_interval_cm", ["check", "--interval-cm", "--build", U47]),
    ]
    return Workload("uniform", calls, hall=[("betti_gf3", "mobius_all")])


def _cli_small(seed: int) -> Workload:
    rng = random.Random(seed)
    n_big = 10
    members = sorted(rng.sample(range(1 << n_big), 40))
    n_ic = 6
    closed = sorted(close_under_intersection({rng.getrandbits(n_ic) for _ in range(12)}))
    files = {
        "class40.json": {"n": n_big, "functions": [_bits(n_big, m) for m in members]},
        "ic6.json": {"n": n_ic, "functions": [_bits(n_ic, m) for m in closed]},
    }
    c40 = ["--input", "@class40.json"]
    ic6 = ["--input", "@ic6.json"]
    f = ["--build", FLAGSHIP]
    calls = [
        _build("build_flagship", f),
        _build("build_parity4", ["--build", PARITY4]),
        _build("build_u47", ["--build", U47]),
        _build("build_rp2", ["--build", RP2, "--as", "complex"]),
        _build("build_cube4", ["--build", CUBE4]),
        _build("build_class40", c40, seeded=True, validate=_same_class(files["class40.json"])),
        _build("build_ic6", ic6, seeded=True, validate=_same_class(files["ic6.json"])),
        Call("flagship_vcdim", ["vcdim", *f]),
        Call("flagship_hdim", ["hdim", *f]),
        Call("flagship_betti", ["betti", *f]),
        Call("flagship_betti_mobius", ["betti", *f, "--method", "mobius"]),
        Call("flagship_oracle_betti", ["oracle", "betti", *f]),
        Call("flagship_mobius_all", ["mobius", "--all", *f]),
        Call("parity4_betti_gf3", ["betti", "--build", PARITY4, "--field", "3"]),
        Call("parity4_hdim", ["hdim", "--build", PARITY4]),
        Call("u47_interval_cm", ["check", "--interval-cm", "--build", U47]),
        Call("rp2_cm_gf2", ["check", "--cm", "--build", RP2, "--field", "2"],
             validate=_equals("CM: no")),
        Call("rp2_cm_gf3", ["check", "--cm", "--build", RP2, "--field", "3"],
             validate=_equals("CM: yes")),
        Call("cube4_class", ["build", "--build", CUBE4, "--as", "class"]),
        Call("class40_extentures", ["extentures", *c40], seeded=True,
             validate=_lines_equal(reference_extentures(n_big, members))),
        Call("class40_vcdim", ["vcdim", *c40], seeded=True,
             validate=_equals(str(reference_vcdim(n_big, members)))),
        Call("class40_shatter", ["shatter", *c40], seeded=True,
             validate=_json_equals(reference_shatter(n_big, members))),
        Call("ic6_betti", ["betti", *ic6, "--format", "json"], seeded=True),
        Call("ic6_oracle_betti", ["oracle", "betti", *ic6, "--format", "json"], seeded=True),
    ]
    return Workload(
        "cli_small",
        calls,
        hall=[
            (["betti", *f, "--format", "json"], ["mobius", "--all", *f]),
            ("ic6_betti", ["mobius", "--all", *ic6]),
        ],
        same_output=[
            ("flagship_betti", "flagship_oracle_betti"),
            ("flagship_betti", "flagship_betti_mobius"),
            ("ic6_betti", "ic6_oracle_betti"),
        ],
        input_files=files,
    )


WORKLOAD_NAMES = ("kcnf", "uniform", "cli_small")


def make_workload(name: str, seed: int) -> Workload:
    """Set-up builds, then the calls in seed-shuffled order; inputs from ``seed``."""
    if name == "kcnf":
        w = _kcnf()
    elif name == "uniform":
        w = _uniform()
    elif name == "cli_small":
        w = _cli_small(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")
    setup = [c for c in w.calls if c.setup]
    calls = [c for c in w.calls if not c.setup]
    random.Random(seed).shuffle(calls)
    w.calls = setup + calls
    return w


def load_expected(name: str) -> dict[str, str]:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
