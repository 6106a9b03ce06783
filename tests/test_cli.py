import ast
import contextlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import suboplex
import suboplex.cli
from bundled import U11_U23_BETTI_TEXT
from conftest import (
    RP2_FACETS,
    random_intersection_closed_poset,
    reference_json_entries,
    refuse_everywhere,
    rp2_with_top,
)
from suboplex import SubsetPoset, betti_via_intervals
from suboplex.cli import VERBS, main, parse_args
from suboplex.io import poset_to_json
from references import build_parser

FLAG_POSET = {
    "n": 4,
    "elements": [
        "0000", "1000", "0100", "0010", "0001",
        "1100", "1010", "1001", "0111", "1111",
    ],
}

U11_U23_BUILD = (
    'matroid:{"type":"direct_sum","parts":'
    '[{"type":"uniform","k":1,"m":1},{"type":"uniform","k":2,"m":3}]}'
)

U47_BUILD = 'matroid:{"type":"uniform","k":4,"m":7}'
KCNF32_BUILD = 'formula:{"type":"kcnf","d":3,"k":2}'
KCNF42_BUILD = 'formula:{"type":"kcnf","d":4,"k":2}'


@pytest.fixture
def flag_poset_file(tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(FLAG_POSET))
    return str(path)


@pytest.fixture
def bowtie_file(tmp_path):
    path = tmp_path / "bowtie.json"
    path.write_text(
        json.dumps({"n": 4, "elements": ["0000", "1000", "0010", "1100", "0011"]})
    )
    return str(path)


RP2_BUILD = "complex:" + json.dumps({
    "vertices": 6,
    "facets": [[v for v in range(6) if f >> v & 1] for f in RP2_FACETS],
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


def run_child_within_a_gib(*argv):
    """Run the CLI in a child process limited to 1 GiB of address space."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(suboplex.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "suboplex.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit_memory,
        capture_output=True, text=True, timeout=300,
    )


def pairwise_mobius_lines(p: SubsetPoset) -> list[str]:
    """``mobius --all`` lines from the recursion run separately for each pair."""
    lines = []
    for a in p.elements:
        for b in p.elements:
            if a.bits & b.bits != a.bits:
                continue
            members = [
                e for e in p.elements if a.bits & e.bits == a.bits and e.bits & b.bits == e.bits
            ]
            mu = {}
            for x in members:  # members come in linear-extension order
                mu[x] = 1 if x == a else -sum(
                    v for y, v in mu.items() if y.bits & x.bits == y.bits and y != x
                )
            lines.append(f"{a} {b} {mu[b]}")
    return lines


class TestBetti:
    def test_golden_table_from_build(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--build", U11_U23_BUILD, "--field", "2", "--format", "m2"
        )
        assert code == 0
        assert out == U11_U23_BETTI_TEXT

    def test_matrix_and_graph_representations(self, capsys):
        matrix = 'matroid:{"type":"linear","p":2,"matrix":[[1,0,0,0],[0,1,1,0],[0,1,0,1]]}'
        graph = 'matroid:{"type":"graphic","vertices":4,"edges":[[2,3],[0,1],[1,2],[0,2]]}'
        for build in (matrix, graph):
            code, out, _ = run(capsys, "betti", "--build", build)
            assert code == 0 and out == U11_U23_BETTI_TEXT

    def test_json_format(self, capsys, flag_poset_file):
        code, out, _ = run(
            capsys, "betti", "--input", flag_poset_file, "--format", "json"
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert {"i": 3, "degree": "m(0000,1111)", "value": 2} in entries

    def test_mobius_method(self, capsys, flag_poset_file):
        code, out, _ = run(
            capsys, "betti", "--input", flag_poset_file, "--method", "mobius"
        )
        assert code == 0 and out == U11_U23_BETTI_TEXT

    def test_oracle_diff_is_empty(self, capsys, flag_poset_file):
        _, fast, _ = run(capsys, "betti", "--input", flag_poset_file)
        _, slow, _ = run(capsys, "oracle", "betti", "--input", flag_poset_file)
        assert fast == slow

    def test_deterministic(self, capsys, flag_poset_file):
        outs = {
            run(capsys, "betti", "--input", flag_poset_file, "--format", "json")[1]
            for _ in range(3)
        }
        assert len(outs) == 1

    def test_oracle_fallback_for_non_closed_class(self, capsys):
        # {10, 01} is not intersection-closed, so auto falls back to the oracle
        build = 'class:{"n":2,"functions":["10","01"]}'
        code, out, _ = run(capsys, "betti", "--build", build)
        assert code == 0
        _, oracle_out, _ = run(capsys, "oracle", "betti", "--build", build)
        assert out == oracle_out
        code, _, err = run(capsys, "betti", "--build", build, "--method", "mobius")
        assert code == 1 and "intersection-closed" in err

    def test_mobius_method_checks_interval_cm_over_the_field(self, capsys):
        build = "poset:" + json.dumps(poset_to_json(rp2_with_top()))
        code, _, err = run(capsys, "betti", "--build", build, "--method", "mobius")
        assert code == 1 and "interval Cohen-Macaulay" in err
        for field in ("3", "Q"):
            mobius = run(capsys, "betti", "--build", build, "--method", "mobius", "--field", field)
            assert mobius[0] == 0
            assert mobius == run(capsys, "betti", "--build", build, "--field", field)

    @pytest.mark.parametrize("method", ["auto", "intervals", "oracle"])
    def test_removed_methods_exit_1(self, capsys, flag_poset_file, method):
        code, _, err = run(capsys, "betti", "--input", flag_poset_file, "--method", method)
        assert code == 1 and "invalid choice" in err

    def test_help_offers_only_mobius(self, capsys):
        code, out, _ = run(capsys, "betti", "--help")
        assert code == 0 and "--method {mobius}" in out


class TestDimensions:
    def test_vcdim_from_class_file(self, capsys, tmp_path):
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"n": 4, "functions": FLAG_POSET["elements"]}))
        code, out, _ = run(capsys, "vcdim", "--input", str(path))
        assert code == 0 and out == "3"

    def test_hdim(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "hdim", "--input", flag_poset_file)
        assert code == 0 and out == "3"

    def test_oracle_vcdim(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "oracle", "vcdim", "--input", flag_poset_file)
        assert code == 0 and out == "3"

    def test_oracle_reg(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "oracle", "reg", "--input", flag_poset_file)
        assert code == 0 and out == "4"


class TestCheck:
    def test_interval_cm_reports_both(self, capsys, bowtie_file):
        code, out, _ = run(capsys, "check", "--interval-cm", "--input", bowtie_file)
        assert code == 0
        assert out == "interval-CM: yes; CM: no"

    def test_flagship_is_cm(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "check", "--interval-cm", "--input", flag_poset_file)
        assert code == 0 and out == "interval-CM: yes; CM: yes"

    def test_acyclic_and_closure(self, capsys, flag_poset_file):
        code, out, _ = run(
            capsys,
            "check",
            "--intersection-closed",
            "--acyclic",
            "--input",
            flag_poset_file,
        )
        assert code == 0 and out == "intersection-closed: yes; acyclic: yes"

    def test_cm_checks_build_no_links(self, capsys, monkeypatch):
        def refuse(self, face):
            raise AssertionError("a link was built")

        monkeypatch.setattr(suboplex.SimplicialComplex, "link", refuse)
        cases = [
            (["--interval-cm", "--build", 'matroid:{"type":"uniform","k":4,"m":7}'],
             "interval-CM: yes; CM: yes"),
            (["--cm", "--build", 'cube:{"d":4}'], "CM: yes"),
            (["--cm", "--build", RP2_BUILD, "--field", "2"], "CM: no"),
            (["--cm", "--build", RP2_BUILD, "--field", "3"], "CM: yes"),
        ]
        for argv, expected in cases:
            assert run(capsys, "check", *argv) == (0, expected, "")

    def test_cm_only_on_unbounded_poset(self, capsys, bowtie_file):
        assert run(capsys, "check", "--cm", "--input", bowtie_file) == (0, "CM: no", "")

    def test_complex_cm(self, capsys, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"vertices": 3, "facets": [[0, 1], [1, 2], [0, 2]]}))
        code, out, _ = run(capsys, "check", "--cm", "--input", str(path))
        assert code == 0 and out == "CM: yes"

    def test_complex_cm_face_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(suboplex.complexes, "CM_MAX_FACES", 80)  # RP^2's 10 triangles
        assert run(capsys, "check", "--cm", "--build", RP2_BUILD) == (0, "CM: no", "")
        monkeypatch.setattr(suboplex.complexes, "CM_MAX_FACES", 79)
        code, _, err = run(capsys, "check", "--cm", "--build", RP2_BUILD)
        assert code == 2 and err == "error: Cohen-Macaulay check is capped at 79 faces, got 80"
        monkeypatch.undo()

        def refuse(self):
            raise AssertionError("the facets were expanded")

        monkeypatch.setattr(suboplex.SimplicialComplex, "face_set", refuse)
        simplex = 'complex:{"vertices":26,"facets":[[%s]]}' % ",".join(map(str, range(26)))
        code, _, err = run(capsys, "check", "--cm", "--build", simplex)
        assert code == 2 and err == "error: Cohen-Macaulay check is capped at 1024 faces, got 67108864"

    def test_complex_of_20000_facets_within_a_gib(self, tmp_path):
        """Loading must not test every pair of facets, and the face cap must come right after."""
        rng = random.Random(20_000)
        masks = [rng.getrandbits(40) for _ in range(20_000)]
        facets = [[v for v in range(40) if m >> v & 1] for m in masks]
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"vertices": 40, "facets": facets}))
        start = time.monotonic()
        built = run_child_within_a_gib("build", "--input", str(path), "--as", "complex")
        middle = time.monotonic()
        checked = run_child_within_a_gib("check", "--cm", "--input", str(path))
        end = time.monotonic()
        assert (built.returncode, built.stderr) == (0, "")
        faces = sum(1 << len(f) for f in json.loads(built.stdout)["facets"])
        assert (checked.returncode, checked.stdout) == (2, "")
        assert checked.stderr.splitlines() == [
            f"error: Cohen-Macaulay check is capped at 1024 faces, got {faces}"
        ]
        assert middle - start < 3.0 and end - middle < 3.0  # a test of every pair takes 30 s

    def test_acyclic_builds_no_labeled_complex(self, capsys, monkeypatch):
        """The answer comes from the theorem: no chain is listed and no homology taken."""

        def refuse(*args, **kwargs):
            raise AssertionError("an acyclicity answer was computed")

        monkeypatch.setattr(suboplex.SimplicialComplex, "from_faces", classmethod(refuse))
        monkeypatch.setattr(SubsetPoset, "chain_masks", refuse)
        monkeypatch.setattr(SubsetPoset, "interval_orbits", refuse)
        refuse_everywhere(monkeypatch, suboplex.reduced_homology, refuse)
        refuse_everywhere(monkeypatch, suboplex.homology._chain_homology, refuse)
        for spec in (U11_U23_BUILD, U47_BUILD, KCNF32_BUILD):
            assert run(capsys, "check", "--acyclic", "--build", spec) == (0, "acyclic: yes", "")

    def test_acyclic_needs_intersection_closed(self, capsys):
        code, _, err = run(
            capsys, "check", "--acyclic", "--build", 'poset:{"n":2,"elements":["10","01"]}'
        )
        assert code == 1
        assert err == "error: cellular resolution requires an intersection-closed poset"

    def test_acyclic_exhaustive_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--acyclic", "--exhaustive", "--build", U47_BUILD)
        assert (code, out) == (1, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: suboplex check ") and "--exhaustive" not in usage
        assert error == "suboplex check: error: unrecognized arguments: --exhaustive"

    def test_intersection_closed_class_builds_no_poset(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a support poset was built")

        monkeypatch.setattr(SubsetPoset, "__init__", refuse)
        closed, not_closed = ["000", "110", "011", "010"], ["110", "011", "001"]
        for functions, answer in ((closed, "yes"), (not_closed, "no")):
            path = tmp_path / "class.json"
            path.write_text(json.dumps({"n": 3, "functions": functions}))
            code, out, _ = run(capsys, "check", "--intersection-closed", "--input", str(path))
            assert (code, out) == (0, f"intersection-closed: {answer}")
            code, out, err = run(capsys, "check", "--acyclic", "--input", str(path))
            if answer == "yes":
                assert (code, out, err) == (0, "acyclic: yes", "")
            else:
                assert (code, out) == (1, "")
                assert err == "error: cellular resolution requires an intersection-closed poset"

    def test_closed_class_past_the_scan_budget_exits_2(self, capsys, monkeypatch, tmp_path):
        """A class builds no poset, so a count of its pair tests caps its own scan."""
        monkeypatch.setattr(suboplex.posets, "AND_CLOSED_MAX_PAIRS", 100)
        path = tmp_path / "full4.json"
        path.write_text(json.dumps({"n": 4, "functions": [format(m, "04b") for m in range(16)]}))
        for flag in ("--intersection-closed", "--acyclic"):
            code, out, err = run(capsys, "check", flag, "--input", str(path))
            assert (code, out) == (2, "")
            assert err == "error: intersection-closed scan is capped at 100 pair tests"

    def test_acyclic_kcnf_4_2_within_a_gib(self):
        """kcnf(4,2) has 2.09e10 chains; the answer lists none of them."""
        start = time.monotonic()
        out = run_child_within_a_gib("check", "--acyclic", "--build", KCNF42_BUILD)
        elapsed = time.monotonic() - start
        assert (out.returncode, out.stdout, out.stderr) == (0, "acyclic: yes\n", "")
        assert elapsed < 1.0


class TestMatroidSizes:
    def test_huge_uniform_matroid_is_capped_within_a_gib(self):
        out = run_child_within_a_gib("build", "--build", 'matroid:{"type":"uniform","k":1,"m":100000000}')
        assert out.returncode == 2, out.stderr
        assert out.stderr.splitlines() == [
            "error: flat enumeration is capped at ground size 16, got 100000000"
        ]

    def test_graphic_matroid_with_many_vertices_builds_within_a_gib(self):
        outputs = []
        for vertices, edges in ((100_000_000, [[0, 1]]), (100_000_000, [[99_999_999, 5]]), (2, [[0, 1]])):
            spec = "matroid:" + json.dumps({"type": "graphic", "vertices": vertices, "edges": edges})
            out = run_child_within_a_gib("build", "--build", spec)
            assert (out.returncode, out.stderr) == (0, ""), out.stderr
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["elements"] == ["0", "1"]


class TestOtherVerbs:
    def test_mobius_bounded(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "mobius", "--input", flag_poset_file)
        assert code == 0 and out == "-2"

    def test_mobius_all(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "mobius", "--all", "--input", flag_poset_file)
        assert "0000 0111 2" in out.splitlines()
        flagship = SubsetPoset.from_strings(FLAG_POSET["elements"])
        assert code == 0 and out.splitlines() == pairwise_mobius_lines(flagship)

    def test_mobius_all_matches_pairwise_recursion(self, capsys, tmp_path, rng):
        p = random_intersection_closed_poset(rng, max_n=6)
        while len(p) < 12:
            p = random_intersection_closed_poset(rng, max_n=6)
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"n": p.n, "elements": [str(e) for e in p.elements]}))
        code, out, _ = run(capsys, "mobius", "--all", "--input", str(path))
        assert code == 0 and out.splitlines() == pairwise_mobius_lines(p)

    def test_rendering_matches_references_on_random_posets(self, capsys, tmp_path, rng):
        path = tmp_path / "poset.json"
        for _ in range(25):
            p = random_intersection_closed_poset(rng, max_n=6)
            path.write_text(json.dumps(poset_to_json(p)))
            code, out, _ = run(capsys, "mobius", "--all", "--input", str(path))
            assert code == 0 and out.splitlines() == pairwise_mobius_lines(p)
            code, out, _ = run(capsys, "betti", "--format", "json", "--input", str(path))
            expected = {"entries": reference_json_entries(betti_via_intervals(p))}
            assert code == 0 and out == json.dumps(expected)

    def test_extentures(self, capsys):
        code, out, _ = run(
            capsys, "extentures", "--build", 'class:{"n":2,"functions":["10","01"]}'
        )
        assert code == 0 and out.splitlines() == ["00", "11"]

    def test_extentures_kcnf_4_2_within_a_gib(self):
        start = time.monotonic()
        out = run_child_within_a_gib("extentures", "--build", KCNF42_BUILD)
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.splitlines()) == 240
        assert time.monotonic() - start < 2.0

    def test_extentures_of_a_random_class_on_14_points_within_a_gib(self, tmp_path):
        """100 random members on 14 points: the answer has 14,569 lines."""
        n = 14
        masks = random.Random(n).sample(range(1 << n), 100)
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"n": n, "functions": [format(m, f"0{n}b") for m in masks]}))
        start = time.monotonic()
        out = run_child_within_a_gib("extentures", "--input", str(path))
        assert (out.returncode, out.stderr) == (0, "")
        assert len(out.stdout.splitlines()) == 14_569
        assert time.monotonic() - start < 2.0

    def test_vcdim_kcnf_4_2_within_a_gib(self):
        out = run_child_within_a_gib("vcdim", "--build", KCNF42_BUILD)
        assert (out.returncode, out.stdout, out.stderr) == (0, "8\n", "")

    def test_vcdim_of_a_wide_random_class_is_capped_within_a_gib(self, tmp_path):
        """200 random members on 40 points shatter 621,834 five-sets: the search would run
        for minutes, so it must stop at the work cap."""
        n = 40
        masks = random.Random(n).sample(range(1 << n), 200)
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"n": n, "functions": [format(m, f"0{n}b") for m in masks]}))
        start = time.monotonic()
        out = run_child_within_a_gib("vcdim", "--input", str(path))
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr.splitlines() == ["error: VC search is capped at 100000000 steps"]
        assert time.monotonic() - start < 30

    def test_extentures_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(suboplex.classes, "EXTENTURE_MAX_WORK", 1000)
        assert run(capsys, "extentures", "--build", KCNF32_BUILD) == (
            2, "", "error: extenture search is capped at 1000 steps"
        )

    def test_build_complex_with_many_vertices(self, capsys):
        spec = 'complex:{"vertices":10000000,"facets":[[0,1],[5,9999999]]}'
        code, out, _ = run(capsys, "build", "--build", spec, "--as", "complex")
        assert code == 0
        assert json.loads(out) == {"vertices": 10000000, "facets": [[0, 1], [5, 9999999]]}

    def test_shatter_set(self, capsys, flag_poset_file):
        code, out, _ = run(
            capsys, "shatter", "--input", flag_poset_file, "--set", "0,1,2"
        )
        assert code == 0 and out == "yes"
        code, out, _ = run(
            capsys, "shatter", "--input", flag_poset_file, "--set", "0,1,2,3"
        )
        assert code == 0 and out == "no"

    def test_shatter_facets(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "shatter", "--input", flag_poset_file)
        data = json.loads(out)
        assert data["vc_dimension"] == 3
        assert [0, 1, 2] in data["facets"]

    def test_build_poset_from_matroid(self, capsys):
        code, out, _ = run(capsys, "build", "--build", U11_U23_BUILD)
        assert code == 0
        assert json.loads(out) == FLAG_POSET

    def test_build_class_from_formula(self, capsys):
        code, out, _ = run(
            capsys, "build", "--build", 'formula:{"type":"parity_conj","d":2}', "--as", "class"
        )
        data = json.loads(out)
        assert data["n"] == 4 and len(data["functions"]) == 5

    def test_formula_file_kind_is_inferred(self, capsys, tmp_path):
        path = tmp_path / "formula.json"
        path.write_text('{"type":"parity_conj","d":2}')
        code, out, _ = run(capsys, "build", "--input", str(path), "--as", "class")
        assert code == 0 and len(json.loads(out)["functions"]) == 5

    def test_cube_build(self, capsys):
        code, out, _ = run(capsys, "hdim", "--build", 'cube:{"d":2}')
        assert code == 0 and out == "3"

    def test_cells_build(self, capsys):
        spec = 'cells:{"vertices":3,"faces":[[0],[1],[2],[0,1],[1,2],[0,2],[0,1,2]]}'
        code, out, _ = run(capsys, "vcdim", "--build", spec)
        assert code == 0 and out == "3"


class TestFieldFlag:
    def test_explicit_field(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "hdim", "--input", flag_poset_file, "--field", "3")
        assert code == 0 and out == "3"

    def test_default_is_gf2_whatever_the_environment(self, capsys, monkeypatch):
        # RP^2 is Cohen-Macaulay over GF(3) but not over GF(2)
        monkeypatch.setenv("SUBOPLEX_FIELD", "3")
        assert run(capsys, "check", "--cm", "--build", RP2_BUILD) == (0, "CM: no", "")

    def test_bad_field(self, capsys, flag_poset_file):
        code, _, err = run(capsys, "hdim", "--input", flag_poset_file, "--field", "4")
        assert code == 1 and "prime" in err

    def test_huge_characteristic_exits_2_at_once(self, flag_poset_file):
        """Trial division would take seconds on this prime; the cap refuses it first."""
        start = time.monotonic()
        out = run_child_within_a_gib("hdim", "--input", flag_poset_file, "--field", "10000000000000061")
        elapsed = time.monotonic() - start
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr.splitlines() == [
            "error: field characteristic is capped at 2147483647, got 10000000000000061"
        ]
        assert elapsed < 1.0


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "vcdim", "--input", str(path))
        assert code == 1 and "malformed JSON" in err

    def test_deeply_nested_json_is_one_error_line(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        spec = "class:" + "[" * 10_000 + "]" * 10_000
        assert len(spec.encode()) < 128 * 1024  # one argv string must fit the kernel's limit
        for origin, source in ((str(path), ["--input", str(path)]), ("--build spec", ["--build", spec])):
            out = run_child_within_a_gib("vcdim", *source)
            assert (out.returncode, out.stdout) == (1, ""), out.stderr
            lines = out.stderr.splitlines()
            assert len(lines) == 1, out.stderr
            assert lines[0].startswith(f"error: malformed JSON in {origin}: maximum recursion depth")

    def test_inconsistent_widths(self, capsys):
        code, _, err = run(
            capsys, "vcdim", "--build", 'class:{"n":3,"functions":["0111"]}'
        )
        assert code == 1 and "width" in err

    def test_cap_exit_code(self, capsys):
        with pytest.warns(UserWarning, match="constant"):
            code, _, err = run(
                capsys,
                "oracle",
                "betti",
                "--build",
                'class:{"n":8,"functions":["10000000"]}',
            )
        assert code == 2 and "capped" in err

    def test_vc_oracle_cap_exits_2_at_once(self):
        """256 members on 16 points pass every other cap; the oracle's scan would take seconds."""
        spec = json.dumps({"n": 16, "functions": [format(m * 257, "016b") for m in range(256)]})
        start = time.monotonic()
        out = run_child_within_a_gib("oracle", "vcdim", "--build", "class:" + spec)
        elapsed = time.monotonic() - start
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr.splitlines() == [
            "error: VC oracle is capped at 16777216 steps, 2^n * (members + 1), got 16842752"
        ]
        assert elapsed < 1.0

    def test_usage_error_exits_1(self, capsys, flag_poset_file):
        code, _, err = run(capsys, "vcdim", "--method", "brute", "--input", flag_poset_file)
        assert code == 1 and "unrecognized arguments: --method" in err
        code, _, err = run(capsys, "nope")
        assert code == 1 and "invalid choice" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "vcdim", "--help")
        assert code == 0 and out.startswith("usage: suboplex vcdim")

    def test_both_sources_rejected(self, capsys, flag_poset_file):
        code, _, err = run(
            capsys, "vcdim", "--input", flag_poset_file, "--build", "cube:{}"
        )
        assert code == 1 and "exactly one" in err

    @pytest.mark.parametrize(
        "spec",
        [
            'matroid:{"type":"uniform","k":"a","m":3}',
            'matroid:{"type":"graphic","vertices":"2","edges":[[0,1]]}',
            'matroid:{"type":"graphic","vertices":2,"edges":[[0,"a"]]}',
            'matroid:{"type":"linear","p":2,"matrix":[[1,"x"]]}',
            'cells:{"vertices":"3","faces":[[0,1]]}',
            'poset:{"n":"4","elements":["0000"]}',
            'class:{"n":"4","functions":["0000"]}',
            'complex:{"vertices":"3","facets":[[0,1]]}',
            'cube:{"d":"2"}',
            'formula:{"type":"kcnf","d":"3","k":2}',
        ],
    )
    def test_wrong_typed_field_is_one_error_line(self, capsys, spec):
        code, out, err = run(capsys, "build", "--build", spec)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "spec",
        [
            'matroid:{"type":"uniform","k":true,"m":3}',
            'cube:{"d":true}',
            'formula:{"type":"kcnf","d":2,"k":true}',
            'cells:{"vertices":3,"faces":[[0,true]]}',
            'matroid:{"type":"linear","p":2,"matrix":[[1,true]]}',
            'matroid:{"type":"graphic","vertices":2,"edges":[[0,true]]}',
            'complex:{"vertices":true,"facets":[[0]]}',
        ],
    )
    def test_json_booleans_are_not_integers(self, capsys, spec):
        target = "complex" if spec.startswith("complex:") else "poset"
        code, out, err = run(capsys, "build", "--as", target, "--build", spec)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_cell_faces_must_be_lists(self, capsys):
        code, out, err = run(capsys, "build", "--build", 'cells:{"vertices":3,"faces":[5]}')
        assert (code, out, err) == (1, "", "error: cell complex faces must be vertex lists")

    @pytest.mark.parametrize(
        "spec, line",
        [
            (
                'matroid:{"type":"uniform","k":16,"m":16}',
                "error: flat enumeration is capped at 20000 members, got 20001",
            ),
            (
                'formula:{"type":"kcnf","d":4,"k":3}',
                "error: intersection closure is capped at 20000 members, got 21230",
            ),
            (
                "formula:" + json.dumps({
                    "type": "csp",
                    "d": 4,
                    "generators": ["1" * v + "0" + "1" * (15 - v) for v in range(16)],
                }),
                "error: intersection closure is capped at 20000 members, got 32768",
            ),
        ],
    )
    def test_member_cap_exits_2_within_a_gib(self, spec, line):
        start = time.perf_counter()
        out = run_child_within_a_gib("build", "--build", spec)
        assert time.perf_counter() - start < 10
        assert (out.returncode, out.stdout, out.stderr.splitlines()) == (2, "", [line])

    @pytest.mark.parametrize("flag", ['"false"', "0", "1", "null", "[]"])
    def test_monotone_flag_must_be_a_boolean(self, capsys, flag):
        spec = 'formula:{"type":"kcnf","d":2,"k":1,"monotone":%s}' % flag
        code, out, err = run(capsys, "build", "--build", spec)
        assert (code, out) == (1, "")
        assert err == f"error: kcnf spec field 'monotone' must be bool, got {json.loads(flag)!r}"

    def test_monotone_flag_picks_the_class(self, capsys):
        sizes = {}
        for flag in ("", ',"monotone":false', ',"monotone":true'):
            spec = 'formula:{"type":"kcnf","d":2,"k":1%s}' % flag
            code, out, _ = run(capsys, "build", "--build", spec)
            assert code == 0
            sizes[flag] = len(json.loads(out)["elements"])
        assert list(sizes.values()) == [10, 10, 4]

    def test_non_closed_class_builds_no_poset(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a support poset was built")

        monkeypatch.setattr(SubsetPoset, "__init__", refuse)
        spec = 'class:{"n":7,"functions":["1010101","0101010"]}'
        for verb in ("hdim", "betti"):
            assert run(capsys, verb, "--build", spec) == (
                2, "", "error: Betti oracle is capped at 12 variables, got 14"
            )


INPUT_KINDS = {
    "poset": 'poset:{"n":3,"elements":["000","100","010","110","111"]}',
    "class": 'class:{"n":3,"functions":["000","100","011","111"]}',
    "formula": 'formula:{"type":"kcnf","d":2,"k":1}',
    "matroid": 'matroid:{"type":"uniform","k":2,"m":3}',
    "cube": 'cube:{"d":2}',
    "cells": 'cells:{"vertices":3,"faces":[[0],[1],[2],[0,1],[1,2],[0,2],[0,1,2]]}',
    "complex": 'complex:{"vertices":3,"facets":[[0,1],[1,2]]}',
}
NEEDS_CLASS = "error: this command needs a function class or poset input"
NEEDS_POSET = "error: this command needs a poset or function class input"
# verb -> its error line on a complex input; None where it answers
ON_A_COMPLEX = {
    "vcdim": NEEDS_CLASS,
    "hdim": NEEDS_CLASS,
    "betti": NEEDS_CLASS,
    "betti --method mobius": NEEDS_POSET,
    "mobius": NEEDS_POSET,
    "mobius --all": NEEDS_POSET,
    "extentures": NEEDS_CLASS,
    "shatter": NEEDS_CLASS,
    "shatter --set 0,1": NEEDS_CLASS,
    "check --cm": None,
    "check --acyclic": "error: complex inputs support only the --cm check",
    "build": NEEDS_POSET,
    "build --as class": NEEDS_CLASS,
    "build --as complex": None,
    "oracle betti": NEEDS_CLASS,
    "oracle reg": NEEDS_CLASS,
    "oracle vcdim": NEEDS_CLASS,
}


@pytest.mark.parametrize("kind", list(INPUT_KINDS))
@pytest.mark.parametrize("verb", list(ON_A_COMPLEX))
def test_every_verb_on_every_input_kind(capsys, verb, kind):
    code, out, err = run(capsys, *verb.split(), "--build", INPUT_KINDS[kind])
    if kind == "complex":
        expected = ON_A_COMPLEX[verb]
    elif verb == "build --as complex":
        expected = "error: this command needs a simplicial complex input"
    else:
        expected = None
    if expected is None:
        assert code == 0 and err == ""
    else:
        assert (code, out, err) == (1, "", expected)


def test_import_does_not_load_numpy():
    src = str(Path(suboplex.__file__).resolve().parent.parent)
    code = "import suboplex.cli, sys; assert 'numpy' not in sys.modules"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr


def test_import_loads_no_dataclasses_or_fractions():
    """A call pays only for what it uses: ranks over Q run on ints, so ``fractions``
    and ``decimal`` never load, and parsing the command line loads neither
    ``argparse`` nor what it pulls in."""
    src = str(Path(suboplex.__file__).resolve().parent.parent)
    code = f"""
import sys
import suboplex.cli
never = {{"dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal"}}
print(sorted(never & set(sys.modules)))
code = suboplex.cli.main(["betti", "--build", {U11_U23_BUILD!r}, "--field", "Q"])
print(sorted(never & set(sys.modules)), code)
codes = [suboplex.cli.main(argv) for argv in (["betti", "--help"], ["betti", "--f", "2"])]
print(sorted(never & set(sys.modules)), codes)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert "\n".join(lines[1:4]) == U11_U23_BETTI_TEXT
    assert lines[4] == "[] 0"
    assert lines[5].startswith("usage: suboplex betti")
    assert lines[-1] == "[] [0, 1]"


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["kcnf", "uniform"])
def test_benchmark_tables_are_unchanged(capsys, name):
    """The kcnf and uniform workloads' calls, in-process, print the benchmark's expected stdout."""
    expected = workloads.load_expected(name)
    workload = workloads.make_workload(name, workloads.DEFAULT_SEED)
    verbs = {call.args[0] for call in workload.calls}
    assert expected and verbs >= {"betti", "hdim", "check"}
    outputs = {}
    for call in workload.calls:
        assert main(call.args) == 0, call.label
        outputs[call.label] = capsys.readouterr().out
        if call.label in expected:
            assert outputs[call.label] == expected[call.label], call.label
        else:
            assert call.validate(outputs[call.label]), call.label
    for betti, mobius in workload.hall:
        assert workloads.hall_identity_holds(outputs[betti], outputs[mobius])


SYMMETRIC_INPUTS = [
    'cube:{"d":3}',
    KCNF32_BUILD,
    'formula:{"type":"monotone_kcnf","d":3,"k":2}',
    'formula:{"type":"parity_conj","d":3}',
    U47_BUILD,
]


@pytest.mark.parametrize("spec", SYMMETRIC_INPUTS)
def test_stdout_is_the_same_without_the_group(capsys, monkeypatch, spec):
    verbs = [["build"], ["betti", "--format", "json"], ["betti", "--field", "3"], ["hdim"],
             ["check", "--interval-cm", "--cm"], ["mobius", "--all"]]
    if spec != KCNF32_BUILD:
        verbs += [["check", "--acyclic"], ["betti", "--method", "mobius", "--field", "Q"]]
    outputs = []
    for _ in range(2):
        outputs.append([(main([*verb, "--build", spec]), capsys.readouterr()) for verb in verbs])
        init = SubsetPoset.__init__
        monkeypatch.setattr(
            SubsetPoset, "__init__", lambda self, n, elements, symmetry=(): init(self, n, elements)
        )
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# The process entry: a child ends through ``cli.run``, not the interpreter's teardown.

SRC = str(Path(suboplex.__file__).resolve().parent.parent)
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)
CONSTANT_CLASS = 'class:{"n":2,"functions":["10","11"]}'
CONSTANT_WARNING = (
    "UserWarning: coordinates {0} are constant across the class; "
    "consider restricting the ground set"
)


def cli_child(*argv):
    """``python -m suboplex.cli argv``, read through pipes."""
    return subprocess.run(
        [sys.executable, "-m", "suboplex.cli", *argv],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )


def test_kcnf_betti_json_through_a_pipe():
    out = cli_child("betti", "--build", KCNF32_BUILD, "--field", "2", "--format", "json")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == workloads.load_expected("kcnf")["betti_gf2"]


# Runs the CLI on its argv and prints the exit code, the stdout line count
# and the child's peak RSS in MB from ``wait4``.  A process inherits its
# parent's peak RSS at exec, whether it was forked or spawned, so a child of
# pytest reads at least pytest's heap; a child of this small script does not.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "suboplex.cli", *sys.argv[1:]],
                        stdout=subprocess.PIPE)
lines = sum(chunk.count(b"\\n") for chunk in iter(lambda: proc.stdout.read(1 << 16), b""))
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, lines, usage.ru_maxrss // 1024)
"""


def test_mobius_all_streams_each_bottom():
    """``mobius --all`` writes each bottom's lines as they come, so the 3^11
    lines of U(11,11) never sit in memory together: the call peaks within a
    few MB of a two-line table (41 MB against 17 MB when it joined them)."""

    def run_peak(k):
        spec = f'matroid:{{"type":"uniform","k":{k},"m":{k}}}'
        out = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, "mobius", "--all", "--build", spec],
            env=CHILD_ENV, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        code, lines, peak_mb = map(int, out.stdout.split())
        assert (code, lines) == (0, 3**k)
        return peak_mb

    assert run_peak(11) - run_peak(1) < 8


def test_degenerate_class_warning_reaches_stderr():
    out = cli_child("vcdim", "--build", CONSTANT_CLASS)
    assert (out.returncode, out.stdout) == (0, "1\n")
    lines = out.stderr.splitlines()
    assert len(lines) == 2 and lines[0].endswith(CONSTANT_WARNING), out.stderr
    assert lines[1].strip() == "warn_if_degenerate(c)"


@pytest.mark.parametrize(
    "argv, code, stdout_start, stderr_lines",
    [
        (["vcdim", "--build", U11_U23_BUILD], 0, "3\n", []),
        (["vcdim", "--build", 'class:{"n":3,"functions":["0111"]}'], 1, "",
         ["error: class functions entry '0111' has width 4, inconsistent with n = 3"]),
        (["vcdim", "--nope"], 1, "", [
            "usage: suboplex vcdim [-h] [--input INPUT] [--build BUILD] [--field FIELD]",
            "suboplex vcdim: error: unrecognized arguments: --nope",
        ]),
        (["nope"], 1, "", [
            "usage: suboplex [-h] {" + ",".join(VERBS) + "} ...",
            "suboplex: error: argument verb: invalid choice: 'nope' (choose from "
            + ", ".join(map(repr, VERBS)) + ")",
        ]),
        (["build", "--build", 'matroid:{"type":"uniform","k":16,"m":16}'], 2, "",
         ["error: flat enumeration is capped at 20000 members, got 20001"]),
        (["--help"], 0, "usage: suboplex [-h] {", []),
        (["betti", "--help"], 0, "usage: suboplex betti [-h]", []),
    ],
)
def test_exit_codes_of_a_child(argv, code, stdout_start, stderr_lines):
    out = cli_child(*argv)
    assert (out.returncode, out.stderr.splitlines()) == (code, stderr_lines)
    if stdout_start:
        assert out.stdout.startswith(stdout_start)
    else:
        assert out.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--build", KCNF32_BUILD, "--format", "json"],  # fails in the verb's writes
        ["vcdim", "--build", KCNF32_BUILD],  # fails in the final flush
    ],
)
def test_closed_stdout_pipe_exits_1_without_a_traceback(argv):
    """A reader that is gone before the child writes: exit 1, nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "suboplex.cli", *argv],
            env=CHILD_ENV, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, "")


def test_uncaught_exception_in_a_verb_keeps_its_traceback():
    code = (
        "import sys, suboplex.classes, suboplex.cli as cli\n"
        "suboplex.classes.vc_dimension = lambda c: 1 // 0\n"
        f"sys.argv[1:] = ['vcdim', '--build', {U11_U23_BUILD!r}]\n"
        "cli.run()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )
    assert (out.returncode, out.stdout) == (1, "")
    lines = out.stderr.splitlines()
    assert lines[0] == "Traceback (most recent call last):", out.stderr
    assert lines[-1] == "ZeroDivisionError: integer division or modulo by zero"
    assert any("in _cmd_vcdim" in line for line in lines)


def test_script_and_main_block_call_the_same_entry():
    """``[project.scripts] suboplex`` names what ``python -m suboplex.cli`` calls.

    pyproject.toml is read as text, since Python 3.10 has no ``tomllib``.
    """
    root = Path(__file__).resolve().parent.parent
    scripts = root.joinpath("pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")
    assert len(scripts) == 2
    section = scripts[1].split("\n[", 1)[0]
    targets = [line.split("=", 1)[1].strip().strip('"') for line in section.splitlines()
               if line.split("=", 1)[0].strip() == "suboplex"]
    tree = ast.parse(Path(suboplex.cli.__file__).read_text(encoding="utf-8"))
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1
    [statement] = blocks[0].body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
    assert not statement.value.args and not statement.value.keywords
    assert targets == [f"suboplex.cli:{ast.unparse(statement.value.func)}"] == ["suboplex.cli:run"]


# ---------------------------------------------------------------------------
# Parsing: the verb table against the argparse grammar it replaced.

REFERENCE = build_parser()
REFERENCE_VERBS = REFERENCE._subparsers._group_actions[0].choices
SAMPLE_VALUES = ["x.json", "@ic6.json", KCNF32_BUILD, "3", "Q", "0,1,2", "-1", "-x y", ""]


def parse_outcome(parse, argv):
    """The parsed attributes, "help" after help on stdout, or "error" after a usage error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as e:
        if e.code == 0:
            assert out.getvalue().startswith("usage: suboplex") and not err.getvalue(), argv
            return "help"
        assert not out.getvalue() and err.getvalue().startswith("usage: suboplex"), argv
        return "error"


def assert_same_parse(argv):
    expected = parse_outcome(REFERENCE.parse_args, argv)
    assert parse_outcome(parse_args, argv) == expected, argv
    return expected


def generated_argvs(rng):
    """Each verb's options from the reference grammar, shuffled and mangled."""
    yield from ([], ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"], ["--help=x"], ["nope"],
                ["--bogus"], ["--bogus", "vcdim", "--build", "x"], ["-1"], ["--"],
                ["--", "vcdim"], ["Vcdim"], ["vc"], ["vcdim", "-h", "--bogus"],
                ["oracle", "--", "betti"], ["oracle", "betti", "--"],
                ["oracle", "--build", "x", "--", "betti"], ["oracle", "--", "--", "betti"],
                ["oracle", "betti", "--build", "x", "--"], ["vcdim", "--build", "x", "--"],
                ["vcdim", "--build", "--", "x"], ["vcdim", "--", "--build", "x"])
    for verb, sub in REFERENCE_VERBS.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        longs = [s for a in sub._actions for s in a.option_strings if s.startswith("--")]
        ambiguous = sorted({
            s[:k] for s in longs for k in range(3, len(s))
            if sum(o.startswith(s[:k]) for o in longs) > 1 and s[:k] not in longs
        })
        for _ in range(40):
            words: list[list[str]] = []
            for a in actions:
                if rng.random() < 0.4:
                    continue
                value = rng.choice(list(a.choices or SAMPLE_VALUES))
                if not a.option_strings:
                    words.append([value])
                    continue
                flag = a.option_strings[0]
                unique = [flag[:k] for k in range(3, len(flag))
                          if sum(o.startswith(flag[:k]) for o in longs) == 1]
                if unique and rng.random() < 0.3:
                    flag = rng.choice(unique)
                if a.nargs == 0:
                    words.append([flag])
                elif rng.random() < 0.3:
                    words.append([f"{flag}={value}"])
                else:
                    words.append([flag, value])
                if a.nargs != 0 and rng.random() < 0.15:  # repeated: the last one wins
                    words.append([flag, rng.choice(list(a.choices or SAMPLE_VALUES))])
            rng.shuffle(words)
            argv = [verb, *(w for word in words for w in word)]
            mangle = rng.randrange(12)
            spot = rng.randrange(1, len(argv) + 1)
            if mangle == 0 and ambiguous:
                argv.insert(spot, rng.choice(ambiguous))
            elif mangle == 1:  # a missing value
                valued = [a.option_strings[0] for a in actions if a.option_strings and a.nargs != 0]
                argv.insert(spot, rng.choice(valued))
            elif mangle == 2:
                argv.insert(spot, rng.choice(["--format", "--as", "--method"]))
                argv.insert(spot + 1, "bogus")
            elif mangle == 3:
                argv.insert(spot, rng.choice(["--bogus", "-x", "--bogus=1", "-1"]))
            elif mangle == 4:
                argv.insert(spot, rng.choice(["stray", "betti"]))
            elif mangle == 5:
                argv.insert(spot, rng.choice(["-h", "--help", "--h", "--hel", "-hh", "-hx"]))
            elif mangle == 6:
                argv.insert(spot, rng.choice(["--all=1", "--cm=", "--help="]))
            elif mangle == 7:
                argv.insert(spot, "--")
            yield argv


def workload_argvs():
    for name in workloads.WORKLOAD_NAMES:
        w = workloads.make_workload(name, workloads.DEFAULT_SEED)
        yield from (call.args for call in w.calls)
        for pair in (*w.hall, *w.same_output):
            yield from (args for args in pair if isinstance(args, list))


class TestParser:
    def test_every_benchmark_call_parses_the_same(self):
        argvs = list(workload_argvs())
        assert len(argvs) >= 44
        for argv in argvs:
            assert isinstance(assert_same_parse(argv), dict), argv

    def test_generated_argvs_parse_the_same(self, rng):
        outcomes = [assert_same_parse(argv) for argv in generated_argvs(rng)]
        assert {"help", "error"} <= set(map(str, outcomes))
        assert sum(isinstance(o, dict) for o in outcomes) > len(outcomes) // 4

    def test_forms_of_one_option(self):
        expected = {"verb": "betti", "func": suboplex.cli._cmd_betti, "input": None,
                    "build": "x", "field": "3", "format": "json", "method": None}
        for argv in (["betti", "--build", "x", "--field", "3", "--format", "json"],
                     ["betti", "--format=json", "--fi=3", "--b", "x"],
                     ["betti", "--format", "m2", "--build=y", "--format=json", "--bu=x", "--fie", "3"]):
            assert vars(parse_args(argv)) == expected
            assert assert_same_parse(argv) == expected

    def test_positional_anywhere(self):
        for argv in (["oracle", "reg", "--build", "x"], ["oracle", "--build", "x", "reg"],
                     ["oracle", "--format", "json", "reg", "--build", "x"]):
            assert parse_args(argv).what == "reg"
            assert_same_parse(argv)

    def test_usage_error_lines(self, capsys):
        for argv, verb, message in [
            (["betti", "--f", "2"], "betti", "ambiguous option: --f could match --field, --format"),
            (["check", "--input"], "check", "argument --input: expected one argument"),
            (["oracle", "--build", "x"], "oracle", "the following arguments are required: what"),
            ([], None, "the following arguments are required: verb"),
        ]:
            assert main(argv) == 1
            out, err = capsys.readouterr()
            usage, error = err.splitlines()
            assert out == "" and usage.startswith("usage: suboplex" + (f" {verb} " if verb else " "))
            assert error == f"suboplex{' ' + verb if verb else ''}: error: {message}"

    def test_help_lists_every_option(self, capsys):
        for verb, sub in REFERENCE_VERBS.items():
            assert main([verb, "--help"]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"usage: suboplex {verb} [-h]")
            for a in sub._actions:
                assert all(s in out for s in a.option_strings)
                assert all(c in out for c in a.choices or ())
        assert main(["-h"]) == 0
        out = capsys.readouterr().out
        assert all(f"  {verb} " in out for verb in REFERENCE_VERBS)

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("suboplex ")]
        assert len(lines) >= 10
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            assert isinstance(assert_same_parse(argv), dict), line
