import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import suboplex
from conftest import RP2_FACETS
from suboplex.bundled import U11_U23_BETTI_TEXT
from suboplex.cli import main

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


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
        rp2 = "complex:" + json.dumps({
            "vertices": 6,
            "facets": [[v for v in range(6) if f >> v & 1] for f in RP2_FACETS],
        })
        cases = [
            (["--interval-cm", "--build", 'matroid:{"type":"uniform","k":4,"m":7}'],
             "interval-CM: yes; CM: yes"),
            (["--cm", "--build", 'cube:{"d":4}'], "CM: yes"),
            (["--cm", "--build", rp2, "--field", "2"], "CM: no"),
            (["--cm", "--build", rp2, "--field", "3"], "CM: yes"),
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


class TestOtherVerbs:
    def test_mobius_bounded(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "mobius", "--input", flag_poset_file)
        assert code == 0 and out == "-2"

    def test_mobius_all(self, capsys, flag_poset_file):
        code, out, _ = run(capsys, "mobius", "--all", "--input", flag_poset_file)
        assert "0000 0111 2" in out.splitlines()

    def test_extentures(self, capsys):
        code, out, _ = run(
            capsys, "extentures", "--build", 'class:{"n":2,"functions":["10","01"]}'
        )
        assert code == 0 and out.splitlines() == ["00", "11"]

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

    def test_env_default(self, capsys, flag_poset_file, monkeypatch):
        monkeypatch.setenv("SUBOPLEX_FIELD", "Q")
        code, out, _ = run(capsys, "hdim", "--input", flag_poset_file)
        assert code == 0 and out == "3"

    def test_bad_field(self, capsys, flag_poset_file):
        code, _, err = run(capsys, "hdim", "--input", flag_poset_file, "--field", "4")
        assert code == 1 and "prime" in err


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "vcdim", "--input", str(path))
        assert code == 1 and "malformed JSON" in err

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

    def test_both_sources_rejected(self, capsys, flag_poset_file):
        code, _, err = run(
            capsys, "vcdim", "--input", flag_poset_file, "--build", "cube:{}"
        )
        assert code == 1 and "exactly one" in err


def test_import_does_not_load_numpy():
    src = str(Path(suboplex.__file__).resolve().parent.parent)
    code = "import suboplex.cli, sys; assert 'numpy' not in sys.modules"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
