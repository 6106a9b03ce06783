import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import suboplex
import suboplex.builders

ROOT = Path(__file__).resolve().parents[1]

# Adding or removing an export must show up as a diff of these lists.

SUBOPLEX_EXPORTS = [
    "BettiTable",
    "CapExceededError",
    "FieldSpec",
    "FunctionClass",
    "GF2",
    "GF3",
    "HomologyProfile",
    "IdealGenerators",
    "Interval",
    "PartialFunction",
    "QQ",
    "SimplicialComplex",
    "SquarefreeMonomial",
    "Subset",
    "SubsetPoset",
    "ValidationError",
    "betti_oracle",
    "betti_via_intervals",
    "betti_via_mobius",
    "class_from_poset",
    "collapse_membership",
    "delta",
    "dual_ideal",
    "extentures",
    "flip_class",
    "homological_dimension",
    "intersect",
    "intersection_closure",
    "interval_homology",
    "is_cohen_macaulay",
    "is_interval_cm",
    "is_shattered",
    "monomial",
    "order_complex",
    "reduced_euler_characteristic",
    "reduced_homology",
    "regularity_oracle",
    "shatter_complex",
    "suboplex_ideal",
    "truncated_order_complex",
    "vc_dimension",
    "vc_oracle",
    "warn_if_degenerate",
]

BUILDERS_EXPORTS = [
    "CellComplexInput",
    "DirectSumMatroid",
    "FormulaClassSpec",
    "GraphicMatroid",
    "LinearMatroid",
    "Matroid",
    "MinorMatroid",
    "UniformMatroid",
    "cube_complex",
    "cube_faces",
    "face_poset",
    "formula_class",
    "simplex_input",
]


def test_package_exports():
    assert sorted(suboplex.__all__) == SUBOPLEX_EXPORTS


def test_builders_exports():
    assert sorted(suboplex.builders.__all__) == BUILDERS_EXPORTS


def test_every_export_resolves():
    for module in (suboplex, suboplex.builders):
        for name in module.__all__:
            assert hasattr(module, name), name


# Every (module, attribute) that ``install()`` in perfbench/tracer.py
# patches.  The tracer skips a name that no longer resolves without any
# error, so removing or renaming one of these silently drops declared
# per-layer metrics (such as ``complexes.link.*``) from ``--trace 1``
# results.  Methods are patched on the class that defines them.
TRACED_NAMES = [
    ("suboplex.io", "poset_from_json"),
    ("suboplex.io", "class_from_json"),
    ("suboplex.io", "complex_from_json"),
    ("suboplex.io", "matroid_from_json"),
    ("suboplex.io", "cells_from_json"),
    ("suboplex.io", "formula_from_json"),
    ("suboplex.builders.matroids", "Matroid.flats"),
    ("suboplex.builders.cells", "cube_complex"),
    ("suboplex.builders.cells", "face_poset"),
    ("suboplex.builders.formulas", "formula_class"),
    ("suboplex.posets", "SubsetPoset.__init__"),
    ("suboplex.posets", "SubsetPoset.interval"),
    ("suboplex.posets", "SubsetPoset.rank"),
    ("suboplex.posets", "SubsetPoset.mobius"),
    ("suboplex.posets", "SubsetPoset.chain_masks"),
    ("suboplex.complexes", "order_complex"),
    ("suboplex.complexes", "SimplicialComplex.from_faces"),
    ("suboplex.complexes", "SimplicialComplex.link"),
    ("suboplex.complexes", "reduced_homology"),
    ("suboplex.complexes", "ChainHomology.boundary_rank"),
    ("suboplex.complexes", "ChainHomology.betti"),
    ("suboplex.complexes", "truncated_order_complex"),
    ("suboplex.linalg", "rank_from_columns"),
    ("suboplex.betti", "betti_via_intervals"),
    ("suboplex.betti", "betti_via_mobius"),
    ("suboplex.betti", "homological_dimension"),
    ("suboplex.classes", "vc_dimension"),
    ("suboplex.classes", "is_shattered"),
    ("suboplex.classes", "shatter_complex"),
    ("suboplex.classes", "extentures"),
    ("suboplex.classes", "dual_ideal"),
    ("suboplex.classes", "suboplex_ideal"),
    ("suboplex.oracles", "betti_oracle"),
]


def test_every_traced_name_resolves():
    for module_name, attr in TRACED_NAMES:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def child(*args: str, cwd: Path = ROOT) -> str:
    """stdout of a fresh interpreter that imports this checkout's ``suboplex``."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


# The tracer installs its wrappers right after ``import suboplex.cli`` and
# skips a name whose module is not in ``sys.modules`` by then, so a module
# that the CLI imported only on demand would silently lose its per-layer
# metrics.  The package registers every submodule there unrun
# (``importlib.util.LazyLoader``), and the tracer's ``getattr`` runs each
# module it patches, so a call still compiles only what its verb uses.
def test_cli_import_loads_every_traced_module():
    modules = sorted({module for module, _ in TRACED_NAMES})
    code = f"import sys, suboplex.cli; print(*[m for m in {modules!r} if m not in sys.modules])"
    assert child("-c", code).split() == []


def test_tracer_installs_every_name_a_metric_needs(tmp_path):
    spans = tmp_path / "spans.json"
    child(str(ROOT / "perfbench" / "tracer.py"), str(spans), "betti", "--build", 'cube:{"d":2}')
    installed = set(json.loads(spans.read_text())["installed"])
    code = "import json, layers; print(json.dumps([row[-1] for row in layers.PER_LAYER]))"
    needs = {name for name in json.loads(child("-c", code, cwd=ROOT / "perfbench")) if name}
    assert needs and needs <= installed, sorted(needs - installed)


KCNF32 = 'formula:{"type":"kcnf","d":3,"k":2}'
U58 = 'matroid:{"type":"uniform","k":5,"m":8}'

# What the tracer reports as installed, on every call.
TRACER_INSTALLS = {
    "betti.intervals", "betti.intervals_nonzero", "betti.sweep", "builders",
    "classes.extentures", "classes.ideal", "classes.vc", "complexes.boundary",
    "complexes.from_faces", "complexes.homology", "complexes.link", "complexes.order_complex",
    "import.suboplex", "io.parse", "linalg.rank", "oracles.betti", "posets.chains",
    "posets.init", "posets.interval", "posets.mobius", "posets.rank",
}


def test_tracer_installs_every_name_on_the_leanest_call(tmp_path):
    """A kcnf ``vcdim`` call runs none of ``betti``, ``complexes``, ``linalg``,
    ``oracles`` or ``builders.matroids`` on its own, yet the tracer still
    installs every name it installs on ``betti``."""
    spans = tmp_path / "spans.json"
    child(str(ROOT / "perfbench" / "tracer.py"), str(spans), "vcdim", "--build", KCNF32)
    installed = set(json.loads(spans.read_text())["installed"])
    code = "import json, layers; print(json.dumps([row[-1] for row in layers.PER_LAYER]))"
    needs = {name for name in json.loads(child("-c", code, cwd=ROOT / "perfbench")) if name}
    assert needs and needs <= installed, sorted(needs - installed)
    assert installed == TRACER_INSTALLS


# A child that records every file it compiles (the ``compile`` audit event)
# and then runs one CLI call in-process.
COMPILES = """
import json, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(args[1]))
import suboplex.cli
code = suboplex.cli.main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps([code, [f for f in compiled if isinstance(f, str)]]), file=sys.stderr)
"""

PACKAGE = ROOT / "src" / "suboplex"
NEVER_FOR_KCNF = {"betti.py", "complexes.py", "linalg.py", "oracles.py", "builders/matroids.py"}
NEVER_FOR_U58 = {"betti.py", "complexes.py", "oracles.py", "builders/formulas.py",
                 "builders/cells.py"}


def compiled_files(tmp_path, *argv: str) -> set[str]:
    """The package files that one CLI call compiles, with no bytecode cache to read."""
    cache = tmp_path / "pycache"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONPYCACHEPREFIX=str(cache),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", COMPILES, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    code, files = json.loads(done.stderr.splitlines()[-1])
    assert code == 0 and not cache.exists(), done.stderr
    return {Path(f).resolve().relative_to(PACKAGE).as_posix() for f in files
            if Path(f).resolve().is_relative_to(PACKAGE)}


@pytest.mark.parametrize("argv, never", [
    (["mobius", "--all", "--build", KCNF32], NEVER_FOR_KCNF),
    (["build", "--build", KCNF32], NEVER_FOR_KCNF),
    (["mobius", "--all", "--build", U58], NEVER_FOR_U58),
    (["build", "--build", U58], NEVER_FOR_U58 | {"classes.py"}),
    (["check", "--intersection-closed", "--build", KCNF32], {"betti.py", "complexes.py"}),
    (["betti", "--build", 'cube:{"d":2}'], {"oracles.py"}),
    (["betti", "--build", 'class:{"n":3,"functions":["000","100","010","110","111"]}'],
     {"oracles.py"}),
])
def test_each_call_compiles_only_the_modules_its_verb_uses(tmp_path, argv, never):
    compiled = compiled_files(tmp_path, *argv)
    assert {"__init__.py", "cli.py", "posets.py"} <= compiled
    assert not compiled & never, sorted(compiled & never)


def test_kcnf_vcdim_compiles_ten_modules(tmp_path):
    assert compiled_files(tmp_path, "vcdim", "--build", KCNF32) == {
        "__init__.py", "bitsets.py", "builders/__init__.py", "builders/cells.py",
        "builders/formulas.py", "classes.py", "cli.py", "errors.py", "io.py", "posets.py",
    }
