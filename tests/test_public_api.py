import ast
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
U47 = 'matroid:{"type":"uniform","k":4,"m":7}'

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
    # A formula reaches the CLI as its support poset, and the sweeps, their
    # homology and the tables need no class and no simplicial complex.
    (["mobius", "--all", "--build", KCNF32], {"classes.py"}),
    (["build", "--build", KCNF32], {"classes.py"}),
    (["check", "--intersection-closed", "--build", KCNF32], {"classes.py"}),
    (["betti", "--build", KCNF32], {"classes.py"}),
    (["hdim", "--build", KCNF32], {"classes.py"}),
    (["betti", "--build", U58, "--field", "3"], {"classes.py", "complexes.py"}),
    (["betti", "--build", U58, "--method", "mobius"], {"classes.py", "complexes.py"}),
    (["hdim", "--build", U58], {"classes.py", "complexes.py"}),
    # Uniform flats take no elimination.
    (["build", "--build", U58], {"linalg.py"}),
    (["mobius", "--all", "--build", U58], {"linalg.py"}),
    (["check", "--interval-cm", "--build", U47], {"complexes.py"}),
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


# Names that moved to the module whose code uses them: each still resolves
# from ``suboplex`` to the object its new module defines.
MOVED = {
    "suboplex.classes": ["PartialFunction", "SquarefreeMonomial", "delta", "intersect", "monomial"],
    "suboplex.homology": ["interval_homology", "is_interval_cm"],
}


def test_moved_names_resolve_from_their_new_modules():
    for module_name, names in MOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert getattr(suboplex, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module_name, name
    # the tracer patches ChainHomology's methods through ``complexes``
    assert suboplex.complexes.ChainHomology is suboplex.homology.ChainHomology


# The package's module-level import graph: "a -> b" when running module a
# runs module b (``from .b import name``).  ``from . import b`` of a module
# that the package registers unrun binds it without running it, so it is no
# edge; imports under ``if TYPE_CHECKING:`` and inside functions never run at
# load.  An edge added here puts b on every call that runs a.
IMPORT_GRAPH = [
    "betti -> bitsets",
    "betti -> errors",
    "betti -> homology",
    "betti -> linalg",
    "betti -> posets",
    "bitsets -> errors",
    "builders -> suboplex",
    "builders.cells -> bitsets",
    "builders.cells -> errors",
    "builders.cells -> posets",
    "builders.formulas -> bitsets",
    "builders.formulas -> builders.cells",
    "builders.formulas -> errors",
    "builders.formulas -> posets",
    "builders.matroids -> bitsets",
    "builders.matroids -> errors",
    "builders.matroids -> posets",
    "classes -> bitsets",
    "classes -> errors",
    "classes -> posets",
    "cli -> bitsets",
    "cli -> builders",
    "cli -> errors",
    "complexes -> bitsets",
    "complexes -> errors",
    "complexes -> homology",
    "complexes -> linalg",
    "complexes -> posets",
    "homology -> bitsets",
    "homology -> errors",
    "homology -> linalg",
    "io -> bitsets",
    "io -> errors",
    "io -> posets",
    "linalg -> bitsets",
    "linalg -> errors",
    "oracles -> betti",
    "oracles -> classes",
    "oracles -> errors",
    "oracles -> homology",
    "oracles -> linalg",
    "posets -> bitsets",
    "posets -> errors",
    "suboplex -> builders",
]


def _registered_unrun(package: Path) -> set[str]:
    """The submodules that ``package``'s ``__init__`` hands to ``_lazy_package``."""
    for node in ast.walk(ast.parse((package / "__init__.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_package":
            return {key.value for key in node.args[1].keys}
    return set()


def _runs_at_load(body: list[ast.stmt]):
    """The import statements of a module body that run when the module runs."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and getattr(node.test, "id", None) != "TYPE_CHECKING":
            yield from _runs_at_load(node.body + node.orelse)


def import_graph() -> list[str]:
    def name(parts: tuple[str, ...]) -> str:
        return ".".join(parts) or "suboplex"

    edges = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        package = parts[:-1]
        here = package if parts[-1] == "__init__" else parts
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _runs_at_load(tree.body):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "suboplex" for a in node.names), path
                continue
            if not node.level:  # the standard library
                assert node.module.split(".")[0] != "suboplex", path
                continue
            base = package[: len(package) - node.level + 1]
            if node.module:
                edges.add(f"{name(here)} -> {name((*base, *node.module.split('.')))}")
                continue
            unrun = _registered_unrun(PACKAGE.joinpath(*base))
            for alias in node.names:
                if alias.name in unrun:
                    continue
                is_module = (PACKAGE.joinpath(*base, alias.name)).is_dir() or (
                    PACKAGE.joinpath(*base, alias.name + ".py").exists())
                target = (*base, alias.name) if is_module else base
                edges.add(f"{name(here)} -> {name(target)}")
    return sorted(edges)


def test_module_level_import_graph():
    assert import_graph() == IMPORT_GRAPH


def test_no_module_imports_fractions():
    """Ranks over Q run on ints, so no import anywhere in a module, at load or
    inside a function, may bring in ``fractions`` or the ``decimal`` it loads."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & {"fractions", "decimal"}, path
