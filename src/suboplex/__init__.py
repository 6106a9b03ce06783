"""Exact learning-theoretic and homological invariants of Boolean function classes.

The core objects: subsets of [n] doubling as Boolean functions,
function classes and their squarefree ideals, inclusion posets with
Moebius functions, order complexes with exact reduced homology over a
configurable field, multigraded Betti tables, and brute-force oracles
cross-checking every fast path.

Importing the package compiles and runs none of its modules but
``builders``' small ``__init__``.  Each submodule is put in
``sys.modules`` and in its package's namespace through
``importlib.util.LazyLoader``, and runs on the first read of one of its
attributes; the public names below are served from their modules by a
module ``__getattr__`` (PEP 562).  So a CLI call compiles only the
modules its verb reaches: of the 17, a formula ``mobius`` or ``build``
call compiles 9 and a formula ``vcdim`` 10 (``shattering``, not
``classes``), and a ``vcdim``, ``betti`` or ``hdim`` on a closed input
compiles neither ``classes`` nor ``complexes``.  A
tool that reads a module's attributes (the benchmark's tracer, ``vars``
of each loaded module) runs it first.  On Python 3.11 ``LazyLoader``
takes no lock, so a threaded program should read the names it uses
before it starts its threads.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

__version__ = "0.1.0"


def _lazy_package(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """Register each submodule named in ``exports`` unrun; serve its exports by name.

    ``exports`` maps a submodule to the public names it defines.  Returns
    the package's ``__all__``, ``__getattr__`` and ``__dir__``.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}
    for module in exports:
        spec = PathFinder.find_spec(f"{package}.{module}", namespace["__path__"])
        spec.loader = LazyLoader(spec.loader)
        namespace[module] = sys.modules[spec.name] = module_from_spec(spec)
        spec.loader.exec_module(namespace[module])

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(namespace[home[name]], name)

    return sorted(home), __getattr__, lambda: sorted({*namespace, *home})


__all__, __getattr__, __dir__ = _lazy_package(globals(), {
    "betti": ("BettiTable", "betti_via_intervals", "betti_via_mobius", "homological_dimension"),
    "bitsets": ("Subset",),
    "classes": (
        "FunctionClass", "IdealGenerators", "PartialFunction", "SquarefreeMonomial",
        "class_from_poset", "dual_ideal", "extentures", "is_shattered", "monomial",
        "shatter_complex", "suboplex_ideal", "warn_if_degenerate",
    ),
    "complexes": (
        "HomologyProfile", "SimplicialComplex", "is_cohen_macaulay", "order_complex",
        "reduced_homology", "truncated_order_complex",
    ),
    "errors": ("CapExceededError", "ValidationError"),
    "homology": ("interval_homology", "is_interval_cm"),
    "io": (),
    "linalg": ("GF2", "GF3", "QQ", "FieldSpec"),
    "oracles": ("betti_oracle", "regularity_oracle", "vc_oracle"),
    "posets": ("Interval", "SubsetPoset", "intersection_closure"),
    "shattering": ("vc_dimension",),
})

from . import builders  # noqa: E402  (registers its own submodules the same way)
