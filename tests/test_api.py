"""The public names of the package, and the names the benchmark's tracer rebinds.

``bench/tracing.py`` wraps package functions by (module, attribute) and
swaps four class attributes; a rename under ``src/`` would break a traced
benchmark run without failing any other test, so this file reads the
tracer's tables and checks every entry against the package.

The package's ``__all__`` is pinned, and every name a submodule exports must
have a user outside its module, so an export that nothing needs fails here.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import nichols_dm
from nichols_dm.cyclo import CycloNumber
from nichols_dm.lifting import LiftingDatum

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(nichols_dm.__path__))
# the class attributes Tracer.install swaps, besides its SPANS tables
CLASS_ATTRS = [
    (CycloNumber, "__mul__"),
    (CycloNumber, "__rmul__"),
    (CycloNumber, "inverse"),
    (LiftingDatum, "build"),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PUBLIC = """
    CompletionError CyclicCharacter CycloNumber DihedralGroup DomainError Finite
    GroupElement Infinite Irrep KleinFourCharacter LiftingDatum N_i Presentation Rack
    RewriteSystem UnitModM YDModule act_ell act_pair are_equivalent braiding
    centralizer class_of conjugacy_classes conjugation_rack
    cyclotomic_polynomial dimension direct_sum enumerate_I enumerate_K enumerate_L
    hopf_check induce irreps is_isomorphic_A is_isomorphic_B is_type_D iso_classes
    nichols_dimension normal_basis presentation_A presentation_B support_J
    theorem_A_report
""".split()


def test_package_exports_resolve():
    missing = [name for name in nichols_dm.__all__ if not hasattr(nichols_dm, name)]
    assert not missing
    assert sorted(nichols_dm.__all__) == PUBLIC


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"nichols_dm.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def _used_names(text):
    """The names a module's code reads or imports; docstrings and comments are not code."""
    used = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_export_has_a_user():
    # a user is another module of the package (the re-export in __init__
    # counts, and PUBLIC pins those), the acceptance tests, or the tracer
    src = Path(nichols_dm.__file__).parent
    tracing = _load_tracing()
    traced = set(tracing.SPANS) | set(tracing.GENERATOR_SPANS)
    acceptance = _used_names((ROOT / "tests" / "test_acceptance.py").read_text())
    unused = []
    for name in SUBMODULES:
        module = importlib.import_module(f"nichols_dm.{name}")
        used = acceptance.union(
            *(_used_names(path.read_text()) for path in src.glob("*.py") if path.stem != name)
        )
        for attr in getattr(module, "__all__", ()):
            if (name, attr) not in traced and attr not in used:
                unused.append(f"{name}.{attr}")
    assert unused == []


def test_traced_names_exist():
    tracing = _load_tracing()
    for table in (tracing.SPANS, tracing.GENERATOR_SPANS):
        for mod, attr in table:
            assert mod in SUBMODULES, mod
            module = importlib.import_module(f"nichols_dm.{mod}")
            assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
    for cls, attr in CLASS_ATTRS:
        assert attr in vars(cls), f"{cls.__name__}.{attr}"


def _package_state():
    state = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "nichols_dm" or name.startswith("nichols_dm.")
    }
    state.update({(cls, attr): vars(cls)[attr] for cls, attr in CLASS_ATTRS})
    return state


def test_tracer_installs_and_restores():
    tracing = _load_tracing()
    before = _package_state()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert vars(CycloNumber)["__mul__"] is not before[(CycloNumber, "__mul__")]
        assert CycloNumber.root(12, 1) * CycloNumber.root(12, 2) == CycloNumber.root(12, 3)
        assert tracer.counts["cyclo.mul.calls"] == 1
    finally:
        tracer.uninstall()
    assert _package_state() == before
