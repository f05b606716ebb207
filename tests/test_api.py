"""The public names of the package, and the names the benchmark's tracer rebinds.

``bench/tracing.py`` wraps package functions by (module, attribute) and
swaps four class attributes; a rename under ``src/`` would break a traced
benchmark run without failing any other test, so this file reads the
tracer's tables and checks every entry against the package.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import nichols_dm
from nichols_dm.cyclo import CycloNumber
from nichols_dm.lifting import LiftingDatum

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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


def test_package_exports_resolve():
    missing = [name for name in nichols_dm.__all__ if not hasattr(nichols_dm, name)]
    assert not missing
    assert len(set(nichols_dm.__all__)) == len(nichols_dm.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"nichols_dm.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


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
