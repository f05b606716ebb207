"""Spans and counters around the package's layers, recorded from outside the package.

``Tracer.install()`` rebinds public functions of ``nichols_dm`` to timing
wrappers wherever a module of the package looks them up: in the defining
module and in every module that imported the name (``ydmod`` binds
``centralizer`` at import, for example).  Nothing under ``src/`` changes and
``uninstall()`` puts the originals back.

A span is ``[name, start, end, parent, job]``; spans are kept in memory and
written out by ``dump``.  A span's self time is its duration minus the
durations of its direct children.  ``CycloNumber`` multiplication and
inversion are only counted: they are too frequent to time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) -> span name; several functions may share one name
SPANS = {
    ("classify", "theorem_A_report"): "classify.theorem_A_report",
    ("classify", "irreducible_survey"): "classify.irreducible_survey",
    ("dihedral", "centralizer"): "dihedral.centralizer",
    ("dihedral", "class_of"): "dihedral.class_of",
    ("rack", "is_type_D"): "rack.is_type_D",
    ("ydmod", "induce"): "ydmod.induce",
    ("ydmod", "nichols_dimension"): "ydmod.nichols_dimension",
    ("lifting", "presentation_A"): "lifting.presentation",
    ("lifting", "presentation_B"): "lifting.presentation",
    ("lifting", "presentation_L"): "lifting.presentation",
    ("rewrite", "compile"): "rewrite.compile",
    ("rewrite", "normal_basis"): "rewrite.normal_basis",
    ("rewrite", "hopf_check"): "rewrite.hopf_check",
    ("rewrite", "certificate_json"): "rewrite.certificate_json",
    ("iso", "iso_classes"): "iso.iso_classes",
    ("iso", "is_isomorphic_A"): "iso.is_isomorphic",
    ("iso", "is_isomorphic_B"): "iso.is_isomorphic",
    ("iso", "is_isomorphic_L"): "iso.is_isomorphic",
}
# generator functions: each resumption is one span
GENERATOR_SPANS = {
    ("classify", "enumerate_I"): "classify.enumerate",
    ("classify", "enumerate_L"): "classify.enumerate",
    ("classify", "enumerate_K"): "classify.enumerate",
}


def _on_compile(counts, system):
    counts["rewrite.ambiguities_checked"] += system.certificate.ambiguities_checked


def _on_normal_basis(counts, basis):
    counts["rewrite.normal_words"] += len(basis.words)


def _on_is_isomorphic(counts, result):
    counts["iso.is_isomorphic.hits"] += bool(result[0])


# counters read off a traced function's result
ON_RESULT = {
    "rewrite.compile": _on_compile,
    "rewrite.normal_basis": _on_normal_basis,
    "iso.is_isomorphic": _on_is_isomorphic,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        on_result = ON_RESULT.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nichols_dm" and not mod_name.startswith("nichols_dm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        import importlib

        pkg = "nichols_dm"
        for table, wrap in ((SPANS, self.wrap), (GENERATOR_SPANS, self.wrap_generator)):
            for (mod, attr), name in table.items():
                original = getattr(importlib.import_module(f"{pkg}.{mod}"), attr)
                self._rebind(original, wrap(original, name))
        from nichols_dm.cyclo import CycloNumber
        from nichols_dm.lifting import LiftingDatum

        build = LiftingDatum.__dict__["build"]
        self._set_class_attr(LiftingDatum, "build",
                             staticmethod(self.wrap(build.__func__, "lifting.datum_build")))
        mul = self.counted(CycloNumber.__dict__["__mul__"], "cyclo.mul.calls")
        for attr in ("__mul__", "__rmul__"):
            self._set_class_attr(CycloNumber, attr, mul)
        self._set_class_attr(CycloNumber, "inverse",
                             self.counted(CycloNumber.__dict__["inverse"], "cyclo.inverse.calls"))

    def _set_class_attr(self, cls, attr, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
        return calls, self_s

    def dump(self, path, header: dict):
        """Write the spans, one per line after a header line."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as out:
            out.write(json.dumps({**header, "fields": ["name", "start", "end", "parent", "job"],
                                  "names": names, "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, job in self.spans:
                out.write(f"[{index[name]},{start!r},{end!r},{parent},{job}]\n")
