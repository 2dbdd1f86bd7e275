"""Per-layer spans and counters, installed from outside the library.

`install()` wraps the public functions and methods of every layer module
(and the private ones another layer reaches) in a span that records its
duration and its child spans' time, so a layer's self time is its spans'
time minus the time of the spans they caused.  Wrappers replace the
originals in every library module's namespace, so calls that cross a
layer boundary go through them.  The garbage collector is the layer
`python`: its pauses are timed through `gc.callbacks` and counted as child
time of the span they interrupt.

Nothing is traced unless `install()` runs; the untraced child never calls it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time

LAYERS = ("numkernel", "intlattice", "rootdata", "weyl", "hecke", "bernstein",
          "finrep", "lparam", "functor", "cli")
PACKAGE = "hecke_functor"
# a private function another layer imports inside a function body
LATE_IMPORTED = {("numkernel", "_solve_linear")}
METHOD_DUNDERS = {"__init__", "__call__", "__eq__", "__add__", "__radd__",
                  "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
                  "__truediv__", "__rtruediv__", "__pow__"}
# per-layer counters reported by name: metric -> wrapped qualified names
COUNTED = {
    "numkernel.laurent_mul": ("LaurentPoly.__mul__", "LaurentPoly.__rmul__"),
    "numkernel.laurent_add": ("LaurentPoly.__add__", "LaurentPoly.__radd__"),
    "numkernel.cyclo_mul": ("Cyclo.__mul__", "Cyclo.__rmul__"),
    "intlattice.snf": ("snf",),
    "rootdata.build_classical": ("build_classical",),
    "rootdata.validate": ("BasedRootDatum.validate",),
    "weyl.group_build": ("WeylGroup.build",),
    "weyl.stabilizer": ("stabilizer_of_point",),
    "hecke.spec_build": ("HeckeSpec.__init__",),
    "hecke.mul_im": ("mul_im",),
    "hecke.theta": ("theta",),
    "bernstein.mul_bernstein": ("mul_bernstein",),
    "bernstein.oracle_pair_check": ("oracle_pair_check",),
    "finrep.irreducibles": ("irreducibles",),
    "finrep.hom_mult": ("hom_mult",),
    "lparam.component_group": ("component_group",),
    "lparam.relevant_enhancements": ("relevant_enhancements",),
    "functor.smap": ("smap",),
    "functor.conjA_decompose": ("conjA_decompose",),
    "cli.main": ("main",),
}


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {}
        self.terms_out = 0                  # terms in the products mul_im returns
        self.built: set = set()             # distinct data build_classical made
        self.validated: set = set()         # distinct data validate() saw
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._stack: list[list[float]] = []     # [start, time in child spans]
        self._gc_start = 0.0

    # -- spans ----------------------------------------------------------------

    def wrap(self, layer: str, qualname: str, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        key = f"{layer}.{qualname}"
        calls[key] = 0
        note = self._notes(layer, qualname)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if note is not None:
                note(args, result)
            return result
        return span

    def _notes(self, layer, qualname):
        if (layer, qualname) == ("hecke", "mul_im"):
            def note(args, result):
                self.terms_out += len(result.terms)
            return note
        if (layer, qualname) == ("rootdata", "build_classical"):
            return lambda args, result: self.built.add(result)
        if (layer, qualname) == ("rootdata", "BasedRootDatum.validate"):
            return lambda args, result: self.validated.add(args[0])
        return None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        duration = time.perf_counter() - self._gc_start
        self.gc_s += duration
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        if self._stack:
            self._stack[-1][1] += duration

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        originals: dict[int, object] = {}       # id(original) -> wrapper
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and (not name.startswith("_") or (layer, name) in LATE_IMPORTED
                             or _reached_from_outside(obj, layer, modules)):
                    wrapper = self.wrap(layer, name, obj)
                    originals[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        # rebind names other modules imported before the wrapping
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith(PACKAGE):
                for name, obj in list(vars(module).items()):
                    wrapper = originals.get(id(obj))
                    if wrapper is not None:
                        setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in METHOD_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(layer, qualname, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, qualname, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qualname, attr))

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        out = {f"{layer}.self_s": v for layer, v in self.self_s.items()}
        for metric, names in COUNTED.items():
            layer = metric.split(".")[0]
            out[f"{metric}.calls"] = sum(self.calls[f"{layer}.{n}"] for n in names)
        out["hecke.mul_im.terms_out"] = self.terms_out
        out["rootdata.build_classical.distinct"] = len(self.built)
        out["rootdata.validate.distinct"] = len(self.validated)
        out["python.gc_s"] = self.gc_s
        out["python.gc_gen2.count"] = self.gc_gen2
        return out


def _reached_from_outside(fn, layer, modules) -> bool:
    """Does another layer's namespace hold this (private) function?"""
    return any(other != layer and any(obj is fn for obj in vars(m).values())
               for other, m in modules.items())
