"""Spans around calls into the program's layers, recorded from outside it.

The layers are the package's modules.  A call is a span when it crosses
into a layer from another module or from the benchmark:

* a public function is wrapped at the names other modules bound it to with
  `from .x import f` (homology, for one, binds the intmat functions at
  import), and at the benchmark's own bindings; calls inside the defining
  module are left alone;
* `__init__` and the public methods of a public class that another module
  imports are wrapped on the class, and record a span only when the
  caller's module is not the class's own.  A method whose name no other
  module's source calls is left alone;
* a function of one layer handed to another as an argument (a group law,
  say) is a span of its own layer each time it is called.

A function a module imports inside a function body (`from .x import f` at
call time) reads the defining module and is not wrapped; its time counts
toward the caller.  Spans are kept in memory as (name, start, end, parent)
and written out when the round ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import re
import sys
from array import array
from time import perf_counter
from pathlib import Path
from types import FunctionType, ModuleType

LAYERS = ("groups", "intmat", "homology", "hurwitz", "frob", "abelian",
          "rng", "randgrp", "arith")

# Element-level table lookups, called once per group element from every
# layer.  A span each would cost more than the work it measures, so their
# time counts toward the caller.
UNTRACED_METHODS = frozenset({
    "groups.FiniteGroup.mul", "groups.FiniteGroup.inverse",
    "groups.FiniteGroup.conj", "groups.FiniteGroup.power",
    "groups.FiniteGroup.element_order", "groups.FiniteGroup.commutator",
    "groups.FiniteGroup.elements", "groups.FiniteGroup.content_key",
})

NO_PARENT = -1


class Tracer:
    """Installs the span wrappers (install/uninstall), records spans and
    derives the per-layer figures from them.  `namespaces`: the benchmark's
    own modules whose bindings to the program are wrapped too."""

    def __init__(self, namespaces=()):
        self.names: list = []
        self._name_id: dict = {}
        self.layer_of: list = []
        # span i is (name id, start, end, parent index) across four arrays,
        # which the garbage collector never scans
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls = {layer: 0 for layer in LAYERS}
        self.intmat_entries = 0
        self._stack: list = []
        self._extra = list(namespaces)
        self._undo: list = []

    # -- span recording ----------------------------------------------------

    def _nid(self, name: str, layer: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _call(self, nid: int, layer: str, fn, args, kwargs):
        # the path every traced call takes: kept lean, since its cost lands
        # in the self time of the layer it wraps
        self.calls[layer] += 1
        if layer == "intmat":
            self.intmat_entries += matrix_entries(args)
        for a in args:
            if type(a) is FunctionType:
                args = [self._callback(x, layer) for x in args]
                break
        if kwargs:
            kwargs = {k: self._callback(v, layer) for k, v in kwargs.items()}
        i = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _open(self, nid: int) -> int:
        stack = self._stack
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else NO_PARENT)
        self.span_end.append(0.0)
        stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError("span stack out of order")

    def _callback(self, obj, callee_layer: str):
        """A function of another layer handed in as an argument (say, the
        group law given to abelian.AbelianGroupData) is a span of its own
        layer each time the callee calls it."""
        if type(obj) is not FunctionType or \
                not obj.__module__.startswith("hurwitzlab."):
            return obj
        layer = obj.__module__.rpartition(".")[2]
        if layer not in LAYERS or layer == callee_layer:
            return obj
        nid = self._nid(f"{layer}.{obj.__qualname__}", layer)
        call = self._call

        def callback(*args, **kwargs):
            return call(nid, layer, obj, args, kwargs)
        return callback

    def _wrap_function(self, fn, name: str, layer: str):
        nid = self._nid(name, layer)
        call = self._call

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[layer] += 1
                return self._traced_generator(fn(*args, **kwargs), nid)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(nid, layer, fn, args, kwargs)
        return wrapper

    def _traced_generator(self, gen, nid: int):
        # one span per resumption, so no span stays open while the
        # consumer runs between items
        while True:
            i = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(i)
            yield item

    def _wrap_method(self, fn, name: str, layer: str, home: dict):
        nid = self._nid(name, layer)
        call = self._call
        caller = sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller(1).f_globals is home:
                return fn(*args, **kwargs)
            return call(nid, layer, fn, args, kwargs)
        return wrapper

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"hurwitzlab.{layer}")
                for layer in LAYERS}
        spaces = [vars(m) for name, m in sorted(sys.modules.items())
                  if name.startswith("hurwitzlab.") and isinstance(m, ModuleType)]
        spaces += [vars(ns) for ns in self._extra]
        sources = [(space, Path(space["__file__"]).read_text())
                   for space in spaces]
        for layer, mod in mods.items():
            home = vars(mod)
            for attr, obj in list(home.items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap_function(obj, f"{layer}.{attr}", layer)
                    for space in spaces:
                        if space is home:
                            continue
                        for key, val in list(space.items()):
                            if val is obj:
                                self._undo.append((space.__setitem__, key, val))
                                space[key] = wrapped
                elif inspect.isclass(obj) and any(
                        val is obj for space in spaces if space is not home
                        for val in space.values()):
                    elsewhere = "\n".join(text for space, text in sources
                                          if space is not home)
                    self._install_class(obj, layer, home, elsewhere)

    def _install_class(self, cls, layer: str, home: dict, elsewhere: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr != "__init__" and (
                    attr.startswith("_")
                    or not re.search(rf"\.{attr}\b", elsewhere)):
                continue   # private, or no other module calls it
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED_METHODS:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                new = type(member)(
                    self._wrap_method(member.__func__, name, layer, home))
            elif inspect.isfunction(member):
                new = self._wrap_method(member, name, layer, home)
            else:
                continue   # properties and data
            self._undo.append((functools.partial(setattr, cls), attr, member))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for setter, key, val in reversed(self._undo):
            setter(key, val)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def spans(self):
        return zip(self.span_name, self.span_start, self.span_end, self.span_parent)

    def self_times(self) -> list:
        """Self time of each span: its duration minus its children's."""
        child = [0.0] * len(self.span_name)
        for nid, t0, t1, parent in self.spans():
            if parent != NO_PARENT:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (nid, t0, t1, parent), c in zip(self.spans(), child)]

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for nid, s in zip(self.span_name, self.self_times()):
            out[self.layer_of[nid]] += s
        return out

    def top_level_time(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans()
                   if parent == NO_PARENT)

    def inclusive(self, name: str) -> float:
        """Time in spans of `name`, not counted twice where they nest."""
        nid = self._name_id.get(name)
        if nid is None:
            return 0.0
        total = 0.0
        for nid_i, t0, t1, parent in self.spans():
            if nid_i != nid:
                continue
            while parent != NO_PARENT and self.span_name[parent] != nid:
                parent = self.span_parent[parent]
            if parent == NO_PARENT:
                total += t1 - t0
        return total

    def layer_top_level(self, layer: str) -> float:
        return sum(t1 - t0 for nid, t0, t1, parent in self.spans()
                   if parent == NO_PARENT and self.layer_of[nid] == layer)

    def write(self, path, origin: float) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[nid, round(t0 - origin, 9), round(t1 - origin, 9), p]
                                 for nid, t0, t1, p in self.spans()]}, fh)


def matrix_entries(args) -> int:
    """Entries of the matrix arguments (lists of equal-length rows or 2-D
    arrays)."""
    total = 0
    for a in args:
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) == 2:
            total += shape[0] * shape[1]
        elif isinstance(a, (list, tuple)) and a and \
                isinstance(a[0], (list, tuple)):
            total += len(a) * len(a[0])
    return total
