"""Traced run: spans around the public functions of every canrep layer.

The tracer wraps functions from outside the library.  Each public function
defined in a layer module is replaced by a wrapper, and the wrapper is bound
under every name that held the original in any ``canrep`` module (including
re-exports such as ``canrep.repcat`` and dispatch tables such as
``cli.HANDLERS``) and in any extra module passed to ``install``.  A few hot
methods are patched on their class.  Field arithmetic is not wrapped.

Spans stay in memory as parallel arrays (name, start, end, parent, item) and
are written out at exit.  Calls and self time (span time minus the time its
child spans cover) are also accumulated per span name as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# layer name -> module whose public functions are wrapped
LAYER_MODULES = {
    "exactla": "canrep.exactla.matrix",
    "quiver_algebra": "canrep.quiver_algebra",
    "repcat.core": "canrep.repcat.core",
    "repcat.decomp": "canrep.repcat.decomp",
    "homology": "canrep.homology",
    "trisection": "canrep.trisection",
    "approx": "canrep.approx",
    "tubular_slopes": "canrep.tubular_slopes",
    "serialize": "canrep.serialize",
    "cli": "canrep.cli",
}

# (module, class, method, span name) patched on the class
METHODS = [
    ("canrep.exactla.matrix", "Matrix", "rref", "exactla.Matrix.rref"),
    ("canrep.exactla.matrix", "Matrix", "solve", "exactla.Matrix.solve"),
    ("canrep.exactla.matrix", "Matrix", "kernel_basis", "exactla.Matrix.kernel_basis"),
    ("canrep.exactla.matrix", "Matrix", "inverse", "exactla.Matrix.inverse"),
    ("canrep.exactla.matrix", "Matrix", "__mul__", "exactla.Matrix.__mul__"),
    ("canrep.quiver_algebra", "QuiverAlgebra", "euler_form", "quiver_algebra.euler_form"),
    ("canrep.homology", "ExtSpace", "__init__", "homology.ExtSpace"),
]

# counted without a span: too frequent and too cheap to time
COUNTED = [("canrep.exactla.matrix", "Matrix", "__init__", "exactla.Matrix.__init__")]


def _rref_cells(args, kwargs):
    return args[0].rows * args[0].cols


def _hom_unknowns(args, kwargs):
    m, n = args[0], args[1]
    return sum(m.dims[v] * n.dims[v] for v in m.algebra.vertices)


# span name -> (counter name, weight of one call)
WEIGHTS = {
    "exactla.Matrix.rref": ("exactla.Matrix.rref.cells", _rref_cells),
    "repcat.core.hom_basis": ("repcat.core.hom_basis.unknowns", _hom_unknowns),
}

# span name -> (counter name, predicate on the result): useful outcomes
OUTCOMES = {
    "repcat.decomp.factor_poly": ("repcat.decomp.factor_poly.split",
                                  lambda result: len(result) >= 2),
    "repcat.decomp.is_isomorphic": ("repcat.decomp.is_isomorphic.found",
                                    lambda result: result is not None),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[list[int]] = []    # [span index, ns covered by children]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        calls, self_ns, counters, stack = self.calls, self.self_ns, self.counters, self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items = self.span_parent, self.span_item
        weight_name, weight = WEIGHTS.get(name, (None, None))
        outcome_name, outcome = OUTCOMES.get(name, (None, None))
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            items.append(tracer.item)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - start
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if weight is not None:
                counters[weight_name] += weight(args, kwargs)
            if outcome is not None and outcome(result):
                counters[outcome_name] += 1
            return result
        return traced

    def _count(self, name, fn):
        key, counters = name + ".calls", self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, extra_modules=()):
        """Wrap every layer's public functions and the listed methods."""
        wrappers = {}
        for layer, modname in LAYER_MODULES.items():
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == "canrep" or n.startswith("canrep.")]
        namespaces += [vars(m) for m in extra_modules]
        for ns in namespaces:
            for table in [ns] + [v for v in ns.values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        table[key] = wrappers[value]
        for specs, make in ((METHODS, self._wrap), (COUNTED, self._count)):
            for modname, clsname, meth, name in specs:
                cls = getattr(importlib.import_module(modname), clsname)
                setattr(cls, meth, make(name, vars(cls)[meth]))

    def snapshot(self):
        """Cumulative {name: (calls, self_ns)} and counters, for per-pass deltas."""
        table = {n: (self.calls[i], self.self_ns[i]) for i, n in enumerate(self.names)}
        return table, dict(self.counters)

    def layer_table(self):
        """Self seconds and calls per layer, summed over every recorded span."""
        out = {}
        for layer in LAYER_MODULES:
            ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
            out[layer] = {"self_s": sum(self.self_ns[i] for i in ids) / 1e9,
                          "calls": sum(self.calls[i] for i in ids)}
        return out

    def write(self, path, extra):
        """Write the tables and every span as one JSON object, span columns last."""
        doc = {
            "names": self.names,
            "functions": {n: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
                          for i, n in enumerate(self.names)},
            "layers": self.layer_table(),
            "counters": dict(self.counters),
            **extra,
        }
        columns = {"name": self.span_name, "start_ns": self.span_start,
                   "end_ns": self.span_end, "parent": self.span_parent,
                   "item": self.span_item}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":"))[:-1] + ',"spans":{')
            for k, (key, col) in enumerate(columns.items()):
                fh.write(f'{"," if k else ""}"{key}":[{",".join(map(str, col))}]')
            fh.write("}}")
