"""In-memory span recording around the public functions of quatsurf.

A traced run replaces every module attribute that is bound to a public
function of a layer module with a wrapper that records a span (name,
parent span, start, end and one optional measured quantity).  Modules
import each other's functions with ``from .x import f``, so one function
is usually bound under several modules; every binding that is the same
function object is replaced, and all are restored when tracing ends.
"""

import contextlib
import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("quaternions", "charts", "quaddiff", "duality", "bonnet", "cauchy",
          "generators", "align", "io", "cli")

# The CLI dispatches through this table rather than through module
# attributes, so its handlers are traced as cli.<command>.
CLI_HANDLERS = "_HANDLERS"


def _nbytes(*arrays):
    return float(sum(getattr(a, "nbytes", 0) for a in arrays))


def _file_size(path):
    return float(os.path.getsize(path))


def _rows_marched(spin):
    lo, hi = spin.row_span
    return float(hi - lo)


# One measured quantity per span, for the functions that have one:
# (args, kwargs, result) -> float.  Bytes are computed from array and
# file sizes; they are not measured memory traffic.
MEASURES = {
    "quaternions.qmul": lambda a, kw, r: _nbytes(*a, *kw.values(), r),
    "io.write_obj": lambda a, kw, r: _file_size(r),
    "io.write_field_csv": lambda a, kw, r: _file_size(r),
    "io.write_report": lambda a, kw, r: _file_size(r),
    "io.read_positions_csv":
        lambda a, kw, r: _file_size(a[0] if a else kw["path"]),
    "cauchy.march_solve": lambda a, kw, r: _rows_marched(r),
}


class Tracer:
    """Spans kept in flat arrays; span i's parent is ``parents[i]`` (-1 at
    the root), and a parent always has a smaller index than its children."""

    def __init__(self):
        self.names = []
        self._codes = {}  # name -> index in names
        self.parents = array("q")
        self.codes = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self._stack = [-1]
        self.active = True

    def code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def begin(self, code):
        sid = len(self.parents)
        self.parents.append(self._stack[-1])
        self.codes.append(code)
        self.ends.append(0.0)
        self.values.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def end(self, sid):
        self.ends[sid] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (output checks) record no spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn):
        code = self.code(name)
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if measure is not None:
                self.values[sid] = measure(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {"parent": np.array(self.parents, dtype=np.int64),
                "code": np.array(self.codes, dtype=np.int64),
                "start": np.array(self.starts, dtype=np.float64),
                "end": np.array(self.ends, dtype=np.float64),
                "value": np.array(self.values, dtype=np.float64)}

    def save(self, path):
        """Write every span, with the name table, as a compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_modules(package="quatsurf"):
    return {layer: importlib.import_module("%s.%s" % (package, layer))
            for layer in LAYERS}


def public_functions(modules):
    """{span name: function} for the functions each layer module defines
    and does not mark private, plus the CLI command handlers."""
    found = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found["%s.%s" % (layer, attr)] = obj
    for command, fn in getattr(modules["cli"], CLI_HANDLERS).items():
        found["cli.%s" % command] = fn
    return found


def bindings(fn, namespaces):
    """Every (namespace, key) under which ``fn`` itself is bound."""
    return [(ns, key) for ns in namespaces
            for key, value in list(ns.items()) if value is fn]


@contextlib.contextmanager
def traced(tracer, package="quatsurf"):
    """Swap every binding of every public layer function for a tracing
    wrapper; restore the original objects on exit, even after an error."""
    modules = layer_modules(package)
    namespaces = [vars(importlib.import_module(package))]
    namespaces += [vars(mod) for mod in modules.values()]
    namespaces.append(getattr(modules["cli"], CLI_HANDLERS))
    saved = []
    try:
        for name, fn in public_functions(modules).items():
            wrapper = tracer.wrap(name, fn)
            for ns, key in bindings(fn, namespaces):
                saved.append((ns, key, fn))
                ns[key] = wrapper
        yield tracer
    finally:
        for ns, key, fn in reversed(saved):
            ns[key] = fn


def self_times(parent, start, end):
    """Span duration minus the time its direct children cover."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.size)
    return dur - covered


def within(parent, code, ancestor_code):
    """Mask of spans that have a span with ``ancestor_code`` above them."""
    parent, code = parent.tolist(), code.tolist()
    inside = [False] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            inside[i] = inside[p] or code[p] == ancestor_code
    return np.array(inside, dtype=bool)


def summarise(tracer):
    """{name: {"calls", "total_s", "self_s", "value"}} over all spans."""
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    k = len(tracer.names)
    calls = np.bincount(a["code"], minlength=k)
    total = np.bincount(a["code"], weights=a["end"] - a["start"], minlength=k)
    self_s = np.bincount(a["code"], weights=own, minlength=k)
    value = np.bincount(a["code"], weights=a["value"], minlength=k)
    return {name: {"calls": int(calls[c]), "total_s": float(total[c]),
                   "self_s": float(self_s[c]), "value": float(value[c])}
            for c, name in enumerate(tracer.names)}


def calls_within(tracer, name, ancestor):
    """Number of ``name`` spans nested (at any depth) in ``ancestor`` spans."""
    a = tracer.arrays()
    top = tracer.code(ancestor)
    if not np.any(a["code"] == top):
        return 0
    inside = within(a["parent"], a["code"], top)
    return int(np.count_nonzero(inside & (a["code"] == tracer.code(name))))
