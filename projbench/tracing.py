"""Span tracing of projflow's layers from outside the program.

Tracer.install wraps every public function of the six projflow modules,
plus ChartPoint construction and the Constraint.value / Constraint.gradient
methods, at every module attribute that refers to them, so that a call
through `projflow.dynamics.geometry_at` is caught as well as one through
`projflow.geometry.geometry_at`.  Each call records a span: name, start,
end and parent span.  The spans of one operation stay in memory until
end_op folds them into per-name call counts and the operation's self times;
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Dict, List, Tuple

LAYERS = ("cli", "dynamics", "constraints", "geometry", "equivalence", "systems")

# Functions reported one by one; "Class" means construction, "Class.attr" a
# method.  Every other public function only adds to its module's self time.
REPORTED = {
    "geometry": ("geometry_at", "embed", "embed_jacobian", "nijenhuis_residual", "ChartPoint"),
    "constraints": ("gradient_rows", "gram_matrix", "Constraint.gradient", "Constraint.value",
                    "gram_covariance_check"),
    "dynamics": ("integrate", "constrained_field"),
    "equivalence": ("equivalence_report", "mu_tensor", "annihilation_check", "tau_analysis"),
    "systems": ("system_from_name", "product_surface_sample", "sample_interior_point"),
    "cli": ("load_config", "main"),
}


def per_layer_metric_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    names = []
    for layer, fns in REPORTED.items():
        for fn in fns:
            names.append(("%s.%s.calls" % (layer, fn), "count", "lower"))
            names.append(("%s.%s.self_ms" % (layer, fn), "ms", "lower"))
    names += [("%s.self_ms" % layer, "ms", "lower") for layer in LAYERS]
    names.append(("cli.output_bytes", "B", "lower"))
    names.append(("traced.ops_per_s", "op/s", "higher"))
    return names


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.calls: List[int] = []
        self.op_self_s: List[List[float]] = []
        self.absent: List[str] = []
        self._ids: Dict[str, int] = {}
        self._span_name: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._parent: List[int] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        sid = self._ids[name]
        span_name, start, end, parent, stack = self._span_name, self._start, self._end, self._parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of the already imported projflow package."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "projflow" or name.startswith("projflow."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get("projflow." + layer)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, "%s.%s" % (layer, attr))
        for layer, fns in REPORTED.items():
            mod = modules.get("projflow." + layer)
            for fn in fns:
                head, _, method = fn.partition(".")
                obj = getattr(mod, head, None)
                if inspect.isclass(obj) and hasattr(obj, method or "__init__"):
                    attr = method or "__init__"
                    self._patch(obj, attr, self._wrap(getattr(obj, attr), "%s.%s" % (layer, fn)))
                elif inspect.isfunction(obj) and not method:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, "%s.%s" % (layer, fn))
                else:
                    self.absent.append("%s.%s" % (layer, fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def end_op(self) -> None:
        """Fold the spans of the finished operation into call counts and its
        own row of self times."""
        start, end, parent, span_name = self._start, self._end, self._parent, self._span_name
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        for i, sid in enumerate(span_name):
            self.calls[sid] += 1
            self_s[sid] += end[i] - start[i] - child[i]
        self.op_self_s.append(self_s)
        for spans in (start, end, parent, span_name):
            spans.clear()

    def metrics(self) -> Dict[str, float]:
        """Calls and self time (ms) per operation, over all operations, for
        the reported functions and the layers; an absent function reads 0."""
        ops = len(self.op_self_s)
        self_s = [sum(col) for col in zip(*self.op_self_s)]
        per_op_ms = 1e3 / ops
        out = {}
        for layer, fns in REPORTED.items():
            for fn in fns:
                sid = self._ids.get("%s.%s" % (layer, fn))
                out["%s.%s.calls" % (layer, fn)] = 0 if sid is None else self.calls[sid] / ops
                out["%s.%s.self_ms" % (layer, fn)] = 0.0 if sid is None else per_op_ms * self_s[sid]
        for layer in LAYERS:
            total = sum(s for name, s in zip(self.names, self_s) if name.startswith(layer + "."))
            out["%s.self_ms" % layer] = per_op_ms * total
        return out
