"""Span tracing of grpoly's layers from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper that
records one span per call: name, start, end, parent span and op id.  The
wrapper goes on every namespace that holds a reference to the function (the
``grpoly`` package, each module that imported the name, the family table in
``catalog`` and the ``IntPoly`` multiplication slots), so calls between
modules are seen too.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# layer -> functions wrapped in that layer ("IntPoly.mul" is __mul__/__rmul__)
TRACED = {
    "graphs": ("enumerate_graphs", "tree_shapes_by_prufer", "canonical_form",
               "graph_from_graph6", "graph_to_graph6"),
    "polynomials": ("IntPoly.mul", "substitute", "rat_divmod"),
    "catalog": ("family_polynomial", "char_poly", "matching_poly",
                "chromatic_poly", "tutte_poly", "subset_counting_poly"),
    "roots": ("root_report", "sign_profile", "is_real_rooted", "sturm_chain",
              "yun_decomposition", "integer_roots", "complex_roots",
              "backward_error"),
    "transforms": ("realify", "recover_coefficients", "apply_named_transform",
                   "densify", "density_witness"),
    "simfun": ("verify_prefactor_reduction",),
    "equivalence": ("dp_compare", "dp_transfer", "similarity_classes",
                    "find_collisions"),
    "cli": ("main",),
}

# (name, unit, better) of every per-layer metric, in report order
EXTRA_METRICS = {
    "graphs": (("graphs.enumerate_graphs.classes_per_s", "1/s", "higher"),),
    "roots": (("roots.root_report.failed", "count", "lower"),
              ("roots.complex_roots.failed", "count", "lower"),
              ("roots.complex_roots.roots_out", "count", "higher")),
    "transforms": (("transforms.realify.out_mbit", "Mbit", "lower"),
                   ("transforms.realify.mbit_per_s", "Mbit/s", "higher")),
}


def metric_specs() -> list[tuple[str, str, str]]:
    specs = []
    for layer, funcs in TRACED.items():
        for fn in funcs:
            specs.append((f"{layer}.{fn}.calls", "count", "lower"))
            specs.append((f"{layer}.{fn}.self_s", "s", "lower"))
        specs.extend(EXTRA_METRICS.get(layer, ()))
        specs.append((f"{layer}.self_s", "s", "lower"))
    return specs


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1  # -1: set-up, before the first op
        self.enabled = True
        self.failed: dict[str, int] = {}
        self.classes = 0
        self.roots_out = 0
        self.realify_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        after = _AFTER.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            stack = tracer.stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.span_end[idx] = clock()
                stack.pop()
                tracer.failed[name] = tracer.failed.get(name, 0) + 1
                raise
            tracer.span_end[idx] = clock()
            stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _replace(self, holder, attr: str, new):
        old = holder[attr] if isinstance(holder, dict) else getattr(holder,
                                                                    attr)
        self._restore.append((holder, attr, old))
        if isinstance(holder, dict):
            holder[attr] = new
        else:
            setattr(holder, attr, new)

    def install(self):
        """Wrap every traced function wherever grpoly holds a reference."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "grpoly" or key.startswith("grpoly.")]
        polynomials = sys.modules["grpoly.polynomials"]
        catalog = sys.modules["grpoly.catalog"]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"grpoly.{layer}"]
            for fn_name in funcs:
                name = f"{layer}.{fn_name}"
                if fn_name == "IntPoly.mul":
                    cls = polynomials.IntPoly
                    wrapper = self._wrap(name, cls.__mul__)
                    self._replace(cls, "__mul__", wrapper)
                    self._replace(cls, "__rmul__", wrapper)
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, wrapper)
                for key, value in list(catalog._FAMILY_FUNCS.items()):
                    if value is original:
                        self._replace(catalog._FAMILY_FUNCS, key, wrapper)

    def uninstall(self):
        for holder, attr, old in reversed(self._restore):
            if isinstance(holder, dict):
                holder[attr] = old
            else:
                setattr(holder, attr, old)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float],
                                  dict[str, int]]:
        """Per-function (self time, inclusive time, call count)."""
        n = len(self.span_start)
        child = [0.0] * n
        durs = [self.span_end[i] - self.span_start[i] for i in range(n)]
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += durs[i]
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names = self.span_name
        for i in range(n):
            k = names[i]
            self_s[k] += durs[i] - child[i]
            total_s[k] += durs[i]
            calls[k] += 1
        return ({nm: self_s[k] for k, nm in enumerate(self.names)},
                {nm: total_s[k] for k, nm in enumerate(self.names)},
                {nm: calls[k] for k, nm in enumerate(self.names)})

    def metrics(self) -> dict[str, float]:
        """Every metric of ``metric_specs``, in that order."""
        self_s, total_s, calls = self.self_times()
        out: dict[str, float] = {}
        for layer, funcs in TRACED.items():
            layer_self = 0.0
            for fn in funcs:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
                layer_self += self_s.get(name, 0.0)
            out[f"{layer}.self_s"] = layer_self
        enum_s = total_s.get("graphs.enumerate_graphs", 0.0)
        out["graphs.enumerate_graphs.classes_per_s"] = (
            self.classes / enum_s if enum_s else 0.0)
        out["roots.root_report.failed"] = self.failed.get("roots.root_report",
                                                          0)
        out["roots.complex_roots.failed"] = self.failed.get(
            "roots.complex_roots", 0)
        out["roots.complex_roots.roots_out"] = self.roots_out
        mbit = self.realify_bits / 1e6
        realify_s = total_s.get("transforms.realify", 0.0)
        out["transforms.realify.out_mbit"] = mbit
        out["transforms.realify.mbit_per_s"] = (mbit / realify_s
                                                if realify_s else 0.0)
        return {name: out[name] for name, _, _ in metric_specs()}

    def write(self, path: str):
        """Spans as gzipped CSV: name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                         f"{self.span_parent[i]},{self.span_op[i]}\n")


def _count_classes(tracer: Tracer, result):
    tracer.classes += len(result)


def _count_roots(tracer: Tracer, result):
    tracer.roots_out += sum(mult for _, mult in result)


def _count_bits(tracer: Tracer, result):
    tracer.realify_bits += sum(c.bit_length() for c in result.coeffs)


_AFTER = {
    "graphs.enumerate_graphs": _count_classes,
    "roots.complex_roots": _count_roots,
    "transforms.realify": _count_bits,
}
