"""The benchmark under ``perfbench/`` still fits the package.

Its span tracer wraps grpoly functions by name, and its worker calls them
with fixed arguments, so renaming or deleting one of them breaks the
benchmark before any timing is taken.  These tests read ``perfbench/`` and
change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from grpoly import catalog, equivalence, graphs, polynomials

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("catalog", "cli", "equivalence", "graphs", "polynomials", "roots",
           "simfun", "transforms")


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    mods = [importlib.import_module("grpoly")]
    mods += [importlib.import_module(f"grpoly.{name}") for name in MODULES]
    return {m.__name__: dict(vars(m)) for m in mods}


def test_tracer_wraps_every_name_and_restores_them():
    spans = _load_spans()
    before = _namespaces()
    mul, rmul = polynomials.IntPoly.__mul__, polynomials.IntPoly.__rmul__
    families = dict(catalog._FAMILY_FUNCS)
    tracer = spans.Tracer()
    tracer.install()  # AttributeError if a traced name is gone
    try:
        for layer, funcs in spans.TRACED.items():
            home = importlib.import_module(f"grpoly.{layer}")
            for fn in funcs:
                if fn != "IntPoly.mul":
                    assert hasattr(getattr(home, fn), "__wrapped__")
        assert polynomials.IntPoly.__mul__ is not mul
    finally:
        tracer.uninstall()
    assert _namespaces() == before
    assert polynomials.IntPoly.__mul__ is mul
    assert polynomials.IntPoly.__rmul__ is rmul
    assert catalog._FAMILY_FUNCS == families


def test_tracer_sees_families_whose_kernels_are_kept():
    """The catalog keeps the independent-set table on each graph; the
    family functions the tracer wraps are still called once per graph."""
    spans = _load_spans()
    equivalence.dp_compare("chromatic", "independence", 4)  # keeps the tables
    tracer = spans.Tracer()
    tracer.install()
    try:
        verdict = equivalence.dp_compare("chromatic", "independence", 4)
    finally:
        tracer.uninstall()
    # incomparable ends the scan: 16 of the 18 graphs with n <= 4 are read
    assert verdict.relation == "incomparable"
    calls = tracer.self_times()[2]
    assert calls["catalog.chromatic_poly"] == calls[
        "catalog.subset_counting_poly"] == 16
    assert calls["equivalence.dp_compare"] == 1


def test_worker_names_resolve():
    """Every ``<module>.<name>`` the worker reads off a grpoly module."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    missing = sorted(
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in MODULES
        and not hasattr(importlib.import_module(f"grpoly.{node.value.id}"),
                        node.attr))
    assert missing == []


def test_worker_tree_shapes_call():
    assert [t.n for t in graphs.tree_shapes_by_prufer(1, processes=1)] == [1]
