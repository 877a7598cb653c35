"""Empirical distinctive-power comparisons over exhaustive small-graph corpora.

Graphs are grouped into similarity classes (same vertex, edge and component
counts); a family's distinctive power is its value partition on each class.
Family P transfers through family Q when Q-equality forces P-equality on
every class, i.e. Q's partition is at least as fine as P's everywhere.
Verdicts carry minimal witness pairs in enumeration order so scans are
reproducible byte for byte.

The corpus is built once per process: the classes of each vertex count are
grouped on first use and kept, and every scan over every ``nmax`` reads the
same ``Graph`` objects, at most the 1,252 graphs with n <= ``MAX_SCAN_N``.
The catalog's kernels (matching counts, independent-set table) are kept on
those graphs, so one scan leaves them for the next.  Family values are
computed afresh in every scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence, Union

from .catalog import family_polynomial
from .graphs import Graph, SimilarityTriple, enumerate_graphs, graph_to_graph6, \
    similarity_triple
from .polynomials import IntPoly, MultiPoly, poly_wire

MAX_SCAN_N = 7

Family = Union[str, Callable[[Graph], Union[IntPoly, MultiPoly]]]


@dataclass(frozen=True)
class SimilarityClass:
    triple: SimilarityTriple
    members: tuple[Graph, ...]


def similarity_classes(nmax: int) -> tuple[SimilarityClass, ...]:
    """All similarity classes over the isomorph-free corpus with n <= nmax,
    by (n, m, k).

    The classes are those of ``_classes_of_order``, built once per process
    and vertex count and shared by every call, so a graph is one object in
    every scan, and so are the kernels the catalog keeps on it.
    """
    if not 1 <= nmax <= MAX_SCAN_N:
        raise ValueError(f"similarity scan supports 1 <= nmax <= {MAX_SCAN_N}")
    return tuple(cls for n in range(1, nmax + 1)
                 for cls in _classes_of_order(n))


@cache
def _classes_of_order(n: int) -> tuple[SimilarityClass, ...]:
    """The similarity classes on n vertices, by (m, k), members in
    enumeration order; kept for the life of the process."""
    buckets: dict[SimilarityTriple, list[Graph]] = {}
    for g in enumerate_graphs(n):
        buckets.setdefault(similarity_triple(g), []).append(g)
    return tuple(SimilarityClass(t, tuple(buckets[t]))
                 for t in sorted(buckets, key=lambda t: (t.m, t.k)))


def _resolve(family: Family) -> tuple[str, Callable]:
    if callable(family):
        return getattr(family, "__name__", "custom"), family
    return family, lambda g, name=family: family_polynomial(name, g)


def value_partition(family: Family, cls: SimilarityClass
                    ) -> list[list[Graph]]:
    """Fibers of the family map on one class, in first-seen member order."""
    _, fn = _resolve(family)
    blocks: dict = {}
    for g in cls.members:
        blocks.setdefault(fn(g), []).append(g)
    return list(blocks.values())


@dataclass(frozen=True)
class WitnessPair:
    triple: SimilarityTriple
    g1: Graph
    g2: Graph
    left_values: tuple  # (value on g1, value on g2) under the left family
    right_values: tuple

    def to_json_dict(self) -> dict:
        return {
            "class": {"n": self.triple.n, "m": self.triple.m,
                      "k": self.triple.k},
            "g1": graph_to_graph6(self.g1),
            "g2": graph_to_graph6(self.g2),
            "val1_left": _value_json(self.left_values[0]),
            "val2_left": _value_json(self.left_values[1]),
            "val1_right": _value_json(self.right_values[0]),
            "val2_right": _value_json(self.right_values[1]),
        }


def _value_json(value: Union[IntPoly, MultiPoly]):
    if isinstance(value, IntPoly):
        return poly_wire(value)
    return {"arity": value.arity, **poly_wire(value)}


def _first_violation(q_values: Sequence, p_values: Sequence
                     ) -> Optional[tuple[int, int]]:
    """First index pair with equal Q-value and different P-value, or None.

    Q-blocks are taken in first-seen order and each block's first member is
    compared with every later member of that block.
    """
    blocks: dict = {}
    for i, value in enumerate(q_values):
        blocks.setdefault(value, []).append(i)
    for first, *rest in blocks.values():
        for other in rest:
            if p_values[first] != p_values[other]:
                return first, other
    return None


def _witness(cls: SimilarityClass, pair: tuple[int, int], left_values: list,
             right_values: list) -> WitnessPair:
    i, j = pair
    return WitnessPair(triple=cls.triple, g1=cls.members[i],
                       g2=cls.members[j],
                       left_values=(left_values[i], left_values[j]),
                       right_values=(right_values[i], right_values[j]))


def dp_transfer(p: Family, q: Family, cls: SimilarityClass
                ) -> tuple[bool, Optional[WitnessPair]]:
    """Does Q-equality force P-equality on this class?

    Returns (True, None) or (False, first violating pair in member order):
    two similar graphs with equal Q-value and different P-value.
    """
    _, pf = _resolve(p)
    _, qf = _resolve(q)
    p_values = [pf(g) for g in cls.members]
    q_values = [qf(g) for g in cls.members]
    pair = _first_violation(q_values, p_values)
    if pair is None:
        return True, None
    return False, _witness(cls, pair, p_values, q_values)


@dataclass(frozen=True)
class EquivalenceVerdict:
    left: str
    right: str
    relation: str
    witnesses: tuple[WitnessPair, ...]

    def to_json(self) -> str:
        return json.dumps({
            "left": self.left,
            "right": self.right,
            "relation": self.relation,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        })


def dp_compare(left: Family, right: Family, nmax: int) -> EquivalenceVerdict:
    """Aggregate transfer in both directions over all classes with n <= nmax.

    left-refines-right means equality under the left family forces equality
    under the right one (the left partition is at least as fine) but not
    conversely; witnesses document each failed direction.
    """
    left_name, lf = _resolve(left)
    right_name, rf = _resolve(right)
    classes = similarity_classes(nmax)
    # forces[0]: left-equality forces right-equality; forces[1]: conversely
    forces = [True, True]
    witnesses: list[WitnessPair] = []
    for cls in classes:
        if not any(forces):
            break
        values = [[f(g) for g in cls.members] for f in (lf, rf)]
        for d in (0, 1):
            if not forces[d]:
                continue
            pair = _first_violation(values[d], values[1 - d])
            if pair is not None:
                forces[d] = False
                witnesses.append(_witness(cls, pair, *values))
    relation = {(True, True): "equivalent",
                (True, False): "left-refines-right",
                (False, True): "right-refines-left",
                (False, False): "incomparable"}[tuple(forces)]
    return EquivalenceVerdict(left=left_name, right=right_name,
                              relation=relation, witnesses=tuple(witnesses))


def find_collisions(family: Family, nmax: int
                    ) -> list[tuple[SimilarityClass, list[Graph]]]:
    """All non-singleton fibers: similar, non-isomorphic, equal-value graphs."""
    out = []
    for cls in similarity_classes(nmax):
        if len(cls.members) < 2:
            continue
        for block in value_partition(family, cls):
            if len(block) >= 2:
                out.append((cls, block))
    return out
