"""Exact checks of two cited root-location theorems on every graph, n <= 7.

Both claims are statements about real roots, so the exact layer decides them
with no numerics: half-open Sturm counts over (a, b] plus the exact integer
roots for the open endpoints.  A failure here is a reproduction discrepancy
to report, not a tolerance to tune.
"""

import itertools
from fractions import Fraction
from math import inf

from grpoly.catalog import chromatic_poly, subset_counting_poly
from grpoly.graphs import Graph, enumerate_graphs, graph_to_graph6
from grpoly.roots import integer_roots, is_real_rooted, sturm_count

GRAPHS = [g for n in range(1, 8) for g in enumerate_graphs(n)]


def has_claw(g: Graph) -> bool:
    """Some vertex has three pairwise non-adjacent neighbours (induced K_{1,3})."""
    for v in range(g.n):
        nbrs = [u for u in range(g.n) if g.masks[v] >> u & 1]
        for a, b, c in itertools.combinations(nbrs, 3):
            if not (g.masks[a] & (1 << b | 1 << c) or g.masks[b] >> c & 1):
                return True
    return False


def test_jackson_chromatic_zero_free_intervals():
    # Jackson 1993: no chromatic root in (-inf, 0), (0, 1) or (1, 32/27].
    # Sturm counts (-inf, 32/27]; 0 and 1 are the only allowed roots there.
    violations = []
    for g in GRAPHS:
        p = chromatic_poly(g)
        allowed = sum(1 for r in integer_roots(p) if r in (0, 1))
        if sturm_count(p, (-inf, Fraction(32, 27))) != allowed:
            violations.append(graph_to_graph6(g))
    print(f"Jackson 1993: {len(violations)} violations on {len(GRAPHS)} "
          f"graphs with n <= 7 {violations}")
    assert len(GRAPHS) == 1252
    assert violations == []


def test_chudnovsky_seymour_claw_free_real_rooted():
    # Chudnovsky & Seymour 2007: claw-free => independence polynomial
    # real-rooted.  The converse fails, so graphs with a claw are counted too.
    claw_free, clawed = [], []
    for g in GRAPHS:
        real = is_real_rooted(subset_counting_poly(g, "independence"))
        (clawed if has_claw(g) else claw_free).append((g, real))
    bad = [graph_to_graph6(g) for g, real in claw_free if not real]
    clawed_real = sum(real for _, real in clawed)
    print(f"Chudnovsky-Seymour 2007: {len(claw_free) - len(bad)} of "
          f"{len(claw_free)} claw-free graphs real-rooted {bad}; "
          f"{clawed_real} of {len(clawed)} graphs with a claw real-rooted")
    assert bad == []
    assert (len(claw_free), len(clawed), clawed_real) == (430, 822, 523)
