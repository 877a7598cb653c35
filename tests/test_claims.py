"""Exact checks of three cited root-location theorems on every graph, n <= 8.

All three claims are statements about real roots, so the exact layer decides
them with no numerics: half-open Sturm counts over (a, b] plus the exact
integer roots for the open endpoints.  A failure here is a reproduction
discrepancy to report, not a tolerance to tune.
"""

import itertools
from fractions import Fraction
from math import inf

from grpoly.catalog import chromatic_poly, matching_poly, subset_counting_poly
from grpoly.graphs import Graph, enumerate_graphs, graph_to_graph6
from grpoly.polynomials import IntPoly
from grpoly.roots import integer_roots, is_real_rooted, sturm_count

GRAPHS = [g for n in range(1, 9) for g in enumerate_graphs(n)]


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
          f"graphs with n <= 8 {violations}")
    assert len(GRAPHS) == 13598
    assert violations == []


def test_chudnovsky_seymour_claw_free_real_rooted():
    # Chudnovsky & Seymour 2007: claw-free => independence polynomial
    # real-rooted.  The converse fails, so graphs with a claw are counted too.
    # 1,715 claw-free graphs with n <= 8 (OEIS A022562: 1, 2, 4, 10, 26, 85,
    # 302, 1285).
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
    assert (len(claw_free), len(clawed), clawed_real) == (1715, 11883, 8124)


def test_heilmann_lieb_matching_roots_bounded():
    # Heilmann & Lieb 1972: for maximum degree D >= 2 every root of the
    # matching (defect) polynomial lies in [-2 sqrt(D-1), 2 sqrt(D-1)].
    # mu(x) = x^(n mod 2) r(x^2), so the claim is that r has no root in
    # (4(D-1), inf); mu is real-rooted, so the roots of r are real and >= 0.
    checked, violations = 0, []
    for g in GRAPHS:
        top = max(g.degree(v) for v in range(g.n))
        if top < 2:
            continue
        r = IntPoly(matching_poly(g, "defect").coeffs[g.n % 2::2])
        if sturm_count(r, (4 * (top - 1), inf)) != 0:
            violations.append(graph_to_graph6(g))
        checked += 1
    print(f"Heilmann-Lieb 1972: {len(violations)} violations on {checked} "
          f"graphs with n <= 8 and max degree >= 2 {violations}")
    # the 24 graphs with max degree <= 1 are partial matchings
    assert checked == len(GRAPHS) - 24
    assert violations == []
