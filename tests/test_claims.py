"""Exact checks of three cited root-location theorems on every graph, n <= 8,
a numeric check of a fourth on n <= 8, numeric checks of two disk bounds on
n <= 8 (n = 7 and 8 for the edge-cover ball, which criterion 08 checks on
n <= 6), and a numeric check of one disproved conjecture on n <= 7.

The three theorems are statements about real roots, so the exact layer decides
them with no numerics: half-open Sturm counts over (a, b] plus the exact
integer roots for the open endpoints.  Csikvari's smallest-modulus root, the
Sokal and Csikvari-Oboudi disks and the Brown-Colbourn disk are checked on
certified numeric roots until exact disk counts (Schur-Cohn) exist.  A
failure here is a reproduction discrepancy to report, not a tolerance to tune.
"""

import itertools
import math
from fractions import Fraction
from math import inf

from grpoly.catalog import (chromatic_poly, matching_poly,
                            subset_counting_poly, tutte_poly)
from grpoly.graphs import (Graph, component_count, enumerate_graphs, graph,
                           graph_to_graph6)
from grpoly.polynomials import IntPoly
from grpoly.roots import (complex_roots, integer_roots, is_real_rooted,
                          sturm_count)
from oracles import reliability_poly

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


def test_reliability_from_tutte_against_edge_subsets():
    # R(G; p) sums p^|S| (1-p)^(m-|S|) over the connected spanning S
    for g in GRAPHS:
        if g.n > 5 or component_count(g) > 1:
            continue
        edges = g.sorted_edges()
        direct = IntPoly(())
        for size in range(g.m + 1):
            for sub in itertools.combinations(edges, size):
                if component_count(graph(g.n, sub)) == 1:
                    direct = direct + (IntPoly((0, 1)) ** size
                                       * IntPoly((1, -1)) ** (g.m - size))
        r = reliability_poly(tutte_poly(g), g.m - g.n + 1)
        assert r * IntPoly((0, 1)) ** (g.n - 1) == direct


def test_brown_colbourn_reliability_roots_in_unit_disk_about_one():
    # Brown & Colbourn 1992 conjectured that the roots of the all-terminal
    # reliability R(G; p) of a connected graph lie in |p - 1| <= 1; Royle &
    # Sokal 2004 disproved it on graphs far larger than these.  The roots of
    # R are those of r = R / p^(n-1) plus p = 0.  r(0) = T(G; 1, 1) counts
    # spanning trees, so r has no root at 0.  The roots are certified
    # numerically; an exact count in the disk waits on Schur-Cohn.
    connected = [g for g in GRAPHS if g.n <= 7 and component_count(g) == 1]
    assert len(connected) == 996
    worst, at, outside = 0.0, None, []
    for g in connected:
        r = reliability_poly(tutte_poly(g), g.m - g.n + 1)
        if r.degree < 1:  # a tree: r = 1
            continue
        for z, _ in complex_roots(r):
            if abs(z - 1) > 1:
                outside.append((graph_to_graph6(g), z))
            if abs(z - 1) > worst:
                worst, at = abs(z - 1), graph_to_graph6(g)
    print(f"Brown-Colbourn 1992: {len(outside)} roots outside |p - 1| <= 1 "
          f"on {len(connected)} connected graphs with n <= 7; the worst "
          f"|p - 1| is {worst:.4f}, at {at}")
    assert outside == []


def test_csikvari_smallest_independence_root_is_real():
    # Csikvari 2013: the independence polynomial has a real root of smallest
    # modulus.  I(G; 0) = 1, so no root is 0.  Real roots are certified by
    # the Sturm count (their imaginary part is exactly 0.0); the moduli are
    # compared numerically until exact disk counts (Schur-Cohn) exist.
    no_real, violations, closest, at = [], [], inf, None
    for g in GRAPHS:
        roots = [z for z, _ in
                 complex_roots(subset_counting_poly(g, "independence"))]
        real = [abs(z) for z in roots if z.imag == 0.0]
        other = [abs(z) for z in roots if z.imag != 0.0]
        if not real:
            no_real.append(graph_to_graph6(g))
            continue
        if other:
            ratio = min(other) / min(real)
            if ratio < 1:
                violations.append(graph_to_graph6(g))
            if ratio < closest:
                closest, at = ratio, graph_to_graph6(g)
    print(f"Csikvari 2013: {len(violations)} violations on {len(GRAPHS)} "
          f"graphs with n <= 8 {violations}; the closest ratio of smallest "
          f"non-real to smallest real root modulus is {closest:.4f}, at {at}")
    assert no_real == []
    assert violations == []


def test_sokal_chromatic_roots_in_degree_disk():
    # Sokal 2001: every chromatic root of a graph of maximum degree D lies
    # in |z| <= 7.963907 D.  Small graphs are far inside; the worst ratio
    # |z| / D is the finding.  Several graphs may reach it up to rounding
    # (every K_(D+1) component has the root D), so they are counted, not
    # ranked.  Edgeless graphs (D = 0) have only the root 0.
    assert len(GRAPHS) == 13598
    ratios, violations = {}, []
    for g in GRAPHS:
        top = max(g.degree(v) for v in range(g.n))
        for z, _ in complex_roots(chromatic_poly(g)):
            if abs(z) > 7.963907 * top:
                violations.append((graph_to_graph6(g), z))
            if top:
                g6 = graph_to_graph6(g)
                ratios[g6] = max(ratios.get(g6, 0.0), abs(z) / top)
    worst = max(ratios.values())
    at = [g6 for g6, r in ratios.items() if r >= worst - 1e-9]
    print(f"Sokal 2001: {len(violations)} chromatic roots outside "
          f"|z| <= 7.963907 D on {len(GRAPHS)} graphs with n <= 8; the worst "
          f"|z| / D is {worst:.4f}, reached to 1e-9 by {len(at)} graphs "
          f"from {at[0]} to {at[-1]}")
    assert violations == []


def test_csikvari_oboudi_edge_cover_roots_in_ball():
    # Csikvari & Oboudi 2011: every edge-cover root lies in
    # |z| <= (1 + sqrt 3)^3 / 4.  Criterion 08 checks n <= 6; this checks
    # every graph with n = 7 or 8.  A graph with an isolated vertex has no
    # edge cover, so its polynomial is zero and has no roots to check.
    ball = (1 + math.sqrt(3)) ** 3 / 4
    graphs = [g for g in GRAPHS if g.n >= 7]
    assert len(graphs) == 1044 + 12346
    worst, at, outside, checked = 0.0, None, [], 0
    for g in graphs:
        p = subset_counting_poly(g, "edgeCover")
        if p.is_zero():
            continue
        for z, _ in complex_roots(p):
            if abs(z) > ball:
                outside.append((graph_to_graph6(g), z))
            if abs(z) > worst:
                worst, at = abs(z), graph_to_graph6(g)
        checked += 1
    print(f"Csikvari-Oboudi 2011: {len(outside)} edge-cover roots outside "
          f"|z| <= {ball:.4f} on {checked} of {len(graphs)} graphs with "
          f"n = 7 or 8 (the rest have no edge cover); the largest |z| is "
          f"{worst:.4f}, at {at}")
    assert outside == []
