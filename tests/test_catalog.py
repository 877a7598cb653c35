import itertools
from fractions import Fraction

import pytest

from grpoly.catalog import (adjacency_matrix, catalog_identities, char_poly,
                            chromatic_poly, cycle_matrix, family_polynomial,
                            laplacian_matrix, matching_counts, matching_poly,
                            spanning_tree_count, subset_counting_poly,
                            tutte_poly, universal_tutte_check)
from grpoly.graphs import (complement, disjoint_union, enumerate_graphs,
                           graph, named_graph, similarity_triple,
                           tree_shapes_by_prufer)
from grpoly.polynomials import IntPoly, evaluate, from_roots, poly, substitute
from grpoly.roots import integer_roots
from oracles import (char_poly_oracle, edge_cover_counts_brute,
                     matching_counts_brute, proper_coloring_count,
                     spanning_tree_count_brute, tutte_eval_oracle)

K3 = named_graph("complete", 3)
C4 = named_graph("cycle", 4)
P3 = named_graph("path", 3)


class TestMatrices:
    def test_adjacency_shape(self):
        m = adjacency_matrix(K3)
        assert m == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_laplacian_rows_sum_zero(self):
        m = laplacian_matrix(C4)
        assert all(sum(row) == 0 for row in m)

    def test_cycle_matrix_triangle(self):
        m = cycle_matrix(K3)
        for i in range(3):
            for j in range(3):
                assert m[i][j] == (2 if i == j else 3)

    def test_cycle_matrix_tree_edges_are_one(self):
        m = cycle_matrix(P3)
        assert m[0][1] == m[1][2] == 1
        assert [m[i][i] for i in range(3)] == [1, 2, 1]

    def test_cycle_matrix_chorded_square(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        m = cycle_matrix(g)
        for u, v in g.sorted_edges():
            assert m[u][v] == 3  # every edge lies on a triangle


class TestCharPoly:
    def test_path3_by_hand(self):
        assert char_poly(P3, "adjacency") == poly(0, -2, 0, 1)

    def test_laplacian_k2(self):
        assert char_poly(named_graph("complete", 2), "laplacian") == \
            poly(0, -2, 1)

    def test_monic_degree_n(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for kind in ("adjacency", "laplacian", "cycle"):
                    p = char_poly(g, kind)
                    assert p.degree == g.n and p.coeffs[-1] == 1

    def test_against_interpolation_determinant(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert char_poly(g, "adjacency") == \
                    char_poly_oracle(adjacency_matrix(g))
                assert char_poly(g, "laplacian") == \
                    char_poly_oracle(laplacian_matrix(g))

    def test_cycle_kind_against_oracle(self):
        for g in enumerate_graphs(4):
            assert char_poly(g, "cycle") == \
                char_poly_oracle(cycle_matrix(g))

    def test_laplacian_zero_multiplicity_is_component_count(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                p = char_poly(g, "laplacian")
                val = 0
                while p.coeff(val) == 0:
                    val += 1
                assert val == similarity_triple(g).k


class TestSpanningTrees:
    def test_complete_graphs(self):
        # Cayley: n^(n-2)
        for n in range(2, 6):
            assert spanning_tree_count(named_graph("complete", n)) == \
                n ** (n - 2)

    def test_matches_brute_force_connected(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                if similarity_triple(g).k == 1:
                    assert spanning_tree_count(g) == \
                        spanning_tree_count_brute(g)

    def test_disconnected_is_zero(self):
        assert spanning_tree_count(graph(3, [(0, 1)])) == 0


class TestMatchings:
    def test_counts_c4(self):
        assert matching_counts(C4) == (1, 4, 2)

    def test_counts_k3(self):
        assert matching_counts(K3) == (1, 3)

    def test_counts_edgeless(self):
        assert matching_counts(graph(3)) == (1,)

    def test_against_brute_force(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert matching_counts(g) == matching_counts_brute(g)

    def test_defect_c4(self):
        assert matching_poly(C4, "defect") == poly(2, 0, -4, 0, 1)

    def test_generating_c4(self):
        assert matching_poly(C4, "generating") == poly(1, 4, 2)

    def test_bivariate_total(self):
        m = matching_poly(C4, "bivariate")
        assert m.evaluate((1, 1)) == 7  # all matchings of C4

    def test_variant_relations_formal(self):
        # defect coeff at X^(n-2i) is (-1)^i m_i; bivariate exponent (i, n-2i)
        for g in enumerate_graphs(4):
            counts = matching_counts(g)
            defect = matching_poly(g, "defect")
            biv = matching_poly(g, "bivariate").as_dict()
            for i, mi in enumerate(counts):
                assert defect.coeff(g.n - 2 * i) == (-1) ** i * mi
                assert biv[(i, g.n - 2 * i)] == mi

    def test_tree_identity_small(self):
        for n in range(1, 7):
            for t in tree_shapes_by_prufer(n):
                assert char_poly(t, "adjacency") == matching_poly(t, "defect")

    def test_isolated_vertex_behavior(self):
        for g in enumerate_graphs(4):
            gk1 = disjoint_union(g, graph(1))
            assert matching_poly(gk1, "generating") == \
                matching_poly(g, "generating")
            assert matching_poly(gk1, "defect") == \
                matching_poly(g, "defect") * poly(0, 1)


class TestChromatic:
    def test_k3(self):
        assert chromatic_poly(K3) == poly(0, 2, -3, 1)

    def test_p3(self):
        # X (X-1)^2
        assert chromatic_poly(P3) == poly(0, 1, -2, 1)

    def test_k1(self):
        assert chromatic_poly(graph(1)) == poly(0, 1)

    def test_coloring_counts_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                p = chromatic_poly(g)
                for t in range(5):
                    assert evaluate(p, t) == proper_coloring_count(g, t)

    def test_sign_alternation_and_monic(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                p = chromatic_poly(g)
                assert p.coeffs[-1] == 1
                for i, c in enumerate(p.coeffs):
                    if c:
                        assert (c > 0) == ((g.n - i) % 2 == 0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            chromatic_poly(graph(11))

    @pytest.mark.parametrize("name, expected", [
        ("edgeless", from_roots([(0, 10)])),
        ("complete", from_roots([(i, 1) for i in range(10)])),
        ("path", from_roots([(0, 1), (1, 9)])),
        ("cycle", from_roots([(1, 10)]) + from_roots([(1, 1)])),
    ])
    def test_closed_forms_at_the_cap(self, name, expected):
        assert chromatic_poly(named_graph(name, 10)) == expected


class TestTutte:
    def test_k3(self):
        assert tutte_poly(K3).as_dict() == {(2, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_k2_single_bridge(self):
        assert tutte_poly(named_graph("complete", 2)).as_dict() == {(1, 0): 1}

    def test_c4(self):
        assert tutte_poly(C4).as_dict() == \
            {(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_against_subgraph_expansion(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                t = tutte_poly(g)
                for x, y in ((2, 3), (0, 0), (1, 1), (-1, 2), (2, -2)):
                    assert t.evaluate((x, y)) == tutte_eval_oracle(g, x, y)

    def test_spanning_tree_specialization(self):
        for g in enumerate_graphs(5):
            if similarity_triple(g).k == 1:
                assert tutte_poly(g).evaluate((1, 1)) == \
                    spanning_tree_count_brute(g)

    def test_chromatic_specialization(self):
        # P(G; L) = (-1)^(n-k) L^k T(G; 1-L, 0)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                k = similarity_triple(g).k
                at_y0 = {i: c for (i, j), c in tutte_poly(g).terms if j == 0}
                t_x = IntPoly(tuple(at_y0.get(i, 0) for i in range(n)))
                sign_lk = IntPoly((0,) * k + ((-1) ** (n - k),))
                assert chromatic_poly(g) == \
                    substitute(t_x, poly(1, -1)) * sign_lk

    def test_two_two_counts_edge_subsets(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g()[1:]:  # every graph with 1 <= n <= 7
            g = graph(h.number_of_nodes(), h.edges())
            assert tutte_poly(g).evaluate((2, 2)) == 2 ** g.m

    @pytest.mark.parametrize("n", [8, 9])
    def test_cayley_spanning_trees_of_complete_graph(self, n):
        assert tutte_poly(named_graph("complete", n)).evaluate((1, 1)) == \
            n ** (n - 2)


class TestUniversalTutte:
    def test_all_ones(self):
        assert universal_tutte_check(K3, [1, 1, 1, 1, 1])

    def test_by_construction_point(self):
        for g in enumerate_graphs(4):
            assert universal_tutte_check(g, [0, 0, 2, 1, 1])

    def test_rational_point(self):
        assert universal_tutte_check(C4, [1, 2, 3, 1, 2])
        assert universal_tutte_check(
            C4, [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 1, 2])

    def test_zero_u_or_w_rejected(self):
        with pytest.raises(ZeroDivisionError):
            universal_tutte_check(K3, [1, 1, 0, 1, 1])
        with pytest.raises(ZeroDivisionError):
            universal_tutte_check(K3, [1, 1, 1, 1, 0])


class TestSubsetFamilies:
    def test_independence_c4(self):
        assert subset_counting_poly(C4, "independence") == poly(1, 4, 2)

    def test_domination_c4(self):
        assert subset_counting_poly(C4, "domination") == poly(0, 0, 6, 4, 1)

    def test_edge_cover_p3(self):
        assert subset_counting_poly(P3, "edgeCover") == poly(0, 0, 1)

    def test_edge_cover_c4(self):
        assert subset_counting_poly(C4, "edgeCover") == poly(0, 0, 2, 4, 1)

    def test_edge_cover_against_brute_force(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                expected = edge_cover_counts_brute(g)
                assert subset_counting_poly(g, "edgeCover").coeffs == expected

    def test_isolated_vertex_kills_edge_cover(self):
        assert subset_counting_poly(graph(2), "edgeCover").is_zero()

    def test_clique_c4(self):
        assert subset_counting_poly(C4, "clique") == poly(1, 4, 4)

    def test_vertex_cover_c4(self):
        assert subset_counting_poly(C4, "vertexCover") == poly(0, 0, 2, 4, 1)

    def test_edge_cover_vertex_cap(self):
        # few edges but 2^n vertex subsets: refused before any table is built
        with pytest.raises(ValueError, match="subset family cap is n <= 24"):
            subset_counting_poly(graph(40), "edgeCover")
        with pytest.raises(ValueError, match="edge cover cap is m <= 24"):
            subset_counting_poly(named_graph("complete", 8), "edgeCover")

    def test_independence_and_clique_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g()[1:]:  # every graph with 1 <= n <= 7
            g = graph(h.number_of_nodes(), h.edges())
            for family, source in (("independence", nx.complement(h)),
                                   ("clique", h)):
                counts = [1] + [0] * g.n  # the empty set
                for c in nx.enumerate_all_cliques(source):
                    counts[len(c)] += 1
                assert subset_counting_poly(g, family) == \
                    IntPoly(tuple(counts)), (family, g)

    def test_vertex_cover_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g()[1:]:
            g = graph(h.number_of_nodes(), h.edges())
            counts = [0] * g.n + [1]  # V is the complement of the empty set
            for c in nx.enumerate_all_cliques(nx.complement(h)):
                counts[g.n - len(c)] += 1
            assert subset_counting_poly(g, "vertexCover") == \
                IntPoly(tuple(counts)), g

    def test_domination_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for h in nx.graph_atlas_g()[1:209]:  # every graph with 1 <= n <= 6
            g = graph(h.number_of_nodes(), h.edges())
            counts = [0] * (g.n + 1)
            for k in range(g.n + 1):
                for s in itertools.combinations(range(g.n), k):
                    counts[k] += nx.is_dominating_set(h, s)
            assert subset_counting_poly(g, "domination") == \
                IntPoly(tuple(counts)), g

    def test_empty_set_conventions(self):
        g = graph(3)  # edgeless
        assert subset_counting_poly(g, "independence").coeff(0) == 1
        assert subset_counting_poly(g, "clique").coeff(0) == 1
        # no edges: the empty set is a vertex cover
        assert subset_counting_poly(g, "vertexCover").coeff(0) == 1
        assert subset_counting_poly(g, "domination").coeff(0) == 0
        assert subset_counting_poly(K3, "vertexCover").coeff(0) == 0


class TestIdentities:
    def test_c4_identities(self):
        rep = catalog_identities(C4)
        assert rep.all_ok
        assert rep.independence_at_one == 7
        assert rep.clique_at_one == 9
        assert rep.counts_without_empty_set()["independence_at_one"] == 6
        assert rep.counts_without_empty_set()["clique_at_one"] == 8

    def test_edgeless_symmetry(self):
        rep = catalog_identities(graph(3))
        assert rep.all_ok
        # In = (1+X)^3 and Vc reversal reproduces it
        assert subset_counting_poly(graph(3), "independence") == \
            poly(1, 3, 3, 1)
        assert subset_counting_poly(graph(3), "vertexCover") == \
            poly(1, 3, 3, 1)

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert catalog_identities(g).all_ok

    def test_clique_of_c4_is_independence_of_2k2(self):
        assert subset_counting_poly(C4, "clique") == \
            subset_counting_poly(complement(C4), "independence")


class TestFamilyRegistry:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_polynomial("sigma", K3)

    def test_dispatch_matches_direct(self):
        assert family_polynomial("chromatic", K3) == chromatic_poly(K3)
        assert family_polynomial("matchingGen", C4) == poly(1, 4, 2)
