import itertools
import random
import time
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from grpoly import catalog
from grpoly.catalog import (FAMILY_NAMES, _char_poly_of_matrix,
                            adjacency_matrix, char_poly, chromatic_poly,
                            cycle_matrix, family_polynomial, laplacian_matrix,
                            matching_counts, matching_poly,
                            spanning_tree_count, subset_counting_poly,
                            tutte_poly)
from grpoly.graphs import (complement, disjoint_union, enumerate_graphs,
                           graph, named_graph, similarity_triple,
                           tree_shapes_by_prufer)
from grpoly.polynomials import IntPoly, evaluate, from_roots, poly, substitute
from oracles import (char_poly_oracle, edge_cover_counts_brute,
                     matching_counts_brute, proper_coloring_count,
                     spanning_tree_count_brute, tutte_bundles_reference,
                     tutte_eval_oracle)

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
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert char_poly(g, "cycle") == \
                    char_poly_oracle(cycle_matrix(g))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_packed_rows_against_oracle(self, data):
        # entries of both signs in every slot; row sums up to 480 give
        # wider slots than any graph matrix with n <= 8 (at most 30)
        n = data.draw(st.integers(1, 8))
        entry = st.integers(-60, 60)
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        if data.draw(st.booleans()):
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                    for i in range(n)]
        assert _char_poly_of_matrix(rows) == char_poly_oracle(rows)

    def test_complete_graph_closed_forms(self):
        # K_n has the largest adjacency and Laplacian row sums on n
        # vertices, so the widest slots; its cycle matrix is 3J + (n - 4)I
        for n in range(2, 13):
            k = named_graph("complete", n)
            assert char_poly(k, "adjacency") == \
                from_roots([(n - 1, 1), (-1, n - 1)])
            assert char_poly(k, "laplacian") == \
                from_roots([(0, 1), (n, n - 1)])
            if n >= 3:  # K_2's lone edge lies on no cycle: entry 1, not 3
                assert char_poly(k, "cycle") == \
                    from_roots([(4 * n - 4, 1), (n - 4, n - 1)])

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

    def test_path_60_is_fast(self):
        # P_n has C(n - k, k) k-matchings; without the memo the edge
        # recursion makes Fibonacci-many calls on a path
        start = time.monotonic()
        counts = matching_counts(named_graph("path", 60))
        assert time.monotonic() - start < 1
        assert counts == tuple(comb(60 - k, k) for k in range(31))

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
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                p = chromatic_poly(g)
                for t in range(5 if n < 6 else 4):
                    assert evaluate(p, t) == proper_coloring_count(g, t)

    def test_sign_alternation_and_monic(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                p = chromatic_poly(g)
                assert p.coeffs[-1] == 1
                for i, c in enumerate(p.coeffs):
                    if c:
                        assert (c > 0) == ((g.n - i) % 2 == 0)

    def test_invariant_under_relabeling(self):
        # the DP fills only the sets without vertex 0, then V, so which
        # vertex is 0 must not matter: three seeded permutations of every
        # graph with n <= 7, and vertex 0 moved to an isolated and to a
        # universal vertex wherever the graph has one
        rng = random.Random(20091)
        moved = {"isolated": 0, "universal": 0}  # graphs, by new vertex 0
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                p = chromatic_poly(g)
                perms = [rng.sample(range(n), n) for _ in range(3)]
                for kind, d in (("isolated", 0), ("universal", n - 1)):
                    v = next((v for v in range(n) if g.degree(v) == d), None)
                    if v is not None:  # a rotation that sends v to 0
                        moved[kind] += 1
                        perms.append([(u - v) % n for u in range(n)])
                for perm in perms:
                    h = graph(n, [(perm[u], perm[v]) for u, v in g.edges])
                    assert chromatic_poly(h) == p, (g, perm)
        # K1, and one graph per graph on n - 1 <= 6 vertices (add the vertex)
        assert moved == {"isolated": 209, "universal": 209}

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

    def test_matches_bundle_reference(self):
        # the dense n = 8 graphs fill the most result slots and contract
        # into the largest bundles; n = 10 is checked below
        graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
        graphs += [g for g in enumerate_graphs(8) if g.m >= 22]
        graphs.append(named_graph("complete", 9))
        assert len(graphs) == 1252 + 100 + 1
        for g in graphs:
            assert tutte_poly(g).terms == tutte_bundles_reference(g).terms

    def test_every_coefficient_against_networkx(self):
        # networkx expands T in sympy by its own recursion.  A few points
        # cannot pin a bivariate polynomial; the whole term table can.
        nx = pytest.importorskip("networkx")
        sympy = pytest.importorskip("sympy")
        xy = sympy.symbols("x y")
        atlas = nx.graph_atlas_g()[1:]
        sample = ([h for h in atlas if h.number_of_nodes() <= 5]
                  + [h for h in atlas if h.number_of_nodes() == 6][::8])
        assert len(sample) == 52 + 20
        for h in sample:
            expected = sympy.Poly(nx.tutte_polynomial(h), *xy).as_dict()
            g = graph(h.number_of_nodes(), h.edges())
            assert tutte_poly(g).as_dict() == \
                {e: int(c) for e, c in expected.items()}

    @pytest.mark.parametrize("n", [8, 9])
    def test_cayley_spanning_trees_of_complete_graph(self, n):
        assert tutte_poly(named_graph("complete", n)).evaluate((1, 1)) == \
            n ** (n - 2)

    def test_matches_bundle_reference_at_ten(self):
        petersen = graph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)])
        rng = random.Random(41)
        rand10 = graph(10, [e for e in itertools.combinations(range(10), 2)
                            if rng.random() < 0.5])
        for g in (named_graph("complete", 10), petersen, rand10):
            assert tutte_poly(g).terms == tutte_bundles_reference(g).terms
        # the Petersen graph has 2000 spanning trees
        assert tutte_poly(petersen).evaluate((1, 1)) == 2000

    def test_k11_spanning_trees_and_edge_subsets(self):
        t = tutte_poly(named_graph("complete", 11))
        assert t.evaluate((1, 1)) == 11 ** 9
        assert t.evaluate((2, 2)) == 2 ** 55

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            tutte_poly(graph(13))


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
        # K8's 28 edges need no cap: 105 perfect matchings are the smallest
        # covers, and 252,522,481 = A006129(8) spanning subgraphs have no
        # isolated vertex
        k8 = subset_counting_poly(named_graph("complete", 8), "edgeCover")
        assert k8.coeffs[:5] == (0, 0, 0, 0, 105)
        assert sum(k8.coeffs) == 252522481 and k8.degree == 28

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
    def test_edgeless_symmetry(self):
        # In = (1+X)^3 and Vc reversal reproduces it
        assert subset_counting_poly(graph(3), "independence") == \
            poly(1, 3, 3, 1)
        assert subset_counting_poly(graph(3), "vertexCover") == \
            poly(1, 3, 3, 1)

    def test_clique_of_c4_is_independence_of_2k2(self):
        # by hand: the cliques of C4 are the empty set, its 4 vertices and
        # its 4 edges; the independent sets of 2K2 are the empty set, its 4
        # vertices and its 4 non-edges
        assert subset_counting_poly(C4, "clique") == poly(1, 4, 4)
        assert subset_counting_poly(complement(C4), "independence") == \
            poly(1, 4, 4)


class TestFamilyRegistry:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_polynomial("sigma", K3)

    def test_dispatch_matches_direct(self):
        assert family_polynomial("chromatic", K3) == chromatic_poly(K3)
        assert family_polynomial("matchingGen", C4) == poly(1, 4, 2)


class TestKeptKernels:
    """The matching counts and the independent-set table are computed once
    per graph and kept on it; family values are not."""

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        build = getattr(catalog, name)

        def counted(g):
            calls.append(g)
            return build(g)

        monkeypatch.setattr(catalog, name, counted)
        return calls

    def test_independent_set_table_built_once(self, monkeypatch):
        calls = self._counting(monkeypatch, "_independence_table")
        g = named_graph("cycle", 5)
        values = [family_polynomial(fam, g) for fam in
                  ("chromatic", "independence", "vertexCover", "chromatic")]
        assert calls == [g]
        # (X - 1)^5 - (X - 1); 1 + 5X + 5X^2 and its reversal
        assert values[0] == values[3] == poly(0, 4, -10, 10, -5, 1)
        assert values[1:3] == [poly(1, 5, 5), poly(0, 0, 0, 5, 5, 1)]

    def test_matching_counts_built_once(self, monkeypatch):
        calls = self._counting(monkeypatch, "_matching_counts")
        g = named_graph("path", 5)
        for variant in ("defect", "generating", "bivariate", "defect"):
            matching_poly(g, variant)
        assert calls == [g]

    def test_kept_kernels_leave_the_value_alone(self):
        g, fresh = named_graph("cycle", 5), named_graph("cycle", 5)
        before = hash(g), repr(g)
        for fam in FAMILY_NAMES:
            family_polynomial(fam, g)
        kept = {k: v for k, v in vars(g).items()
                if k not in ("n", "edges", "masks")}
        assert set(kept) == {"matching_counts", "independent_sets"}
        assert type(kept["matching_counts"]) is tuple
        assert type(kept["independent_sets"]) is bytes
        assert g == fresh and fresh == g
        assert (hash(g), repr(g)) == (hash(fresh), repr(fresh)) == before
