import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from grpoly.cli import main
from grpoly.graphs import (Graph, Graph6Error, _canon_search, _orbit_reps,
                           _refine_cells,
                           build_graph_with_parameters,
                           canonical_form, complement, connected_components,
                           disjoint_union, enumerate_graphs, graph,
                           graph_from_graph6, graph_to_graph6, named_graph,
                           similarity_triple, tree_from_prufer,
                           tree_shapes_by_prufer, SimilarityTriple)
from oracles import (brute_isomorphic, orbit_counting_classes,
                     prufer_decode_reference, prufer_tree_shapes,
                     refine_cells_reference, tree_code)


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    return graph(n, edges)


def relabeled(g: Graph, perm) -> Graph:
    return graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def generated_group_order(n: int, perms) -> int:
    """Order of the permutation group that ``perms`` generate, by closure."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for p in perms:
            h = tuple(p[g[v]] for v in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return len(group)


class TestGraphValue:
    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            graph(0)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            graph(3, [(0, 3)])

    def test_edges_normalized(self):
        g = graph(3, [(2, 0)])
        assert g.edges == frozenset({(0, 2)})

    def test_masks_field(self):
        g = graph(4, [(2, 0), (0, 1)])
        assert g.masks == (0b0110, 0b0001, 0b0001, 0)
        assert [g.degree(v) for v in range(4)] == [2, 1, 1, 0]
        # derived data: equality, hashing and repr stay on (n, edges)
        h = Graph(4, frozenset({(0, 1), (0, 2)}))
        assert g == h and hash(g) == hash(h)
        assert "masks" not in repr(g)


class TestGraph6:
    def test_k2(self):
        assert graph_to_graph6(named_graph("complete", 2)) == "A_"
        assert graph_from_graph6("A_") == named_graph("complete", 2)

    def test_k1(self):
        assert graph_from_graph6("@") == graph(1)

    def test_spec_line_round_trip(self):
        g = graph_from_graph6("D?{")
        assert g.n == 5
        assert graph_to_graph6(g) == "D?{"

    def test_round_trip_all_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert graph_from_graph6(graph_to_graph6(g)) == g

    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_round_trip_random(self, n, rng):
        g = random_graph(rng, n)
        assert graph_from_graph6(graph_to_graph6(g)) == g

    def test_bad_byte_offset(self):
        with pytest.raises(Graph6Error) as exc:
            graph_from_graph6("C\x1f")
        assert exc.value.offset == 1

    def test_bad_length(self):
        with pytest.raises(Graph6Error):
            graph_from_graph6("D?")  # n=5 needs 2 payload bytes, got 1

    def test_nonzero_padding(self):
        # K1,4 is D?{; flip a padding bit in the last byte
        with pytest.raises(Graph6Error):
            graph_from_graph6("D?|")

    def test_larger_size_header(self):
        g = graph(70, [(0, 69)])
        line = graph_to_graph6(g)
        assert line.startswith("~")
        assert graph_from_graph6(line) == g


class TestSimilarityTriples:
    def test_cycle(self):
        t = similarity_triple(named_graph("cycle", 4))
        assert (t.n, t.m, t.k, t.nu, t.rho) == (4, 4, 1, 1, 3)

    def test_two_isolated(self):
        t = similarity_triple(graph(2))
        assert (t.n, t.m, t.k, t.nu, t.rho) == (2, 0, 2, 0, 0)

    def test_triangle_plus_isolated(self):
        g = disjoint_union(named_graph("complete", 3), graph(1))
        t = similarity_triple(g)
        assert (t.n, t.m, t.k, t.nu, t.rho) == (4, 3, 2, 1, 2)

    def test_all_enumerated_triples_are_admissible(self):
        # SimilarityTriple enforces the two admissibility inequalities
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                similarity_triple(g)

    def test_invalid_triples_rejected(self):
        with pytest.raises(ValueError):
            SimilarityTriple(2, 3, 1)  # too many edges
        with pytest.raises(ValueError):
            SimilarityTriple(4, 1, 1)  # too few edges for one component


class TestConstructions:
    def test_complement_triangle(self):
        assert complement(named_graph("complete", 3)).m == 0

    def test_complement_c4_is_2k2(self):
        cc = complement(named_graph("cycle", 4))
        assert cc.m == 2
        assert len(connected_components(cc)) == 2

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_complement_involutive(self, n, rng):
        g = random_graph(rng, n)
        assert complement(complement(g)) == g

    @given(st.integers(1, 5), st.integers(1, 5),
           st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_union_additive(self, na, nb, rng):
        a, b = random_graph(rng, na), random_graph(rng, nb)
        u = disjoint_union(a, b)
        ta, tb, tu = (similarity_triple(x) for x in (a, b, u))
        assert (tu.n, tu.m, tu.k) == (ta.n + tb.n, ta.m + tb.m, ta.k + tb.k)

    def test_named(self):
        assert named_graph("cycle", 4).m == 4
        assert named_graph("complete", 3).m == 3
        assert named_graph("path", 3).m == 2
        assert named_graph("star", 3) == graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError):
            named_graph("moebius", 5)

    def test_prufer_tree(self):
        t = tree_from_prufer([0, 0])  # star on 4 vertices centered at 0
        assert t.m == 3
        assert t.degree(0) == 3

    @given(st.integers(4, 9), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_prufer_matches_reference(self, n, rng):
        code = [rng.randrange(n) for _ in range(n - 2)]
        assert tree_from_prufer(code).sorted_edges() == \
            prufer_decode_reference(code, n)


class TestBuildWithParameters:
    def test_density_walkthrough_triple(self):
        g = build_graph_with_parameters(12, 18, 6)
        t = similarity_triple(g)
        assert (t.n, t.m, t.k) == (12, 18, 6)

    def test_all_isolated(self):
        g = build_graph_with_parameters(3, 0, 3)
        assert g.m == 0 and g.n == 3

    def test_edge_cap_violation_names_inequality(self):
        with pytest.raises(ValueError, match="C\\(v-k\\+1, 2\\)"):
            build_graph_with_parameters(2, 3, 1)

    def test_component_bound_violation(self):
        with pytest.raises(ValueError, match="v - e <= k"):
            build_graph_with_parameters(5, 1, 2)

    def test_right_inverse_on_valid_region(self):
        from math import comb
        for v in range(1, 9):
            for k in range(1, v + 1):
                for e in range(max(0, v - k), comb(v - k + 1, 2) + 1):
                    t = similarity_triple(build_graph_with_parameters(v, e, k))
                    assert (t.n, t.m, t.k) == (v, e, k)


class TestCanonicalForm:
    def test_relabel_invariance(self):
        p3a = graph(3, [(0, 1), (1, 2)])
        p3b = graph(3, [(0, 2), (1, 2)])
        assert canonical_form(p3a) == canonical_form(p3b)

    def test_distinguishes(self):
        assert canonical_form(named_graph("complete", 3)) != \
            canonical_form(named_graph("path", 3))

    def test_pairwise_distinct_classes_n4(self):
        graphs4 = enumerate_graphs(4)
        forms = [canonical_form(g) for g in graphs4]
        assert len(set(forms)) == 11
        for a, b in itertools.combinations(graphs4, 2):
            assert not brute_isomorphic(a, b)

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_isomorphism(self, n, rng):
        a, b = random_graph(rng, n), random_graph(rng, n)
        assert (canonical_form(a) == canonical_form(b)) == \
            brute_isomorphic(a, b)

    def test_relabeled_random_graphs_collide(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(g) == canonical_form(h)

    def test_symmetric_graphs_at_the_size_cap(self):
        # refinement leaves every vertex in one cell made of twin classes; a
        # search over every ordering of that cell would take minutes
        k5 = named_graph("complete", 5)
        shapes = [named_graph("edgeless", 10), named_graph("complete", 10),
                  named_graph("star", 9),
                  graph(10, [(u, v) for u in range(5) for v in range(5, 10)]),
                  disjoint_union(k5, k5)]
        rng = random.Random(7)
        keys = []
        for g in shapes:
            forms = {canonical_form(g)}
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                forms.add(canonical_form(
                    graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])))
            assert len(forms) == 1
            keys.append(forms.pop())
        assert len(set(keys)) == len(shapes)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            canonical_form(graph(11))


class TestRefinement:
    def test_matches_reference_on_relabeled_classes(self):
        rng = random.Random(11)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    masks = graph(n, [(perm[u], perm[v])
                                      for u, v in g.edges]).masks
                    assert _refine_cells(n, masks) == \
                        refine_cells_reference(n, masks)

    def test_matches_reference_on_n8_extensions(self):
        # every 4th neighbourhood of each n = 7 class, offset by class index
        for r, g in enumerate(enumerate_graphs(7)):
            for nb in range(r % 4, 1 << 7, 4):
                masks = [row | 1 << 7 if nb >> i & 1 else row
                         for i, row in enumerate(g.masks)] + [nb]
                assert _refine_cells(8, masks) == \
                    refine_cells_reference(8, masks)


class TestAutomorphisms:
    def test_maps_are_automorphisms(self):
        rng = random.Random(13)
        cases = [named_graph(f, 8) for f in ("complete", "cycle", "path",
                                             "edgeless")]
        cases.append(named_graph("star", 7))
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                cases.append(relabeled(g, perm))
        for g in cases:
            for perm in _canon_search(g.n, g.masks)[1]:
                assert sorted(perm) == list(range(g.n))
                assert {tuple(sorted((perm[u], perm[v])))
                        for u, v in g.edges} == g.edges

    def test_maps_generate_the_whole_group(self):
        rng = random.Random(17)
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = relabeled(g, perm)
                    autos = _canon_search(n, h.masks)[1]
                    nxg = nx.Graph(list(h.edges))
                    nxg.add_nodes_from(range(n))
                    order = sum(1 for _ in nx.algorithms.isomorphism
                                .GraphMatcher(nxg, nxg).isomorphisms_iter())
                    assert generated_group_order(n, autos) == order

    def test_orbit_representatives_reach_every_extension_class(self):
        def key(g, nb):
            masks = [row | 1 << 6 if nb >> i & 1 else row
                     for i, row in enumerate(g.masks)] + [nb]
            return _canon_search(7, masks)[0]

        kept = 0
        for g in enumerate_graphs(6):
            reps = list(_orbit_reps(range(64), _canon_search(6, g.masks)[1]))
            kept += len(reps)
            assert {key(g, nb) for nb in reps} == \
                {key(g, nb) for nb in range(64)}
        assert kept < 156 * 64


class TestEnumeration:
    def test_counts_small(self):
        assert [len(enumerate_graphs(n)) for n in range(1, 7)] == \
            [1, 2, 4, 11, 34, 156]

    def test_orbit_counting_cross_check(self):
        for n in range(1, 7):
            assert len(enumerate_graphs(n)) == orbit_counting_classes(n)

    def test_pairwise_non_isomorphic_n4(self):
        graphs4 = enumerate_graphs(4)
        for a, b in itertools.combinations(graphs4, 2):
            assert not brute_isomorphic(a, b)

    def test_mk_filter_trees(self):
        trees = enumerate_graphs(4, mk=(3, 1))
        assert len(trees) == 2  # the path and the star

    def test_mk_filter_triangle_plus_point(self):
        got = enumerate_graphs(4, mk=(3, 2))
        assert len(got) == 1
        assert brute_isomorphic(
            got[0], disjoint_union(named_graph("complete", 3), graph(1)))

    def test_range_cap(self):
        with pytest.raises(ValueError):
            enumerate_graphs(9)
        with pytest.raises(ValueError):
            enumerate_graphs(0)

    def test_deterministic_order(self):
        a = [graph_to_graph6(g) for g in enumerate_graphs(5)]
        b = [graph_to_graph6(g) for g in enumerate_graphs(5)]
        assert a == b

    def test_edge_count_distribution_n8(self):
        # OEIS A008406, row 8: classes on 8 vertices by edge count
        counts = [0] * 29
        for g in enumerate_graphs(8):
            counts[g.m] += 1
        assert counts == [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980,
                          1312, 1557, 1646, 1557, 1312, 980, 663, 402, 221,
                          115, 56, 24, 11, 5, 2, 1, 1]
        assert sum(counts) == 12346

    def test_pairwise_distinct_canonical_forms_n8(self):
        forms = {canonical_form(g) for g in enumerate_graphs(8)}
        assert len(forms) == 12346

    def test_enum_n8_stdout_digest(self, capsys):
        # graph6 lines of every class, in the documented order
        assert main(["enum", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "708124448e3a9d661789e4a0d627160acd843c496fb58d285e3a3aeb3a26a4ee"

    def test_matches_networkx_atlas(self):
        # the atlas lists every graph with n <= 7, one per class
        atlas: dict[int, set[bytes]] = {n: set() for n in range(1, 8)}
        for h in nx.graph_atlas_g()[1:]:
            atlas[h.number_of_nodes()].add(
                canonical_form(graph(h.number_of_nodes(), h.edges())))
        for n in range(1, 8):
            forms = [canonical_form(g) for g in enumerate_graphs(n)]
            assert len(forms) == len(set(forms))
            assert set(forms) == atlas[n]


class TestTreeShapes:
    def test_counts_up_to_seven(self):
        assert [len(tree_shapes_by_prufer(n)) for n in range(1, 8)] == \
            [1, 1, 1, 2, 3, 6, 11]

    def test_matches_enumeration_filter(self):
        # trees are the connected graphs with m = n - 1
        for n in range(2, 8):
            assert len(tree_shapes_by_prufer(n)) == \
                len(enumerate_graphs(n, mk=(n - 1, 1)))

    def test_all_are_trees_and_distinct(self):
        shapes = tree_shapes_by_prufer(6)
        forms = set()
        for t in shapes:
            assert t.m == 5
            assert len(connected_components(t)) == 1
            forms.add(canonical_form(t))
        assert len(forms) == len(shapes)

    def test_sorted_by_graph6(self):
        for n in range(1, 10):
            g6 = [graph_to_graph6(t) for t in tree_shapes_by_prufer(n)]
            assert g6 == sorted(g6)

    def test_graph6_digest_up_to_ten(self):
        # the kept representative of each shape, not only the shape set
        text = "".join(graph_to_graph6(t) + "\n" for n in range(1, 11)
                       for t in tree_shapes_by_prufer(n))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "df469abf593ed74026674cc6ca78752b7408b9eba0948bf66462a2a822f84af4"

    def test_matches_networkx_nonisomorphic_trees(self):
        for n in range(2, 10):
            codes = [tree_code(n, t.edges) for t in tree_shapes_by_prufer(n)]
            expected = {tree_code(n, t.edges())
                        for t in nx.nonisomorphic_trees(n)}
            assert len(codes) == len(set(codes))
            assert set(codes) == expected

    def test_matches_exhaustive_prufer_decoding(self):
        for n in range(2, 8):
            codes = {tree_code(n, t.edges) for t in tree_shapes_by_prufer(n)}
            assert codes == set(prufer_tree_shapes(n))

