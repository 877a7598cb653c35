import itertools
from collections import Counter

import pytest

from grpoly import catalog
from grpoly.catalog import FAMILY_NAMES, family_polynomial
from grpoly.equivalence import (WitnessPair, dp_compare, dp_transfer,
                                find_collisions, similarity_classes,
                                value_partition)
from grpoly.graphs import graph_to_graph6, similarity_triple
from grpoly.polynomials import poly
from grpoly.simfun import ReductionSpec, verify_prefactor_reduction
from grpoly.transforms import (interleave_nonneg, negate_variable,
                               permute_coefficients, realify, scale_for_graph,
                               square_variable)


class TestSimilarityClasses:
    def test_trees_on_four_vertices_share_a_class(self):
        classes = {(c.triple.n, c.triple.m, c.triple.k): c.members
                   for c in similarity_classes(4)}
        assert len(classes[(4, 3, 1)]) == 2  # path and star

    def test_triangle_plus_isolated_is_alone(self):
        classes = {(c.triple.n, c.triple.m, c.triple.k): c.members
                   for c in similarity_classes(4)}
        assert len(classes[(4, 3, 2)]) == 1

    def test_nmax_two_all_singletons(self):
        assert all(len(c.members) == 1 for c in similarity_classes(2))

    def test_partition_is_exact(self):
        classes = similarity_classes(5)
        seen = set()
        for c in classes:
            for g in c.members:
                assert similarity_triple(g) == c.triple
                assert g not in seen
                seen.add(g)
        assert len(seen) == 1 + 2 + 4 + 11 + 34

    def test_cap(self):
        with pytest.raises(ValueError):
            similarity_classes(8)


class TestValuePartition:
    def test_trees_collide_under_chromatic(self):
        cls = next(c for c in similarity_classes(4)
                   if (c.triple.n, c.triple.m, c.triple.k) == (4, 3, 1))
        blocks = value_partition("chromatic", cls)
        assert len(blocks) == 1 and len(blocks[0]) == 2

    def test_singleton_class_single_block(self):
        cls = next(c for c in similarity_classes(4)
                   if (c.triple.n, c.triple.m, c.triple.k) == (4, 3, 2))
        assert value_partition("charA", cls) == [[cls.members[0]]]

    def test_callable_family(self):
        cls = next(c for c in similarity_classes(4)
                   if (c.triple.n, c.triple.m, c.triple.k) == (4, 3, 1))
        blocks = value_partition(lambda g: poly(g.m), cls)
        assert len(blocks) == 1


class TestDpTransfer:
    def test_matching_variants_transfer_both_ways(self):
        for cls in similarity_classes(5):
            ok1, _ = dp_transfer("matchingGen", "matchingDefect", cls)
            ok2, _ = dp_transfer("matchingDefect", "matchingGen", cls)
            assert ok1 and ok2

    def test_witness_structure(self):
        cls = next(c for c in similarity_classes(4)
                   if (c.triple.n, c.triple.m, c.triple.k) == (4, 3, 1))
        # chromatic can't tell the trees apart, charA can: chromatic-equality
        # does not force charA-equality
        ok, wit = dp_transfer("charA", "chromatic", cls)
        assert not ok
        assert wit.triple == cls.triple
        assert wit.left_values[0] != wit.left_values[1]
        assert wit.right_values[0] == wit.right_values[1]


class TestDpCompare:
    def test_reflexive(self):
        for fam in ("charA", "chromatic", "independence", "matchingGen",
                    "tutte"):
            assert dp_compare(fam, fam, 4).relation == "equivalent"

    def test_independence_vs_vertex_cover(self):
        assert dp_compare("independence", "vertexCover", 5).relation == \
            "equivalent"

    def test_independence_vs_clique(self):
        verdict = dp_compare("independence", "clique", 5)
        assert verdict.relation == "incomparable"
        assert len(verdict.witnesses) == 2
        for w in verdict.witnesses:
            left_eq = w.left_values[0] == w.left_values[1]
            right_eq = w.right_values[0] == w.right_values[1]
            assert left_eq != right_eq  # equal under exactly one family

    def test_char_polys_incomparable_at_six(self):
        verdict = dp_compare("charA", "charL", 6)
        assert verdict.relation == "incomparable"
        assert len(verdict.witnesses) == 2

    def test_symmetry_mirrors_relation(self):
        a = dp_compare("charA", "chromatic", 4).relation
        b = dp_compare("chromatic", "charA", 4).relation
        mirror = {"left-refines-right": "right-refines-left",
                  "right-refines-left": "left-refines-right"}
        assert b == mirror.get(a, a)

    def test_chromatic_refined_by_char_poly_on_small_graphs(self):
        # empirically at n <= 4: charA splits everything chromatic splits
        verdict = dp_compare("charA", "chromatic", 4)
        assert verdict.relation == "left-refines-right"

    def test_json_schema(self):
        import json
        verdict = dp_compare("charA", "charL", 6)
        obj = json.loads(json.dumps(verdict.to_json_dict()))
        assert set(obj) == {"left", "right", "relation", "witnesses"}
        for w in obj["witnesses"]:
            assert set(w) == {"class", "g1", "g2", "val1_left", "val2_left",
                              "val1_right", "val2_right"}


def _counted(name):
    calls = Counter()

    def family(g):
        calls[g] += 1
        return family_polynomial(name, g)

    family.__name__ = name
    return family, calls


def _transfer_compare(left, right, nmax):
    """dp_compare's relation and witnesses from dp_transfer, class by class."""
    left_forces_right = right_forces_left = True
    witnesses = []
    for cls in similarity_classes(nmax):
        if left_forces_right:
            ok, wit = dp_transfer(right, left, cls)
            if not ok:
                left_forces_right = False
                witnesses.append(WitnessPair(wit.triple, wit.g1, wit.g2,
                                             wit.right_values,
                                             wit.left_values))
        if right_forces_left:
            ok, wit = dp_transfer(left, right, cls)
            if not ok:
                right_forces_left = False
                witnesses.append(wit)
    relation = {(True, True): "equivalent",
                (True, False): "left-refines-right",
                (False, True): "right-refines-left",
                (False, False): "incomparable"}[left_forces_right,
                                                right_forces_left]
    return relation, [w.to_json_dict() for w in witnesses]


class TestDpCompareEvaluations:
    def test_each_family_once_per_graph(self):
        left, left_calls = _counted("independence")
        right, right_calls = _counted("vertexCover")
        verdict = dp_compare(left, right, 6)
        assert verdict.relation == "equivalent"  # every class is scanned
        members = Counter(g for cls in similarity_classes(6)
                          for g in cls.members)
        assert left_calls == right_calls == members

    def test_no_graph_evaluated_twice_after_a_failed_direction(self):
        left, left_calls = _counted("charA")
        right, right_calls = _counted("charL")
        assert dp_compare(left, right, 6).relation == "incomparable"
        assert set(left_calls.values()) == set(right_calls.values()) == {1}
        assert left_calls == right_calls

    def test_agrees_with_dp_transfer_on_every_pair(self):
        for left, right in itertools.product(FAMILY_NAMES, repeat=2):
            verdict = dp_compare(left, right, 5)
            relation, witnesses = _transfer_compare(left, right, 5)
            assert verdict.relation == relation, (left, right)
            assert [w.to_json_dict() for w in verdict.witnesses] == \
                witnesses, (left, right)


class TestSharedCorpus:
    """One corpus per process, and the catalog's kernels kept on it."""

    def test_second_call_returns_the_same_objects(self):
        first, second = similarity_classes(6), similarity_classes(6)
        assert type(first) is tuple
        assert all(type(cls.members) is tuple for cls in first)
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
        # every nmax reads the same graphs
        wider = similarity_classes(7)
        assert all(a is b for a, b in zip(first, wider))
        assert {c.triple.n for c in wider[len(first):]} == {7}

    def test_matching_counts_run_once_per_graph(self, monkeypatch):
        members = [g for cls in similarity_classes(6) for g in cls.members]
        for g in members:  # start from graphs that carry no counts
            vars(g).pop("matching_counts", None)
        calls = Counter()
        build = catalog._matching_counts

        def counted(g):
            calls[g] += 1
            return build(g)

        monkeypatch.setattr(catalog, "_matching_counts", counted)
        assert dp_compare("matchingDefect", "matchingGen", 6).relation == \
            "equivalent"  # every class is scanned
        assert calls == Counter(members)
        assert dp_compare("matchingGen", "matchingBiv", 6).relation == \
            "equivalent"
        assert calls == Counter(members)  # the second scan reads them


class TestTransformConsistency:
    INVERTIBLE = {
        "negate": negate_variable,
        "square": square_variable,
        "interleave": interleave_nonneg,
        "interleave+realify": lambda p: realify(interleave_nonneg(p),
                                                max(2 * len(p.coeffs) - 1, 0)),
        "reverse-permutation": lambda p: permute_coefficients(
            p, tuple(range(max(p.degree, 5), -1, -1))),
    }

    @pytest.mark.parametrize("name", sorted(INVERTIBLE))
    @pytest.mark.parametrize("family", ["independence", "matchingGen",
                                        "chromatic"])
    def test_transformed_family_keeps_distinctive_power(self, name, family):
        fn = self.INVERTIBLE[name]

        def transformed(g):
            return fn(family_polynomial(family, g))

        transformed.__name__ = f"{name}({family})"
        assert dp_compare(family, transformed, 5).relation == "equivalent"

    def test_graph_indexed_scaling_keeps_distinctive_power(self):
        def scaled(g):
            p = family_polynomial("chromatic", g)
            r = 0
            t = similarity_triple(g)
            while any(abs(c) > t.n ** r for c in p.coeffs):
                r += 1
            return scale_for_graph(p, t, r)

        assert dp_compare("chromatic", scaled, 5).relation == "equivalent"

    def test_squared_family_keeps_distinctive_power(self):
        for family in ("matchingGen", "matchingDefect"):
            def squared(g, fam=family):
                p = family_polynomial(fam, g)
                return p * p

            assert dp_compare(family, squared, 5).relation == "equivalent"


class TestCollisions:
    def test_chromatic_collisions_contain_tree_class(self):
        hits = find_collisions("chromatic", 4)
        keyed = {(c.triple.n, c.triple.m, c.triple.k):
                 sorted(graph_to_graph6(g) for g in b) for c, b in hits}
        assert (4, 3, 1) in keyed
        assert len(keyed[(4, 3, 1)]) == 2

    def test_char_poly_collision_free_below_six(self):
        assert find_collisions("charA", 5) == []
        assert find_collisions("charL", 5) == []

    def test_trivial_corpus(self):
        assert find_collisions("charA", 2) == []

    def test_adjacency_collisions_at_six(self):
        hits = find_collisions("charA", 6)
        assert hits, "adjacency-cospectral similar pairs exist at n = 6"

    def test_only_classes_that_can_collide_are_evaluated(self):
        family, calls = _counted("chromatic")
        find_collisions(family, 6)
        assert calls == Counter(g for cls in similarity_classes(6)
                                if len(cls.members) >= 2
                                for g in cls.members)


class TestPrefactorImpliesTransfer:
    def test_reduction_pass_implies_equivalence(self):
        corpus5 = [g for c in similarity_classes(5) for g in c.members]
        forward = ReductionSpec.from_strings(
            "vertexCover", "independence", "X1^n", ["X1^-1"])
        backward = ReductionSpec.from_strings(
            "independence", "vertexCover", "X1^n", ["X1^-1"])
        assert verify_prefactor_reduction(forward, corpus5).status == "PASS"
        assert verify_prefactor_reduction(backward, corpus5).status == "PASS"
        assert dp_compare("vertexCover", "independence", 5).relation == \
            "equivalent"
