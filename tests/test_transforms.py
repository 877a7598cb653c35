import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from grpoly import transforms
from grpoly.catalog import (FAMILY_ARITY, FAMILY_NAMES, chromatic_poly,
                            family_polynomial)
from grpoly.graphs import SimilarityTriple, enumerate_graphs, named_graph, \
    similarity_triple
from grpoly.polynomials import IntPoly, ZERO, evaluate, poly, substitute
from grpoly.roots import (complex_roots, integer_roots, is_real_rooted,
                          root_report, sign_profile, sturm_count)
from grpoly.transforms import (DensityCapError, TransformRecord,
                               apply_named_transform,
                               deinterleave, dense_real_prefactor, densify,
                               density_witness, interleave_nonneg, negate_variable,
                               parse_chain, permute_coefficients,
                               quadrant_factor, quadrant_prefactor, realify,
                               realify_rootencode, recover_coefficients,
                               remap_roots, rouche_scale, scale_for_graph,
                               square_variable)
from oracles import (approximate_target_reference, eval_at_gaussian,
                     named_transform_reference)

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(
    lambda cs: IntPoly(tuple(cs)))

# signed coefficients past 2^64
big_ints = st.integers(-(1 << 70), 1 << 70)
big_polys = st.lists(big_ints, max_size=9).map(lambda cs: IntPoly(tuple(cs)))
BIG = (1 << 64) + 1

T441 = SimilarityTriple(4, 4, 1)
T542 = SimilarityTriple(5, 4, 2)


class TestSignTransforms:
    def test_negate_generating_matching(self):
        out = negate_variable(poly(1, 4, 2))
        assert out == poly(1, -4, 2)
        assert sign_profile(out) == (0, 0, 2)  # both roots positive now

    def test_negate_monomial(self):
        assert negate_variable(poly(0, 1)) == poly(0, -1)

    def test_negate_square(self):
        assert negate_variable(poly(1, 2, 1)) == poly(1, -2, 1)

    def test_square_shifts_parity(self):
        assert square_variable(poly(1, 1)) == poly(1, 0, 1)
        assert square_variable(poly(0, 1)) == poly(0, 0, 1)

    def test_square_has_no_nonzero_real_roots(self):
        out = square_variable(poly(1, 4, 2))
        assert out == poly(1, 0, 4, 0, 2)
        assert sturm_count(out, (-math.inf, math.inf)) == 0

    def test_nonneg_catalog_invariants(self):
        for g in enumerate_graphs(4):
            for fam in ("matchingGen", "independence", "clique",
                        "domination", "edgeCover", "vertexCover"):
                p = family_polynomial(fam, g)
                if p.is_zero() or p.degree < 1:
                    continue
                neg, zero, pos = sign_profile(negate_variable(p))
                assert neg == 0
                nz = sign_profile(square_variable(p))
                assert nz[0] == 0 and nz[2] == 0


class TestCoefficientMaps:
    @given(big_polys)
    @example(ZERO)
    @example(poly(BIG, -BIG, 0, BIG))
    def test_negate_is_composition_with_minus_x(self, p):
        assert negate_variable(p) == substitute(p, poly(0, -1))

    @given(big_polys)
    @example(ZERO)
    @example(poly(-BIG, 0, BIG))
    def test_square_is_composition_with_x_squared(self, p):
        assert square_variable(p) == substitute(p, poly(0, 0, 1))

    @given(st.lists(big_ints, max_size=8), big_ints.filter(bool),
           st.one_of(st.just(0), st.integers(1, 1 << 70)))
    @example([], 1, 0)  # a = 1
    @example([1, 0, 1], -1, 0)  # negative lead
    @example([1, -1, 0], 1, 0)  # a = 1 at the bound
    @example([BIG, -BIG], 3, 5)
    def test_rouche_is_composition_with_ax(self, lower, lead, extra):
        p = IntPoly(tuple(lower) + (lead,))
        a = max([1] + [abs(c) for c in lower]) + extra
        assert rouche_scale(p, a) == substitute(p, poly(0, a))

    def test_relocate_named_records_match_composition(self):
        # the benchmark's named set, without densify; scale's r is the least
        # r >= 1 with n^r above every |coefficient|
        records = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                t = similarity_triple(g)
                for fam in ("charA", "matchingDefect", "independence",
                            "chromatic"):
                    p = family_polynomial(fam, g)
                    bound, r = max(abs(c) for c in p.coeffs), 1
                    while n > 1 and n ** r < bound:
                        r += 1
                    for name, arg in (("negate", None), ("square", None),
                                      ("rouche", None), ("scale", str(r))):
                        got = apply_named_transform(name, p, t, arg)
                        want = named_transform_reference(name, p, t, arg)
                        assert json.dumps(got.to_json_dict()) == \
                            json.dumps(want.to_json_dict()), (name, fam, n)
                        records += 1
        assert records == 3328


class TestInterleave:
    def test_mixed_signs(self):
        assert interleave_nonneg(poly(2, -1)) == poly(2, 0, 0, 1)

    def test_nonneg_input_even_slots(self):
        assert interleave_nonneg(poly(1, 4, 2)) == poly(1, 0, 4, 0, 2)

    def test_negative_constant(self):
        out = interleave_nonneg(poly(-1))
        assert out == poly(0, 1)
        assert deinterleave(out) == poly(-1)

    @given(small_polys)
    @settings(max_examples=60)
    def test_round_trip(self, p):
        q = interleave_nonneg(p)
        assert all(c >= 0 for c in q.coeffs)
        assert deinterleave(q) == p

    def test_round_trip_on_signed_catalog(self):
        for g in enumerate_graphs(4):
            for fam in ("charA", "chromatic", "matchingDefect"):
                p = family_polynomial(fam, g)
                assert deinterleave(interleave_nonneg(p)) == p


class TestRealify:
    def test_two_coefficients(self):
        out = realify(poly(1, 2), 1)
        assert out == poly(0, 0, -1, 3, -3, 1)  # X^2 (X-1)^3
        assert recover_coefficients(out, 1) == poly(1, 2)

    def test_zero_coefficient_keeps_multiplicity_one(self):
        assert realify(IntPoly((0,)), 0) == poly(0, 1)
        assert recover_coefficients(poly(0, 1), 0) == IntPoly((0,))

    def test_generating_matching_c4(self):
        out = realify(poly(1, 4, 2), 2)
        assert out.degree == 10
        assert integer_roots(out) == {0: 2, 1: 5, 2: 3}

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="negative coefficient"):
            realify(poly(-1, 2), 1)

    def test_degree_bound_rejected(self):
        with pytest.raises(ValueError):
            realify(poly(1, 1, 1), 1)

    @given(small_polys)
    @settings(max_examples=30, deadline=None)
    def test_signed_pipeline_round_trip(self, p):
        q = interleave_nonneg(p)
        s = max(q.degree, 0)
        r = realify(q, s)
        assert deinterleave(recover_coefficients(r, s)) == p

    @pytest.mark.parametrize("make", [
        lambda r: r * 2,
        lambda r: -r,
        lambda r: r * poly(-2, 1),  # an extra root at s + 1
    ], ids=["doubled", "negated", "extra-root"])
    def test_non_realified_multiple_rejected(self, make):
        r = realify(poly(1, 2), 1)
        with pytest.raises(ValueError):
            recover_coefficients(make(r), 1)

    @pytest.mark.parametrize("index", range(6))
    def test_changed_coefficient_rejected(self, index):
        coeffs = list(realify(poly(1, 2), 1).coeffs)
        coeffs[index] += 1
        with pytest.raises(ValueError):
            recover_coefficients(IntPoly(tuple(coeffs)), 1)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            recover_coefficients(IntPoly(()), 1)

    def test_rootencode(self):
        assert realify_rootencode(poly(3, 5)) == poly(15, -8, 1)
        assert realify_rootencode(IntPoly(())) == poly(0, 1)
        assert realify_rootencode(poly(1, -1)) == poly(-1, 0, 1)


class TestDensePrefactors:
    def test_positive_pair(self):
        out = dense_real_prefactor(T542)
        assert out == poly(10, -29, 10)
        assert evaluate(out, Fraction(5, 2)) == 0
        assert evaluate(out, Fraction(2, 5)) == 0

    def test_degenerate_single_vertex(self):
        t = SimilarityTriple(1, 0, 1)
        assert dense_real_prefactor(t) == poly(1, -2, 1)

    def test_negative_pair_is_the_mirror_image(self):
        out = negate_variable(dense_real_prefactor(T542))
        assert out == poly(10, 29, 10)
        assert evaluate(out, Fraction(-5, 2)) == 0
        assert evaluate(out, Fraction(-2, 5)) == 0

    def test_quadrant_factor_example(self):
        f = quadrant_factor(1, 2, 3)
        assert f == poly(5, -6, 9)
        assert eval_at_gaussian(f, Fraction(1, 3), Fraction(2, 3)) == (0, 0)

    def test_quadrant_factor_scale_invariant_roots(self):
        f1 = quadrant_factor(1, 2, 3)
        f2 = quadrant_factor(2, 4, 6)
        assert f2 == f1 * 4
        assert eval_at_gaussian(f2, Fraction(1, 3), Fraction(2, 3)) == (0, 0)

    def test_quadrant_prefactor_c4(self):
        p = quadrant_prefactor(T441)
        assert p.degree == 12
        # every root (a + bi)/c for a bijection (a,b,c) of (4,4,1)
        for a, b, c in itertools.permutations((4, 4, 1)):
            assert eval_at_gaussian(p, Fraction(a, c), Fraction(b, c)) == (0, 0)
        # no root on an axis for this triple
        for z, _ in complex_roots(p):
            assert abs(z.real) > 1e-9 and abs(z.imag) > 1e-9

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            quadrant_prefactor(SimilarityTriple(2, 0, 2))


class TestDensify:
    def test_pure_prefactor(self):
        out = densify(poly(1), T441, "complex")
        assert out.degree == 24

    @pytest.mark.parametrize("t", [T441, T542], ids=["T441", "T542"])
    def test_complex_prefactor_vanishes_in_all_four_quadrants(self, t):
        out = densify(poly(1), t, "complex")
        for a, b, c in itertools.permutations((t.n, t.m, t.k)):
            for re, im in itertools.product((a, -a), (b, -b)):
                assert eval_at_gaussian(out, Fraction(re, c),
                                        Fraction(im, c)) == (0, 0)

    def test_real_mode(self):
        p = poly(0, 0, -1, 3, -3, 1)  # X^2 (X-1)^3, real rooted
        out = densify(p, T542, "real-positive")
        assert out.degree == 7
        assert is_real_rooted(out)

    def test_real_mode_rejects_complex_roots(self):
        with pytest.raises(ValueError):
            densify(poly(1, 0, 1), T542, "real-positive")

    def test_roots_contain_input_roots(self):
        p = poly(-2, 1)  # root 2
        out = densify(p, T441, "complex")
        assert evaluate(out, 2) == 0


class TestDensityWitness:
    def test_worked_example(self):
        w = density_witness(Fraction(1, 3), Fraction(2, 3), Fraction(1, 10 ** 9))
        assert (w.a, w.b, w.c) == (1, 2, 3)
        assert w.scale == 6
        assert (w.triple.n, w.triple.m, w.triple.k) == (12, 18, 6)
        assert w.root == (Fraction(1, 3), Fraction(2, 3))
        assert w.distance_sq == 0
        assert w.residual <= 1e-9
        t = similarity_triple(w.graph)
        assert (t.n, t.m, t.k) == (12, 18, 6)

    def test_diagonal_target_forces_distinct(self):
        eps = Fraction(1, 250)
        w = density_witness(Fraction(1), Fraction(1), eps)
        assert len({w.a, w.b, w.c}) == 3
        assert w.distance_sq < eps * eps

    def test_loose_eps_small_witness(self):
        w = density_witness(Fraction(1, 2), Fraction(1, 2), Fraction(2))
        assert len({w.a, w.b, w.c}) == 3
        assert w.distance_sq < 4
        assert float(w.distance_sq) ** 0.5 < 2

    def test_prefactor_vanishes_at_root(self):
        w = density_witness(Fraction(3, 7), Fraction(1, 5), Fraction(1, 100))
        p = quadrant_prefactor(w.triple)
        assert eval_at_gaussian(p, w.root[0], w.root[1]) == (0, 0)

    def test_axis_rejected(self):
        with pytest.raises(ValueError):
            density_witness(Fraction(0), Fraction(1), Fraction(1, 10))
        with pytest.raises(ValueError):
            density_witness(Fraction(1), Fraction(-1), Fraction(1, 10))

    def test_eps_cap_reported(self):
        with pytest.raises(DensityCapError,
                           match="within eps = 1/10000000000000 up to "
                                 "denominator 20000$"):
            density_witness(Fraction(10 ** 6 + 1, 3 * 10 ** 6),
                            Fraction(2, 3), Fraction(1, 10 ** 13))

    @given(st.fractions(Fraction(1, 10 ** 4), 5, max_denominator=10 ** 4),
           st.fractions(Fraction(1, 10 ** 4), 5, max_denominator=10 ** 4),
           st.fractions(Fraction(1, 400), 3, max_denominator=10 ** 3))
    @settings(max_examples=80, deadline=None)
    @example(Fraction(1, 2), Fraction(3, 2), Fraction(1, 50))  # rounding ties
    @example(Fraction(5, 2), Fraction(7, 2), Fraction(3, 2))
    @example(Fraction(1), Fraction(1), Fraction(1, 250))
    def test_search_matches_fraction_reference(self, re, im, eps):
        # the search alone: far targets make witness graphs of 10^5+ edges
        assert transforms._approximate_target(re, im, eps) == \
            approximate_target_reference(re, im, eps)

    def test_search_matches_reference_on_benchmark_targets(self):
        rng = random.Random(20)
        for _ in range(60):
            re = Fraction(rng.randint(1, 999), 1000)
            im = Fraction(rng.randint(1, 999), 1000)
            w = density_witness(re, im, Fraction(1, 100))
            assert (w.a, w.b, w.c) == \
                approximate_target_reference(re, im, Fraction(1, 100))


class TestDiskScaling:
    def test_quadratic(self):
        assert rouche_scale(poly(2, -3, 1), 3) == poly(2, -9, 9)

    def test_monomial(self):
        assert rouche_scale(poly(0, 0, 0, 1), 1) == poly(0, 0, 0, 1)

    def test_chromatic_k3(self):
        p = chromatic_poly(named_graph("complete", 3))
        out = rouche_scale(p, 3)
        assert out == poly(0, 6, -27, 27)
        roots = {z for z, _ in complex_roots(out)}
        for z in roots:
            assert abs(z) <= 2 + 1e-6

    def test_scale_too_small(self):
        with pytest.raises(ValueError,
                           match=r"^scale 2 below required max\(1, 3\)$"):
            rouche_scale(poly(2, -3, 1), 2)

    @pytest.mark.parametrize("p,a,message", [
        (ZERO, 1, "cannot scale the zero polynomial"),
        (poly(1), 0, r"scale 0 below required max\(1, 0\)"),
    ])
    def test_rejected_inputs(self, p, a, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rouche_scale(p, a)

    def test_negative_leads_scale_into_the_disk(self):
        # P(-X) of an odd-degree family polynomial leads with a negative
        # coefficient; |h_d| >= 1 is all the disk bound needs
        families = [f for f in FAMILY_NAMES if FAMILY_ARITY[f] == 1]
        scaled = []
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                for fam in families:
                    p = negate_variable(family_polynomial(fam, g))
                    if not p.is_zero() and p.coeffs[-1] < 0:
                        scaled.append(
                            apply_named_transform("rouche", p).output)
        assert len(scaled) == 697
        assert max(root_report(q).max_modulus for q in scaled) <= 2 + 1e-6

    def test_scale_for_graph(self):
        k3 = named_graph("complete", 3)
        out = scale_for_graph(chromatic_poly(k3), similarity_triple(k3), 1)
        assert out == poly(0, 6, -27, 27)

    def test_scale_for_graph_independence_c4(self):
        c4 = named_graph("cycle", 4)
        out = scale_for_graph(poly(1, 4, 2), similarity_triple(c4), 1)
        assert out == poly(1, 16, 32)
        assert root_report(out).max_modulus <= 2 + 1e-6

    def test_coefficient_bound_violation_reported(self):
        k3 = named_graph("complete", 3)
        with pytest.raises(ValueError, match="exceeds n\\^r"):
            scale_for_graph(chromatic_poly(k3), similarity_triple(k3), 0)


class TestRemapAndPermute:
    def test_shift(self):
        out = remap_roots(poly(-1, 0, 1), Fraction(1), Fraction(1))
        # roots {-1, 1} -> {0, 2}
        assert evaluate(out, Fraction(0)) == 0
        assert evaluate(out, Fraction(2)) == 0
        assert out.degree == 2

    def test_identity_map(self):
        out = remap_roots(poly(-4, 0, 2), Fraction(1), Fraction(0))
        assert out.degree == 2
        assert evaluate(out, Fraction(2) ** Fraction(1)) != 1  # smoke
        assert out == poly(-2, 0, 1)  # divided by the content 2

    def test_halving(self):
        out = remap_roots(poly(-4, 0, 1), Fraction(1, 2), Fraction(0))
        assert evaluate(out, Fraction(1)) == 0
        assert evaluate(out, Fraction(-1)) == 0

    def test_negative_alpha_keeps_sign(self):
        # p((X - 1/2) / -2) = -X/2 - 3/4 for p = X - 1: root 1 -> -3/2
        out = remap_roots(poly(-1, 1), Fraction(-2), Fraction(1, 2))
        assert out == poly(-3, -2)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            remap_roots(poly(1, 1), Fraction(0), Fraction(1))

    def test_permute_swap(self):
        assert permute_coefficients(poly(1, 4, 2), (2, 1, 0)) == poly(2, 4, 1)

    def test_permute_identity(self):
        p = poly(1, 4, 2)
        assert permute_coefficients(p, (0, 1, 2)) == p

    @given(small_polys, st.permutations(list(range(6))))
    @settings(max_examples=40)
    def test_permute_round_trip(self, p, perm):
        if p.degree > 5:
            return
        inverse = [0] * len(perm)
        for i, t in enumerate(perm):
            inverse[t] = i
        q = permute_coefficients(p, perm)
        assert permute_coefficients(q, inverse) == p

    def test_permute_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute_coefficients(poly(1, 1), (0, 0))


class TestNamedRegistry:
    def test_record_json_round_trip(self):
        rec = apply_named_transform("interleave", poly(2, -1))
        assert rec.output == poly(2, 0, 0, 1)
        assert '"transform": "interleave"' in json.dumps(rec.to_json_dict())

    def test_small_record_json_bytes(self):
        rec = apply_named_transform("realify", poly(1, 2))
        assert json.dumps(rec.to_json_dict()) == (
            '{"transform": "realify", "params": {"s": "1"}, '
            '"input": {"basis": "power", "coeffs": ["1", "2"]}, '
            '"output": {"basis": "power", '
            '"coeffs": ["0", "0", "-1", "3", "-3", "1"]}, '
            '"inverse_data": {"s": "1", "inverse": "recover-coefficients"}}')
        rec = apply_named_transform("interleave", poly(-3, 0, 5))
        obj = json.loads(json.dumps(rec.to_json_dict()))
        assert obj["output"]["coeffs"] == ["0", "3", "0", "0", "5"]

    def test_record_json_beyond_int_str_digit_limit(self):
        big = 7 ** 20000  # 16,902 digits, past the default 4,300-digit limit
        rec = TransformRecord("interleave", {}, poly(-big), poly(0, big), {})
        obj = json.loads(json.dumps(rec.to_json_dict()))
        assert obj["input"]["coeffs"] == [str(Decimal(-big))]
        assert obj["output"]["coeffs"] == ["0", str(Decimal(big))]

    def test_record_json_int_params_beyond_int_str_digit_limit(self):
        # the default rouche scale A is the largest lower coefficient
        big = 7 ** 20000
        obj = json.loads(json.dumps(
            apply_named_transform("rouche", poly(big, 1)).to_json_dict()))
        assert Decimal(obj["params"]["A"]) == big
        assert Decimal(obj["inverse_data"]["A"]) == big
        assert obj["inverse_data"]["inverse"] == "X -> X/A"

    def test_realify_default_s(self):
        rec = apply_named_transform("realify", poly(1, 2))
        assert rec.params["s"] == 1
        assert rec.output == poly(0, 0, -1, 3, -3, 1)

    def test_unknown(self):
        with pytest.raises(ValueError):
            apply_named_transform("fourier", poly(1))

    @pytest.mark.parametrize("name", ["negate", "square", "interleave",
                                      "deinterleave", "rootencode"])
    def test_argument_free_transform_rejects_an_argument(self, name):
        with pytest.raises(ValueError, match=f"^{name} takes no argument"):
            apply_named_transform(name, poly(1, 2), T542, "5")


class TestParseChain:
    def test_steps(self):
        assert parse_chain("interleave,realify:3,densify:real-positive,"
                           "scale:0,rouche:") == [
            ("interleave", None), ("realify", "3"),
            ("densify", "real-positive"), ("scale", "0"), ("rouche", None)]

    @pytest.mark.parametrize("chain, message", [
        (",", "empty step"), ("negate,,square", "empty step"),
        ("negate,", "empty step"), ("negate:5", "negate takes no argument"),
        ("interleave:x", "interleave takes no argument"),
        ("realify:x", "invalid literal"), ("densify:bogus", "mode must be"),
        ("fourier", "unknown transform 'fourier'; known: negate, square"),
    ])
    def test_rejected(self, chain, message):
        with pytest.raises(ValueError, match=message):
            parse_chain(chain)

    @pytest.mark.parametrize("step", ["fourier", "negate:5", "densify:bogus"])
    def test_same_text_as_apply_named_transform(self, step):
        name, _, arg = step.partition(":")
        with pytest.raises(ValueError) as chain_error:
            parse_chain(step)
        with pytest.raises(ValueError) as apply_error:
            apply_named_transform(name, poly(1, 2), T542, arg or None)
        assert str(chain_error.value) == str(apply_error.value)
