from fractions import Fraction

import pytest

from grpoly.graphs import SimilarityTriple, enumerate_graphs, similarity_triple
from grpoly.polynomials import poly
from grpoly.simfun import (PoleError, ReductionSpec, SimParseError,
                           eval_simexpr, eval_simexpr_at_point,
                           eval_simexpr_scalar, format_simexpr, parse_simexpr,
                           verify_prefactor_reduction)

T441 = SimilarityTriple(4, 4, 1)
T542 = SimilarityTriple(5, 4, 2)


class TestParser:
    def test_nullity_expression(self):
        e = parse_simexpr("m - n + k")
        assert eval_simexpr_scalar(e, T441) == 1

    def test_polynomial_expression(self):
        e = parse_simexpr("n * X1^2")
        assert eval_simexpr(e, SimilarityTriple(5, 4, 2)) == poly(0, 0, 5)

    def test_indeterminate_exponent_rejected(self):
        with pytest.raises(SimParseError, match="indeterminate in exponent"):
            parse_simexpr("X1^X2")

    def test_syntax_error_position(self):
        with pytest.raises(SimParseError) as exc:
            parse_simexpr("n + + m")
        assert exc.value.pos == 4

    def test_unknown_name(self):
        with pytest.raises(SimParseError, match="unknown name"):
            parse_simexpr("n + q")

    def test_trailing_garbage(self):
        with pytest.raises(SimParseError):
            parse_simexpr("n + m )")

    @pytest.mark.parametrize("text", [
        "m - n + k",
        "n * X1^2",
        "(k*X1 - n)*(n*X1 - k)",
        "X1^n",
        "2^rho * X2 - nu",
        "X1^-2",
        "(n + m)^2",
        "n - (m - k)",
        "n - (m + k)",
        "n * (m * k)",
        "(n^2)^3",
        "2^(n^2)",
    ])
    def test_format_parse_round_trip(self, text):
        e = parse_simexpr(text)
        assert parse_simexpr(format_simexpr(e)) == e


class TestEvaluation:
    def test_dense_real_prefactor_expression(self):
        e = parse_simexpr("(k*X1 - n)*(n*X1 - k)")
        assert eval_simexpr(e, T542) == poly(10, -29, 10)

    def test_constant_one(self):
        assert eval_simexpr(parse_simexpr("1"), T441) == poly(1)

    def test_any_one_indeterminate_reads_as_x(self):
        assert eval_simexpr(parse_simexpr("X2"), T441) == poly(0, 1)

    def test_two_indeterminates_rejected(self):
        with pytest.raises(ValueError, match="more than one indeterminate"):
            eval_simexpr(parse_simexpr("X1 + X2"), T441)

    def test_rank_symbol(self):
        assert eval_simexpr_scalar(parse_simexpr("rho"),
                                   SimilarityTriple(4, 3, 2)) == 2

    def test_symbolic_exponent(self):
        e = parse_simexpr("X1^k")
        assert eval_simexpr(e, SimilarityTriple(4, 2, 2)) == poly(0, 0, 1)

    def test_negative_exponent_needs_point_path(self):
        e = parse_simexpr("X1^-2")
        with pytest.raises(ValueError):
            eval_simexpr(e, T441)
        assert eval_simexpr_at_point(e, T441, (Fraction(2),)) == Fraction(1, 4)

    def test_pole_raises(self):
        e = parse_simexpr("X1^-1")
        with pytest.raises(PoleError):
            eval_simexpr_at_point(e, T441, (Fraction(0),))

    def test_similarity_invariance_exhaustive(self):
        exprs = [parse_simexpr(s) for s in
                 ("(k*X1 - n)*(n*X1 - k)", "nu * X1 + rho", "m - n + k",
                  "X1^k - n * X1")]
        by_triple = {}
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                t = similarity_triple(g)
                values = tuple(eval_simexpr(e, t) for e in exprs)
                key = (t.n, t.m, t.k)
                assert by_triple.setdefault(key, values) == values


class TestReductionSpecs:
    def test_json_round_trip(self):
        spec = ReductionSpec.from_strings(
            "vertexCover", "independence", "X1^n", ["X1^-1"])
        again = ReductionSpec.from_json(spec.to_json())
        assert again == spec

    def test_long_flat_sum_compares_and_hashes(self):
        # a left-deep chain of 5,000 BinOps, deeper than the recursion limit
        text = "0*X1 + " * 4999 + "1"
        assert parse_simexpr(text) == parse_simexpr(text)
        assert hash(parse_simexpr(text)) == hash(parse_simexpr(text))
        spec = ReductionSpec.from_strings("charA", "charA", text, [text])
        assert ReductionSpec.from_json(spec.to_json()) == spec

    def test_arity_mismatch(self):
        spec = ReductionSpec.from_strings(
            "vertexCover", "independence", "X1^n", ["X1", "X1"])
        with pytest.raises(ValueError, match="substitutions"):
            verify_prefactor_reduction(spec, enumerate_graphs(2))


CORPUS = [g for n in range(1, 6) for g in enumerate_graphs(n)]


class TestVerifier:
    def test_vertex_cover_from_independence(self):
        spec = ReductionSpec.from_strings(
            "vertexCover", "independence", "X1^n", ["X1^-1"])
        verdict = verify_prefactor_reduction(spec, CORPUS)
        assert verdict.status == "PASS"
        assert verdict.min_valid_points >= 1

    def test_defect_from_generating_matching(self):
        spec = ReductionSpec.from_strings(
            "matchingDefect", "matchingGen", "X1^n", ["0 - X1^-2"])
        assert verify_prefactor_reduction(spec, CORPUS).status == "PASS"

    def test_chromatic_is_not_independence(self):
        spec = ReductionSpec.from_strings(
            "chromatic", "independence", "1", ["X1"])
        verdict = verify_prefactor_reduction(spec, CORPUS)
        assert verdict.status == "FAIL"
        assert verdict.counterexample is not None
        assert verdict.counterexample.lhs != verdict.counterexample.rhs

    def test_bivariate_matching_from_generating(self):
        spec = ReductionSpec.from_strings(
            "matchingBiv", "matchingGen", "X2^n", ["X1 * X2^-2"])
        assert verify_prefactor_reduction(spec, CORPUS[:20]).status == "PASS"

    def test_all_points_poles_is_inconclusive(self):
        spec = ReductionSpec.from_strings(
            "vertexCover", "independence", "X1^n", ["X1^-1"])
        verdict = verify_prefactor_reduction(
            spec, enumerate_graphs(2), points=[(Fraction(0),)])
        assert verdict.status == "INCONCLUSIVE"
        assert verdict.counterexample is None
