import hashlib
import random
from fractions import Fraction

import pytest
import sympy

from grpoly.catalog import family_polynomial
from grpoly.graphs import (SimilarityTriple, enumerate_graphs, named_graph,
                           similarity_triple)
from grpoly.polynomials import IntPoly, poly
from grpoly.simfun import (SYMBOLS, PoleError, ReductionSpec, SimParseError,
                           _degree_bounds,
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

    @pytest.mark.parametrize("text, pos", [
        ("n^\u00b2", 2),  # superscript two
        ("n^\u0663", 2),  # Arabic-Indic three
        ("n\u00e9", 1),   # e acute
    ])
    def test_non_ascii_rejected_at_its_position(self, text, pos):
        with pytest.raises(SimParseError, match="unexpected character") as exc:
            parse_simexpr(text)
        assert exc.value.pos == pos

    @pytest.mark.parametrize("text, pos", [
        ("n + " + "1" * 5000, 4),
        ("X1^-" + "2" * 5000, 4),
    ])
    def test_overlong_literal_rejected_at_its_position(self, text, pos):
        with pytest.raises(SimParseError, match="5000 digits") as exc:
            parse_simexpr(text)
        assert exc.value.pos == pos

    def test_parenthesized_literal_exponent_is_an_int(self):
        assert parse_simexpr("X1^(2)") == parse_simexpr("X1^2")

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
        # 5,000 terms: a tree of them would be deeper than the recursion limit
        text = "0*X1 + " * 4999 + "1"
        assert parse_simexpr(text) == parse_simexpr(text)
        assert hash(parse_simexpr(text)) == hash(parse_simexpr(text))
        spec = ReductionSpec.from_strings("charA", "charA", text, [text])
        assert ReductionSpec.from_json(spec.to_json()) == spec

    def test_unknown_family_has_the_catalog_message(self):
        with pytest.raises(ValueError) as spec_error:
            ReductionSpec("nope", "charA", parse_simexpr("1"),
                          (parse_simexpr("X1"),))
        with pytest.raises(ValueError) as catalog_error:
            family_polynomial("nope", named_graph("path", 2))
        assert str(spec_error.value) == str(catalog_error.value)
        assert str(spec_error.value).startswith("unknown family 'nope'; known: ")

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

    @pytest.mark.parametrize("p, q, prefactor, sub, corpus", [
        ("vertexCover", "independence", "X1^n", "X1^-1", CORPUS),
        ("matchingDefect", "matchingGen", "X1^n", "0 - X1^-2", CORPUS),
        ("matchingBiv", "matchingGen", "X2^n", "X1 * X2^-2", CORPUS[:18]),
    ])
    def test_pass_reports_enough_points(self, p, q, prefactor, sub, corpus):
        spec = ReductionSpec.from_strings(p, q, prefactor, [sub])
        verdict = verify_prefactor_reduction(spec, corpus)
        assert verdict.status == "PASS"
        assert verdict.min_valid_points >= verdict.points_required

    def test_reciprocal_prefactor_degree_bounds(self):
        # (X^-1 + 1)^n has degree 0 in X and degree n in 1/X
        e = parse_simexpr("(X1^-1 + 1)^n")
        for t in (T441, T542):
            assert _degree_bounds(e, t) == (0, t.n)
        # I(E3; X) = (1 + X)^3 against (X^-1 + 1)^3 (1 + X)^3 fails at X = 1;
        # E3 needs max(3, 0 + 3 * 1) + 3 + 1 = 7 points
        spec = ReductionSpec.from_strings(
            "independence", "independence", "(X1^-1 + 1)^n", ["X1"])
        verdict = verify_prefactor_reduction(
            spec, [named_graph("edgeless", 3)])
        assert verdict.status == "FAIL"
        assert verdict.points_required == 7

    def test_poles_past_the_spare_samples_are_inconclusive(self):
        # Q^-1 * Q is 1 away from its six poles +-1, +-1/2, +-1/3, which are
        # among the first samples; they take more than the four spares
        q = "((X1^2 - 1) * (4 * X1^2 - 1) * (9 * X1^2 - 1))"
        spec = ReductionSpec.from_strings(
            "vertexCover", "independence", f"X1^n * {q}^-1 * {q}", ["X1^-1"])
        verdict = verify_prefactor_reduction(spec, enumerate_graphs(2))
        assert verdict.status == "INCONCLUSIVE"
        assert (verdict.points_required, verdict.min_valid_points) == (17, 15)
        assert verdict.counterexample is None


# -- independent oracle ------------------------------------------------------------

class _Pole(Exception):
    pass


def _checked(value):
    """Stop at the first subexpression that sympy evaluates to zoo or nan."""
    if value in (sympy.zoo, sympy.nan):
        raise _Pole
    return value


_SYMBOLIC_EXPONENTS = ("n", "m", "k", "nu", "rho", "(n - k)", "(m + 1)")


def _random_expr(rng: random.Random, depth: int):
    """(text, value, negative) of a random expression in the symbols and X1:
    value(env) evaluates it node by node in sympy with env binding the
    symbols and X1, and negative says whether a literal exponent is < 0."""
    text, value, negative = _random_term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice("+-")
        t2, v2, n2 = _random_term(rng, depth)
        text = f"{text} {op} {t2}"
        value = (lambda a, b, op: lambda env: _checked(
            a(env) + b(env) if op == "+" else a(env) - b(env)))(value, v2, op)
        negative |= n2
    return text, value, negative


def _random_term(rng, depth):
    text, value, negative = _random_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        t2, v2, n2 = _random_factor(rng, depth)
        text = f"{text}*{t2}"
        value = (lambda a, b: lambda env: _checked(a(env) * b(env)))(value, v2)
        negative |= n2
    return text, value, negative


def _random_factor(rng, depth):
    r = rng.random()
    if r < 0.3:
        c = rng.randint(0, 5)
        text, value, negative = str(c), lambda env: sympy.Integer(c), False
    elif r < 0.55 or (r < 0.8 and depth == 0):
        name = rng.choice(SYMBOLS)
        text, value, negative = name, lambda env: env[name], False
    elif r < 0.8:
        text, value, negative = "X1", lambda env: env["X1"], False
    else:
        inner, value, negative = _random_expr(rng, depth - 1)
        text = f"({inner})"
    r = rng.random()
    if r < 0.5:
        return text, value, negative
    if r < 0.7:
        exp = str(rng.randint(0, 3))
    elif r < 0.85:
        exp = str(-rng.randint(1, 2))
    else:
        exp = rng.choice(_SYMBOLIC_EXPONENTS)
    return (f"{text}^{exp}",
            lambda env: _checked(value(env) ** sympy.sympify(exp, locals=env)),
            negative or exp.startswith("-"))


ORACLE_TRIPLES = sorted({similarity_triple(g) for n in range(1, 5)
                         for g in enumerate_graphs(n)},
                        key=lambda t: (t.n, t.m, t.k))
ORACLE_POINTS = (0, 1, -2, sympy.Rational(1, 3), sympy.Rational(-3, 2))


@pytest.mark.parametrize("seed", range(6))
def test_random_expressions_match_sympy(seed):
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    for _ in range(100):
        text, value, negative = _random_expr(rng, 2)
        t = rng.choice(ORACLE_TRIPLES)
        env = {s: sympy.Integer(getattr(t, s)) for s in SYMBOLS}
        e = parse_simexpr(text)
        assert parse_simexpr(format_simexpr(e)) == e, text
        if negative:
            with pytest.raises(ValueError):
                eval_simexpr(e, t)
        else:
            expected = sympy.Poly(sympy.expand(sympy.sympify(
                text.replace("^", "**"), locals={**env, "X1": x})), x)
            assert eval_simexpr(e, t) == IntPoly(tuple(
                int(c) for c in reversed(expected.all_coeffs()))), (text, t)
        for pt in map(sympy.Rational, ORACLE_POINTS):
            point = (Fraction(int(pt.p), int(pt.q)),)
            try:
                expected = value({**env, "X1": pt})
            except _Pole:
                with pytest.raises(PoleError):
                    eval_simexpr_at_point(e, t, point)
                continue
            assert eval_simexpr_at_point(e, t, point) == Fraction(
                int(expected.p), int(expected.q)), (text, t, pt)


# -- parser digest ------------------------------------------------------------------

_FUZZ_PIECES = (
    "0", "7", "12", "007", "n", "m", "k", "nu", "rho", "X1", "X2", "X5",
    "X0", "X6", "x1", "q", "nux", "X12", "+", "-", "*", "^", "(", ")", "^-",
    "^(", " ", "  ", "\t", "\u00e9", "\u00b2", "\u0663", "#", ".", "/")


def _fuzz_text(rng):
    """A seeded text: a well-formed expression, one with a piece spliced in
    or cut out, or a soup of tokens and stray characters."""
    r = rng.random()
    if r < 0.45:
        return _fuzz_expr(rng, 3)
    if r < 0.8:
        text = _fuzz_expr(rng, 3)
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            return text[:i] + rng.choice(_FUZZ_PIECES) + text[i:]
        return text[:i] + text[i + rng.randint(1, 3):]
    if r < 0.995:
        return "".join(rng.choice(_FUZZ_PIECES)
                       for _ in range(rng.randint(0, 12)))
    return (rng.choice(("n + ", "X1^-", "(", ""))
            + "9" * rng.randint(4290, 4310))


def _fuzz_expr(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        text = rng.choice(("n", "m", "k", "nu", "rho", "X1", "X2", "X5",
                           str(rng.randint(0, 99))))
    elif r < 0.55:
        text = f"({_fuzz_expr(rng, depth - 1)})"
    else:
        op = rng.choice(("+", "-", "*", " + ", " - ", " * "))
        text = f"{_fuzz_expr(rng, depth - 1)}{op}{_fuzz_expr(rng, depth - 1)}"
    while rng.random() < 0.3:
        text += "^" + rng.choice((str(rng.randint(0, 4)),
                                  f"-{rng.randint(0, 3)}", "n", "rho",
                                  f"({_fuzz_expr(rng, depth - 1)})",
                                  "-n", "X1", "(-2)", "(2)"))
    return text


PARSE_DIGEST = ("711fb10096215bde32500b554b785a6c"
                "47f148b5d81d701442f43ecebaf85239")


def test_parse_digest_over_seeded_texts():
    """One sha256 over 20,000 seeded texts: each text with its program, or
    with its error message and position.  Deep nesting is left out; where
    it stops is a matter of stack depth."""
    rng = random.Random(20240)
    digest = hashlib.sha256()
    for _ in range(20000):
        text = _fuzz_text(rng)
        try:
            out = repr(parse_simexpr(text))
        except SimParseError as exc:
            out = f"{exc} {exc.pos}"
        digest.update(f"{text}\0{out}\0".encode())
    assert digest.hexdigest() == PARSE_DIGEST
