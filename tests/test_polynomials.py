import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
import hypothesis.strategies as st

from grpoly.catalog import tutte_poly
from grpoly.graphs import named_graph
from grpoly.polynomials import (BASES, BINOMIAL, FALLING, POWER, IntPoly,
                                MultiPoly, NonIntegralCoefficientError,
                                convert_basis, divide_out_root, evaluate,
                                from_roots, poly, poly_from_json, poly_to_json,
                                reverse_coefficients, substitute)

small_polys = st.lists(st.integers(-9, 9), max_size=7).map(
    lambda cs: IntPoly(tuple(cs)))


class TestArith:
    def test_difference_of_squares(self):
        assert poly(-1, 1) * poly(1, 1) == poly(-1, 0, 1)

    def test_additive_identity(self):
        p = poly(3, 0, -2, 1)
        assert p + IntPoly(()) == p

    def test_watershed_product_evaluates(self):
        # (X-1)(X+1)^2 (X^3 - X^2 - 5X + 1) at X=2: 1 * 9 * (8-4-10+1) = -45
        p = poly(-1, 1) * poly(1, 1) * poly(1, 1) * poly(1, -5, -1, 1)
        assert p.degree == 6
        assert evaluate(p, 2) == -45

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSubstitute:
    def test_sign_flip(self):
        assert substitute(poly(1, 2, 1), poly(0, -1)) == poly(1, -2, 1)

    def test_square_inner(self):
        assert substitute(poly(1, 1), poly(0, 0, 1)) == poly(1, 0, 1)

    def test_linear_scale(self):
        assert substitute(poly(2, -3, 1), poly(0, 3)) == poly(2, -9, 9)

    @given(small_polys)
    def test_identity_substitution(self, p):
        assert substitute(p, poly(0, 1)) == p

    @given(small_polys, small_polys, st.lists(st.integers(-3, 3),
                                              max_size=3))
    @settings(max_examples=40)
    def test_multiplicative(self, p, q, inner):
        r = IntPoly(tuple(inner))
        assert substitute(p * q, r) == substitute(p, r) * substitute(q, r)


class TestBases:
    def test_square_to_falling(self):
        # X^2 = X_(2) + X_(1)
        assert convert_basis((0, 0, 1), POWER, FALLING) == (0, 1, 1)

    def test_square_to_binomial(self):
        # X^2 = 2 C(X,2) + C(X,1)
        assert convert_basis((0, 0, 1), POWER, BINOMIAL) == (0, 1, 2)

    def test_round_trip_exhaustive_small(self):
        for c0 in range(-3, 4):
            for c1 in range(-3, 4):
                for c2 in range(-3, 4):
                    p = (c0, c1, c2)
                    via = convert_basis(convert_basis(p, POWER, FALLING),
                                        FALLING, POWER)
                    assert via == p

    @given(small_polys)
    @settings(max_examples=50)
    def test_all_round_trips(self, p):
        for target in (FALLING, BINOMIAL):
            q = convert_basis(p.coeffs, POWER, target)
            assert convert_basis(q, target, POWER) == p.coeffs

    def test_leading_coefficient_preserved_to_falling(self):
        p = (4, -1, 0, 7)
        q = convert_basis(p, POWER, FALLING)
        assert q[-1] == p[-1]

    def test_represents_same_function(self):
        p = poly(2, -5, 0, 3)
        falling = convert_basis(p.coeffs, POWER, FALLING)
        for x in range(-3, 6):
            ff = sum(c * _falling_value(x, i)
                     for i, c in enumerate(falling))
            assert ff == evaluate(p, x)

    @pytest.mark.parametrize("basis", BASES)
    def test_same_basis_is_identity(self, basis):
        # (1, 1, 1, 1) in the binomial basis passes through Fractions
        for c in ((), (7,), (0, 0, 1), (1, 1, 1, 1), (3, -2, 0, 5, -1)):
            assert convert_basis(c, basis, basis) == c

    def test_non_integral_binomial_rejected(self):
        # C(X,2) has non-integer power coefficients
        with pytest.raises(NonIntegralCoefficientError):
            convert_basis((0, 0, 1), BINOMIAL, POWER)


_SX = sympy.Symbol("X")
_SYMPY_BASIS = {"power": lambda i: _SX ** i,
                "falling": lambda i: sympy.ff(_SX, i),
                "binomial": lambda i: sympy.binomial(_SX, i)}


def _sympy_poly(coeffs, basis: str) -> sympy.Poly:
    expr = sum((c * _SYMPY_BASIS[basis](i) for i, c in enumerate(coeffs)),
               sympy.Integer(0))
    return sympy.Poly(sympy.expand_func(expr), _SX)


def _sympy_coeffs(p: sympy.Poly, basis: str) -> list[Fraction]:
    """Coefficients of p in ``basis``, peeling off the leading term."""
    out = []
    for i in range(p.degree(), -1, -1):
        b = _sympy_poly([0] * i + [1], basis)
        c = p.coeff_monomial(_SX ** i) / b.LC()
        p -= b * c
        out.append(Fraction(int(c.p), int(c.q)))
    assert p.is_zero
    return out[::-1]


class TestBasesAgainstSympy:
    """Every direction of convert_basis against sympy's expansions of X^i,
    ff(X, i) and binomial(X, i), on seeded polynomials of degree <= 12."""

    @pytest.mark.parametrize("source,target", [
        (a, b) for a in BASES for b in BASES if a != b])
    def test_matches_sympy(self, source, target):
        rng = random.Random(f"{source}->{target}")
        raised = 0
        for trial in range(24):
            degree = rng.randint(0, 12)
            coeffs = [rng.randint(-20, 20) for _ in range(degree)]
            coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
            if source == BINOMIAL and trial % 2:
                # the binomial coordinates of an integer polynomial, so
                # that half the binomial inputs convert without a remainder
                coeffs = [int(c) for c in _sympy_coeffs(
                    _sympy_poly(coeffs, POWER), BINOMIAL)]
            expected = _sympy_coeffs(_sympy_poly(coeffs, source), target)
            bad = [c for c in expected if c.denominator != 1]
            if bad:
                raised += 1
                with pytest.raises(NonIntegralCoefficientError) as exc:
                    convert_basis(coeffs, source, target)
                assert str(exc.value) == (f"coefficient {bad[0]} in target "
                                          f"basis {target} is not integral")
            else:
                assert convert_basis(coeffs, source, target) == \
                    tuple(int(c) for c in expected)
        # only binomial input can leave a remainder, and it is exercised
        assert (raised > 0) == (source == BINOMIAL)

    def test_zero_polynomial(self):
        for source in BASES:
            for target in BASES:
                assert convert_basis((), source, target) == ()


def _falling_value(x: int, i: int) -> int:
    out = 1
    for j in range(i):
        out *= x - j
    return out


class TestFromRoots:
    def test_multiset(self):
        assert from_roots([(0, 2), (1, 3)]) == poly(0, 0, -1, 3, -3, 1)

    def test_empty_product(self):
        assert from_roots([]) == poly(1)

    def test_rational_root_scaling(self):
        p = from_roots([(2, 1), (Fraction(5, 2), 1)])
        assert p == poly(10, -9, 2)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 3)),
                    max_size=4))
    @settings(max_examples=40)
    def test_roots_evaluate_to_zero(self, roots):
        p = from_roots(roots)
        for r, _ in roots:
            assert evaluate(p, r) == 0


class TestEvaluate:
    def test_integer_point(self):
        assert evaluate(poly(0, -2, 0, 1), 2) == 4

    def test_complex_point(self):
        assert abs(evaluate(poly(1, 0, 1), 1j)) < 1e-12

    def test_rational_point_exact(self):
        assert evaluate(poly(1, 0, -2), Fraction(1, 2)) == Fraction(1, 2)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12).map(
               lambda cs: IntPoly(tuple(cs))),
           st.one_of(st.integers(-50, 50),
                     st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                               st.integers(1, 10 ** 6))))
    @example(IntPoly(()), 0)
    @example(IntPoly(()), Fraction(-3, 7))
    @example(poly(5, 0, -1), Fraction(0))
    @settings(max_examples=200)
    def test_exact_points_match_fraction_horner(self, p, x):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        got = evaluate(p, x)
        assert got == acc
        assert type(got) is (Fraction if isinstance(x, Fraction) else int)

    @given(small_polys, st.complex_numbers(max_magnitude=10))
    @settings(max_examples=50)
    def test_complex_points_keep_float_horner(self, p, z):
        acc = 0j
        for c in reversed(p.coeffs):
            acc = acc * z + c
        got = evaluate(p, z)
        assert type(got) is complex and got == acc


class TestReverse:
    def test_shift_up(self):
        assert reverse_coefficients(poly(1, 4, 2), 4) == poly(0, 0, 2, 4, 1)

    def test_constant(self):
        assert reverse_coefficients(poly(1), 3) == poly(0, 0, 0, 1)

    @given(small_polys, st.integers(0, 9))
    @settings(max_examples=50)
    def test_involution(self, p, extra):
        d = max(p.degree, 0) + extra
        assert reverse_coefficients(reverse_coefficients(p, d), d) == p

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            reverse_coefficients(poly(1, 1, 1), 1)


class TestDivideOutRoot:
    def test_quotient_and_non_root(self):
        cubic = list(from_roots([(1, 1), (2, 1), (-3, 1)]).coeffs)
        assert divide_out_root(cubic, -3) == (
            1, list(from_roots([(1, 1), (2, 1)]).coeffs))
        assert divide_out_root(cubic, 3) == (0, cubic)

    @given(small_polys, st.integers(-5, 5))
    @settings(max_examples=40)
    def test_inverts_multiplication(self, p, r):
        if p.is_zero():
            return
        mult, quotient = divide_out_root(list(p.coeffs), r)
        q = p * poly(-r, 1)
        assert divide_out_root(list(q.coeffs), r) == (mult + 1,
                                                      list(quotient))

    def test_divide_out_root(self):
        quartic = list(from_roots([(2, 3), (-1, 1)]).coeffs)
        assert divide_out_root(quartic, 2) == (3, [1, 1])
        assert divide_out_root(quartic, 5) == (0, quartic)


class TestJson:
    def test_round_trip(self):
        p = poly(0, 2, -3, 1)
        assert poly_from_json(poly_to_json(p)) == p

    def test_wire_shape(self):
        assert poly_to_json(poly(0, 2, -3, 1)) == \
            '{"basis": "power", "coeffs": ["0", "2", "-3", "1"]}'

    def test_round_trip_past_int_str_digit_limit(self):
        p = IntPoly((10 ** 5000, -1))
        assert poly_from_json(poly_to_json(p)) == p

    def test_multipoly_wire_shape(self):
        assert poly_to_json(tutte_poly(named_graph("complete", 3))) == (
            '{"vars": ["X", "Y"], "terms": [{"exp": [0, 1], "coeff": "1"}, '
            '{"exp": [1, 0], "coeff": "1"}, {"exp": [2, 0], "coeff": "1"}]}')

    def test_other_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            poly_from_json('{"basis": "falling", "coeffs": ["0", "1"]}')


class TestMultiPoly:
    def test_degree(self):
        assert MultiPoly(()).degree == -1
        assert MultiPoly.from_dict({(0, 0): 3}).degree == 0
        assert MultiPoly.from_dict({(3, 0): 1, (1, 1): -2}).degree == 3
        assert MultiPoly.from_dict({(1, 4): 1, (2, 0): 5}).degree == 5

    def test_mul_and_eval(self):
        # x^2 + x + y
        p = MultiPoly.from_dict({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert p.evaluate((1, 1)) == 3
        assert p.evaluate((Fraction(1, 2), 2)) == Fraction(11, 4)
