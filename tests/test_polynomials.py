from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from grpoly.polynomials import (BasisMismatchError, IntPoly, MultiPoly,
                                NonIntegralCoefficientError, convert_basis,
                                divide_linear, divide_out_root, evaluate,
                                from_roots, poly, poly_from_json, poly_to_json,
                                reverse_coefficients, substitute,
                                univariate_from_multi)

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

    def test_basis_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError):
            poly(1, 1) + poly(1, 1, basis="falling")
        with pytest.raises(BasisMismatchError):
            poly(1, 1, basis="falling") * poly(1, 1, basis="falling")

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
        assert convert_basis(poly(0, 0, 1), "falling") == \
            IntPoly((0, 1, 1), "falling")

    def test_square_to_binomial(self):
        # X^2 = 2 C(X,2) + C(X,1)
        assert convert_basis(poly(0, 0, 1), "binomial") == \
            IntPoly((0, 1, 2), "binomial")

    def test_round_trip_exhaustive_small(self):
        for c0 in range(-3, 4):
            for c1 in range(-3, 4):
                for c2 in range(-3, 4):
                    p = IntPoly((c0, c1, c2))
                    via = convert_basis(convert_basis(p, "falling"), "power")
                    assert via == p

    @given(small_polys)
    @settings(max_examples=50)
    def test_all_round_trips(self, p):
        for target in ("falling", "binomial"):
            q = convert_basis(p, target)
            assert convert_basis(q, "power") == p

    def test_leading_coefficient_preserved_to_falling(self):
        p = poly(4, -1, 0, 7)
        q = convert_basis(p, "falling")
        assert q.coeffs[-1] == p.coeffs[-1]

    def test_represents_same_function(self):
        p = poly(2, -5, 0, 3)
        falling = convert_basis(p, "falling")
        for x in range(-3, 6):
            ff = sum(c * _falling_value(x, i)
                     for i, c in enumerate(falling.coeffs))
            assert ff == evaluate(p, x)

    def test_non_integral_binomial_rejected(self):
        # C(X,2) has non-integer power coefficients
        with pytest.raises(NonIntegralCoefficientError):
            convert_basis(IntPoly((0, 0, 1), "binomial"), "power")


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


class TestDivideLinear:
    def test_quotient_and_non_root(self):
        cubic = list(from_roots([(1, 1), (2, 1), (-3, 1)]).coeffs)
        assert divide_linear(cubic, -3) == list(from_roots([(1, 1),
                                                            (2, 1)]).coeffs)
        assert divide_linear(cubic, 3) is None

    @given(small_polys, st.integers(-5, 5))
    @settings(max_examples=40)
    def test_inverts_multiplication(self, p, r):
        if p.is_zero():
            return
        q = p * poly(-r, 1)
        assert divide_linear(list(q.coeffs), r) == list(p.coeffs)

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


class TestMultiPoly:
    def test_mul_and_eval(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x * x + x + y
        assert p.evaluate((1, 1)) == 3
        assert p.evaluate((Fraction(1, 2), 2)) == Fraction(11, 4)

    def test_univariate_collapse(self):
        x = MultiPoly.variable(2, 0)
        assert univariate_from_multi(x * x + x) == poly(0, 1, 1)

    def test_collapse_rejects_two_vars(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        with pytest.raises(ValueError):
            univariate_from_multi(x + y)
