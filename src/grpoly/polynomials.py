"""Exact univariate polynomial arithmetic and a bivariate term table.

``IntPoly`` is Z[X] in the power basis, the one univariate ring: coefficients
are arbitrary-precision integers, stored ascending by degree with no trailing
zeros, and the zero polynomial has an empty coefficient tuple.  Root maps
clear denominators up front and divide by the content, so no result needs
rational coefficients.  ``convert_basis`` rewrites plain coefficient
sequences between the power basis (monomials X^i), the falling basis
(X(X-1)...(X-i+1)) and the binomial basis (C(X,i)); only power-basis
coefficients become an ``IntPoly``.  ``MultiPoly`` is the term table in X
and Y of the two bivariate families, tutte and matchingBiv, evaluated at
points (x, y).  Both have a ``degree`` that is -1 for zero, and
``poly_to_json`` writes either one.  The wire section holds the texts of
the records' JSON objects: ``int_text``, ``float_text`` and ``poly_wire``.
``RatPoly`` and ``rat_divmod`` remain only as the shell that the
benchmark's tracer wraps; nothing in the package calls them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

POWER = "power"
FALLING = "falling"
BINOMIAL = "binomial"
BASES = (POWER, FALLING, BINOMIAL)


class NonIntegralCoefficientError(ValueError):
    """A basis change or denominator clearing produced a non-integer."""


def _strip(coeffs: Sequence) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPoly:
    """Dense exact-integer polynomial in X, ascending coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        stripped = _strip(self.coeffs)
        if any(not isinstance(c, int) for c in stripped):
            raise TypeError("IntPoly coefficients must be ints")
        object.__setattr__(self, "coeffs", stripped)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "IntPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        acc = ONE
        for _ in range(exp):
            acc = acc * self
        return acc

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


X = IntPoly((0, 1))
ONE = IntPoly((1,))
ZERO = IntPoly(())


def poly(*coeffs: int) -> IntPoly:
    """Shorthand constructor, coefficients ascending by degree."""
    return IntPoly(tuple(coeffs))


def evaluate(p: IntPoly, x):
    """Horner evaluation.  Exact for int/Fraction points, float for complex.

    At a Fraction a/b the Horner loop runs homogeneously in Z, on
    sum_i c_i a^i b^(d-i) = b^d p(a/b), and one Fraction is built at the end.
    """
    if isinstance(x, Fraction):
        a, b = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(p.coeffs):
            acc, scale = acc * a + c * scale, scale * b
        return Fraction(acc * b, scale)
    acc = 0 if not isinstance(x, complex) else 0j
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def substitute(p: IntPoly, inner: IntPoly) -> IntPoly:
    """Exact composition p(inner(X)), by Horner over whole polynomials.

    This is the general composition, O(d^2) coefficient products for a
    degree-d p and a linear inner.  The named sign, parity and scale
    transforms are coefficient maps of their own; this is the reference the
    tests compare them against.
    """
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * inner + IntPoly((c,))
    return acc


def reverse_coefficients(p: IntPoly, degree: int) -> IntPoly:
    """Coefficient of X^i becomes coefficient of X^(degree-i)."""
    if degree < p.degree:
        raise ValueError(f"degree {degree} < deg(p) = {p.degree}")
    out = [0] * (degree + 1)
    for i, c in enumerate(p.coeffs):
        out[degree - i] = c
    return IntPoly(tuple(out))


def from_roots(roots: Iterable[tuple[int | Fraction, int]]) -> IntPoly:
    """Expand a root multiset into an exact integer polynomial.

    ``roots`` is an iterable of (root, multiplicity) pairs.  Integer roots r
    contribute (X - r); a rational root p/q contributes (qX - p), so the
    result is monic exactly when every root is an integer.  The product is
    one list of ints, one multiply-add per coefficient per factor, and one
    ``IntPoly`` at the end.
    """
    acc = [1]
    for r, mult in roots:
        if mult < 0:
            raise ValueError("negative multiplicity")
        a, b = r.numerator, r.denominator
        for _ in range(mult):
            acc = [b * d - a * c for c, d in zip(acc + [0], [0] + acc)]
    return IntPoly(tuple(acc))


# -- coefficient bases -------------------------------------------------------
#
# The falling basis is the hub.  Dividing p in place by X, X - 1, X - 2, ...
# and keeping each remainder leaves its falling coefficients (the Newton form
# of p at the nodes 0, 1, 2, ...); multiplying the same factors back in,
# Horner style, returns to the power basis.  The binomial basis differs from
# the falling one by the factor i!, so only binomial input needs Fractions.
# All three changes are unitriangular, so they are bijections that preserve
# the leading coefficient (up to the i! scale).

def convert_basis(coeffs: Sequence[int], source: str, target: str
                  ) -> tuple[int, ...]:
    """Coefficients in ``target`` of the polynomial whose coefficients in
    ``source`` are ``coeffs``, of the same length."""
    for basis in (source, target):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
    c: list[int | Fraction] = list(coeffs)
    d = len(c) - 1
    fact = list(accumulate(range(1, d + 1), mul, initial=1))  # fact[i] = i!
    if source == BINOMIAL:
        c = [Fraction(x, f) for x, f in zip(c, fact)]
    elif source == POWER:
        for i in range(1, d):  # divide c[i:] by X - i, remainder in c[i]
            for j in range(d - 1, i - 1, -1):
                c[j] += i * c[j + 1]
    if target == POWER:
        for i in range(d - 1, 0, -1):  # c[i:] = c[i] + (X - i) * c[i + 1:]
            for j in range(i, d):
                c[j] -= i * c[j + 1]
    elif target == BINOMIAL:
        c = [x * f for x, f in zip(c, fact)]
    for x in c:
        if x.denominator != 1:
            raise NonIntegralCoefficientError(
                f"coefficient {x} in target basis {target} is not integral")
    return tuple(x.numerator for x in c)


# -- JSON wire form ----------------------------------------------------------

def int_text(c: int) -> str:
    """Decimal text of c.  Exact and equal to str(c), but not subject to the
    interpreter's limit on int-to-str digits (4300 by default)."""
    return str(Decimal(c))


def float_text(x: float) -> str:
    """x in scientific notation with 12 digits after the point."""
    return format(x, ".12e")


def poly_wire(p: Union[IntPoly, MultiPoly]) -> dict:
    """The JSON object of p: basis and coefficients, or exponent terms."""
    if isinstance(p, IntPoly):
        return {"basis": POWER, "coeffs": [int_text(c) for c in p.coeffs]}
    return {"terms": [{"exp": list(e), "coeff": int_text(c)}
                      for e, c in p.terms]}


def poly_to_json(p: Union[IntPoly, MultiPoly]) -> str:
    """JSON text of p; a MultiPoly also names its variables X and Y."""
    head = {"vars": ["X", "Y"]} if isinstance(p, MultiPoly) else {}
    return json.dumps({**head, **poly_wire(p)})


def poly_from_json(text: str) -> IntPoly:
    """Inverse of poly_to_json.  Coefficients are read through Decimal, as
    ``int_text`` writes them, so no int-from-str digit limit applies."""
    obj = json.loads(text)
    coeffs = obj["coeffs"]
    if obj["basis"] != POWER or not all(
            isinstance(c, str) and c.removeprefix("-").isdecimal()
            for c in coeffs):
        raise ValueError("expected the power basis and integer coefficients")
    return IntPoly(tuple(int(Decimal(c)) for c in coeffs))


# -- rational polynomials ----------------------------------------------------

@dataclass(frozen=True)
class RatPoly:
    """Dense polynomial over Fraction, ascending coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [c if isinstance(c, Fraction) else Fraction(c)
              for c in self.coeffs]
        object.__setattr__(self, "coeffs", _strip(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def rat_divmod(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = rem[-1] / lead
        q[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
        rem.pop()
    return RatPoly(tuple(q)), RatPoly(tuple(rem))


def divide_out_root(coeffs: Sequence[int], r: int
                    ) -> tuple[int, Sequence[int]]:
    """Multiplicity m of the root r, and the exact quotient by (X - r)^m,
    by synthetic division until a remainder is nonzero."""
    mult, quotient = 0, coeffs
    while True:
        acc, out = 0, []
        for c in reversed(quotient):
            acc = acc * r + c
            out.append(acc)
        if out.pop():
            return mult, quotient
        mult, quotient = mult + 1, out[::-1]


# -- bivariate ---------------------------------------------------------------

@dataclass(frozen=True)
class MultiPoly:
    """Sparse exact-integer polynomial in X and Y, the term table of tutte
    and matchingBiv: a sorted tuple of ((i, j), c) terms for c X^i Y^j, with
    repeated exponents merged, so values hash and compare by ==."""

    terms: tuple[tuple[tuple[int, int], int], ...]
    arity = 2  # recorded in the equivalence witness JSON

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.terms:
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            if c:
                clean[i, j] = clean.get((i, j), 0) + c
        object.__setattr__(
            self, "terms",
            tuple(sorted((e, c) for e, c in clean.items() if c)))

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, int], int]) -> "MultiPoly":
        return cls(tuple(d.items()))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    @property
    def degree(self) -> int:
        """Total degree, with -1 for the zero table, as ``IntPoly.degree``."""
        return max((i + j for (i, j), _ in self.terms), default=-1)

    def evaluate(self, point: tuple):
        """Evaluate at (x, y) of ints/Fractions (exact) or floats."""
        x, y = point
        return sum(c * x ** i * y ** j for (i, j), c in self.terms)
