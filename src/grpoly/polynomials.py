"""Exact univariate and small multivariate polynomial arithmetic.

Univariate polynomials carry arbitrary-precision integer coefficients and a
coefficient basis tag: ``power`` (monomials X^i), ``falling`` (falling
factorials X(X-1)...(X-i+1)) or ``binomial`` (binomial coefficients C(X,i)).
Coefficients are stored ascending by degree with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  ``RatPoly`` is the same thing over
`fractions.Fraction` and exists for root-preserving affine substitutions,
where exact division is unavoidable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

POWER = "power"
FALLING = "falling"
BINOMIAL = "binomial"
BASES = (POWER, FALLING, BINOMIAL)


class BasisMismatchError(ValueError):
    """Arithmetic attempted between polynomials in different bases."""


class NonIntegralCoefficientError(ValueError):
    """A basis change or denominator clearing produced a non-integer."""


def _strip(coeffs: Sequence) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPoly:
    """Dense exact-integer polynomial, ascending coefficients, tagged basis."""

    coeffs: tuple[int, ...]
    basis: str = POWER

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
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

    def _check_same_basis(self, other: "IntPoly"):
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "IntPoly") -> "IntPoly":
        self._check_same_basis(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)),
                       self.basis)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        self._check_same_basis(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)),
                       self.basis)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs), self.basis)

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs), self.basis)
        # products of falling factorials / binomials are not basis-diagonal
        if self.basis != POWER or other.basis != POWER:
            raise BasisMismatchError("multiplication requires the power basis")
        if self.is_zero() or other.is_zero():
            return IntPoly((), POWER)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out), POWER)

    __rmul__ = __mul__

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)}, {self.basis!r})"


X = IntPoly((0, 1))
ONE = IntPoly((1,))
ZERO = IntPoly(())


def poly(*coeffs: int, basis: str = POWER) -> IntPoly:
    """Shorthand constructor, coefficients ascending by degree."""
    return IntPoly(tuple(coeffs), basis)


def evaluate(p: IntPoly, x):
    """Horner evaluation.  Exact for int/Fraction points, float for complex."""
    if p.basis != POWER:
        p = convert_basis(p, POWER)
    acc = 0 if not isinstance(x, complex) else 0j
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def substitute(p: IntPoly, inner: IntPoly) -> IntPoly:
    """Exact composition p(inner(X)); both in the power basis."""
    if p.basis != POWER or inner.basis != POWER:
        raise BasisMismatchError("substitution requires the power basis")
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
    return IntPoly(tuple(out), p.basis)


def from_roots(roots: Iterable[tuple[Scalar, int]]) -> IntPoly:
    """Expand a root multiset into an exact integer polynomial.

    ``roots`` is an iterable of (root, multiplicity) pairs.  Integer roots r
    contribute (X - r); a rational root p/q contributes (qX - p), so the
    result is monic exactly when every root is an integer.
    """
    acc = ONE
    for r, mult in roots:
        if mult < 0:
            raise ValueError("negative multiplicity")
        if isinstance(r, Fraction):
            q, p = r.denominator, r.numerator
            factor = IntPoly((-p, q))
        else:
            factor = IntPoly((-r, 1))
        for _ in range(mult):
            acc = acc * factor
    return acc


# -- coefficient bases -------------------------------------------------------
#
# power -> falling uses Stirling numbers of the second kind,
# falling -> power the signed first kind; the binomial basis differs from the
# falling one by the factor i!.  All three changes are unitriangular, so they
# are bijections that preserve the leading coefficient (up to the i! scale).

def _stirling2(n: int) -> list[list[int]]:
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            s[i][k] = s[i - 1][k - 1] + k * s[i - 1][k]
    return s


def _stirling1_signed(n: int) -> list[list[int]]:
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            s[i][k] = s[i - 1][k - 1] - (i - 1) * s[i - 1][k]
    return s


def convert_basis(p: IntPoly, target: str) -> IntPoly:
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if p.basis == target:
        return p
    d = p.degree
    if d < 0:
        return IntPoly((), target)

    # work through the falling basis as the hub; only the binomial basis
    # divides, so the other two stay in ints
    def to_falling(q: IntPoly) -> list[int | Fraction]:
        if q.basis == FALLING:
            return list(q.coeffs)
        if q.basis == POWER:
            s2 = _stirling2(q.degree)
            out = [0] * (q.degree + 1)
            for i, c in enumerate(q.coeffs):
                for k in range(i + 1):
                    out[k] += c * s2[i][k]
            return out
        # binomial: b_i = c_i / i!
        fact = 1
        out = []
        for i, c in enumerate(q.coeffs):
            if i:
                fact *= i
            out.append(Fraction(c, fact))
        return out

    falling = to_falling(p)
    if target == FALLING:
        result = falling
    elif target == BINOMIAL:
        fact = 1
        result = []
        for i, b in enumerate(falling):
            if i:
                fact *= i
            result.append(b * fact)
    else:  # power
        s1 = _stirling1_signed(d)
        result = [0] * (d + 1)
        for i, b in enumerate(falling):
            for k in range(i + 1):
                result[k] += b * s1[i][k]

    ints = []
    for c in result:
        if c.denominator != 1:
            raise NonIntegralCoefficientError(
                f"coefficient {c} in target basis {target} is not integral")
        ints.append(c.numerator)
    return IntPoly(tuple(ints), target)


# -- JSON wire form ----------------------------------------------------------

def poly_to_json(p: IntPoly) -> str:
    return json.dumps({"basis": p.basis,
                       "coeffs": [str(c) for c in p.coeffs]})


def poly_from_json(text: str) -> IntPoly:
    obj = json.loads(text)
    return IntPoly(tuple(int(c) for c in obj["coeffs"]), obj["basis"])


# -- rational polynomials ----------------------------------------------------

@dataclass(frozen=True)
class RatPoly:
    """Dense polynomial over Fraction; always power basis."""

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

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    def __repr__(self):
        return f"RatPoly({list(self.coeffs)})"


def rat_evaluate(p: RatPoly, x):
    acc = 0 if not isinstance(x, complex) else 0j
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


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


def rat_to_int(p: RatPoly) -> IntPoly:
    """Clear denominators and the content; sign of the leading coeff kept."""
    if p.is_zero():
        return ZERO
    from math import gcd, lcm
    denom = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return IntPoly(tuple(c // g for c in ints))


def divide_linear(coeffs: Sequence[int], r: int) -> list[int] | None:
    """Exact synthetic division by (X - r); None if r is not a root."""
    acc = 0
    out = []
    for c in reversed(coeffs):
        acc = acc * r + c
        out.append(acc)
    if out[-1] != 0:
        return None
    out.pop()
    return list(reversed(out))


def divide_out_root(coeffs: Sequence[int], r: int
                    ) -> tuple[int, Sequence[int]]:
    """Multiplicity m of the root r, and the exact quotient by (X - r)^m."""
    mult, quotient = 0, coeffs
    while True:
        divided = divide_linear(quotient, r)
        if divided is None:
            return mult, quotient
        mult, quotient = mult + 1, divided


# -- multivariate ------------------------------------------------------------

@dataclass(frozen=True)
class MultiPoly:
    """Sparse exact-integer polynomial in up to 5 variables.

    Terms are stored as a sorted tuple of (exponent-vector, coefficient)
    pairs so values are hashable and comparable by ==.
    """

    arity: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if not 1 <= self.arity <= 5:
            raise ValueError("arity must be between 1 and 5")
        clean = {}
        for exps, c in self.terms:
            if len(exps) != self.arity:
                raise ValueError("exponent vector arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if c:
                clean[tuple(exps)] = clean.get(tuple(exps), 0) + c
        object.__setattr__(
            self, "terms",
            tuple(sorted((e, c) for e, c in clean.items() if c)))

    @classmethod
    def from_dict(cls, arity: int, d: Mapping[tuple[int, ...], int]) -> "MultiPoly":
        return cls(arity, tuple(d.items()))

    @classmethod
    def constant(cls, arity: int, c: int) -> "MultiPoly":
        return cls.from_dict(arity, {(0,) * arity: c} if c else {})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        exps = [0] * arity
        exps[index] = 1
        return cls.from_dict(arity, {tuple(exps): 1})

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return MultiPoly.from_dict(self.arity, d)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (other * -1)

    def __mul__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.arity,
                             tuple((e, c * other) for e, c in self.terms))
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        d: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return MultiPoly.from_dict(self.arity, d)

    __rmul__ = __mul__

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=-1)

    def evaluate(self, point: Sequence):
        """Evaluate at a point of ints/Fractions (exact) or floats."""
        if len(point) != self.arity:
            raise ValueError("point arity mismatch")
        acc = 0
        for exps, c in self.terms:
            t = c
            for x, e in zip(point, exps):
                t *= x ** e
            acc += t
        return acc

    def __repr__(self):
        return f"MultiPoly(arity={self.arity}, terms={list(self.terms)})"


def multipoly_to_json(p: MultiPoly, var_names: Sequence[str]) -> str:
    if len(var_names) != p.arity:
        raise ValueError("variable name count mismatch")
    return json.dumps({
        "vars": list(var_names),
        "terms": [{"exp": list(e), "coeff": str(c)} for e, c in p.terms],
    })


def univariate_from_multi(p: MultiPoly) -> IntPoly:
    """Collapse a MultiPoly that mentions at most one variable to an IntPoly."""
    used = [i for i in range(p.arity)
            if any(e[i] for e, _ in p.terms)]
    if len(used) > 1:
        raise ValueError("polynomial mentions more than one variable")
    var = used[0] if used else 0
    out: dict[int, int] = {}
    for e, c in p.terms:
        out[e[var]] = out.get(e[var], 0) + c
    deg = max(out, default=-1)
    return IntPoly(tuple(out.get(i, 0) for i in range(deg + 1)))
