"""Root location: exact real-root counts, integer roots, numeric complex roots.

The exact layer stays in Z[x]: Yun's squarefree decomposition takes its gcds
from primitive pseudo-remainder sequences and divides exactly (by Gauss's
lemma a primitive divisor leaves an integer quotient), and real-rootedness is
certified by an integer Sturm chain of the squarefree part; zero roots come
from the valuation, never from numerics.  Complex roots are numeric only:
Aberth-Ehrlich iteration per Yun factor, started from Bini's (1996) points on
one circle per edge of the factor's Newton polygon and each root frozen once
its residual reaches rounding level, so multiplicities are exact while
positions carry a checked backward error.  Every result is certified: the
Weierstrass inclusion disks of each factor are pairwise disjoint, and as many
meet the real axis as the Sturm chain counts real roots, or RootFindingError
is raised; the roots in the disks that meet the axis are then real and get
imaginary part 0.
``root_report`` makes one exact pass and reads every exact field off it.
"""

from __future__ import annotations

import cmath
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, inf, log, pi, prod

from .polynomials import IntPoly

RESIDUAL_TOL = 1e-9
ABERTH_MAX_ITER = 400
_DIVISOR_CAP = 200000
_TRIAL_CAP = 10 ** 6


class ZeroPolynomialError(ValueError):
    """Root analysis of the zero polynomial is undefined."""


class RootFindingError(RuntimeError):
    """Numeric root finding failed; results are unusable."""


def _require_nonzero(p: IntPoly):
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")


# -- exact arithmetic in Z[x], ascending coefficient lists ---------------------

def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f) if i]


def _primitive(f: list[int]) -> list[int]:
    """f divided by its (positive) content."""
    g = gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of m * a by b for some integer m > 0; zero is [].

    Only positive divisors of |lc(b)| ever multiply the dividend, so the
    result is a positive multiple of the remainder over Q: same signs.
    """
    if b[-1] < 0:
        b = [-c for c in b]
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) > db:
        f = rem[-1]
        g = gcd(f, lead)
        if g < lead:
            rem = [c * (lead // g) for c in rem]
        f //= g
        k = len(rem) - 1 - db
        for i in range(db):
            rem[k + i] -= f * b[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x]; raises ArithmeticError unless b divides a exactly."""
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        q[k], r = divmod(rem[k + db], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        for i in range(db):
            rem[k + i] -= q[k] * b[i]
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, positive leading coefficient; a nonzero, b maybe []."""
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _pseudo_rem(a, b)
        if len(a) == 1:
            return [1]
    return a if a[-1] > 0 else [-c for c in a]


def _yun(f: list[int]) -> tuple[list[int], list[tuple[list[int], int]]]:
    """(squarefree part, [(q_i, i)]) of a nonzero f, with f = c * prod q_i^i.

    Every q_i and the squarefree part prod q_i are primitive with positive
    leading coefficient.
    """
    f = _primitive(f if f[-1] > 0 else [-c for c in f])
    df = _derivative(f)
    g = _gcd(f, df)
    b = sqf = _exact_quo(f, g)
    c = _exact_quo(df, g)
    out = []
    i = 1
    while len(b) > 1:
        d = [x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)]
        while d and d[-1] == 0:
            d.pop()
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _exact_quo(b, a), _exact_quo(d, a)
        i += 1
    return sqf, out


def _squarefree(p: IntPoly):
    """(valuation, squarefree part, Yun factors of p / X^valuation)."""
    val = 0
    while p.coeffs[val] == 0:
        val += 1
    sqf, factors = _yun(list(p.coeffs[val:]))
    return val, ([0] + sqf if val else sqf), factors


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p') as a primitive integer polynomial (positive leading)."""
    _require_nonzero(p)
    return IntPoly(_squarefree(p)[1])


def yun_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Squarefree decomposition [(q_i, i)] with p = c * prod q_i^i exactly."""
    _require_nonzero(p)
    return [(IntPoly(q), i) for q, i in _yun(list(p.coeffs))[1]]


# -- Sturm chains --------------------------------------------------------------

def _sturm(sf: list[int]) -> list[list[int]]:
    chain = [sf]
    if len(sf) > 1:
        chain.append(_primitive(_derivative(sf)))
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of the squarefree part sf of p, over the integers.

    A primitive pseudo-remainder sequence: after sf and sf', each member is
    the remainder of a positive multiple of the one before last by the last,
    negated and divided by its positive content.  Members differ from the
    classical chain by positive factors only; any other scaling would
    corrupt the sign variation counts.
    """
    _require_nonzero(p)
    return [IntPoly(q) for q in _sturm(_squarefree(p)[1])]


def _sign_at(q: list[int], x) -> int:
    if x == inf:
        c = q[-1]
    elif x == -inf:
        c = -q[-1] if len(q) % 2 == 0 else q[-1]
    else:
        c = 0
        for a in reversed(q):
            c = c * x + a
    return (c > 0) - (c < 0)


def _variations(chain: list[list[int]], x) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _profile(chain: list[list[int]], zero: int) -> tuple[int, int, int]:
    v0 = _variations(chain, 0)
    neg = _variations(chain, -inf) - v0 - zero  # (-inf, 0] holds a zero root
    return (neg, zero, v0 - _variations(chain, inf))


def sturm_count(p: IntPoly, interval: tuple) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    Endpoints are exact rationals/ints or +-math.inf; a == b counts 0 and
    a > b raises ValueError.
    """
    _require_nonzero(p)
    a, b = interval
    if a > b:
        raise ValueError("empty interval")
    if a == b:
        return 0
    a = a if a == -inf else Fraction(a)
    b = b if b == inf else Fraction(b)
    chain = _sturm(_squarefree(p)[1])
    return _variations(chain, a) - _variations(chain, b)


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every complex root of p is real (constant polys vacuously)."""
    _require_nonzero(p)
    chain = _sturm(_squarefree(p)[1])
    return (_variations(chain, -inf) - _variations(chain, inf)
            == len(chain[0]) - 1)


def sign_profile(p: IntPoly) -> tuple[int, int, int]:
    """Distinct real roots split as (negative, zero, positive) counts."""
    _require_nonzero(p)
    val, sf, _ = _squarefree(p)
    return _profile(_sturm(sf), 1 if val else 0)


# -- integer roots ---------------------------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    f = 2
    while f * f <= n and f <= _TRIAL_CAP:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        if n > _TRIAL_CAP * _TRIAL_CAP:
            raise RootFindingError(
                f"cannot factor trailing coefficient remainder {n} "
                "for the integer-root divisor test")
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisors(n: int) -> list[int]:
    factors = _factorize(n)
    count = 1
    for e in factors.values():
        count *= e + 1
        if count > _DIVISOR_CAP:
            raise RootFindingError(
                "trailing coefficient has too many divisors for the "
                "integer-root search")
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _integer_roots(val: int, factors: list) -> dict[int, int]:
    roots = {0: val} if val else {}
    for q, mult in factors:
        for d in _divisors(abs(q[0])):
            for r in (d, -d):
                if not _sign_at(q, r):
                    roots[r] = mult
    return roots


def integer_roots(p: IntPoly) -> dict[int, int]:
    """All integer roots with multiplicities, by exact divisor testing.

    Each Yun factor q_i is squarefree and coprime to the others, so a root of
    q_i has multiplicity exactly i; the candidates are the divisors of each
    |q_i(0)|, which stays small even when p itself has huge repeated factors.
    """
    _require_nonzero(p)
    val, _, factors = _squarefree(p)
    return _integer_roots(val, factors)


# -- numeric complex roots -------------------------------------------------------

def _float_coeffs(coeffs: Sequence[int]) -> list[float]:
    """coeffs scaled by their largest |coefficient|; raises RootFindingError
    when a nonzero coefficient would not be a normal float."""
    scale = max(abs(c) for c in coeffs)
    out = [c / scale for c in coeffs]  # int true division rounds correctly
    if any(c and abs(x) < sys.float_info.min for c, x in zip(coeffs, out)):
        raise RootFindingError("a nonzero coefficient underflows the float "
                               "range after scaling")
    return out


def _start_points(coeffs: list[float]) -> list[complex]:
    """Bini's starting points: one circle per edge of the Newton polygon.

    An edge (i, j) of the upper convex hull of the points (k, log|a_k|)
    puts j - i points, evenly spaced, on the circle of radius
    (|a_i| / |a_j|)^(1 / (j - i)), where about j - i roots lie.  The angle
    offset 2 pi i / d + 0.7 keeps every point off the real axis and the
    circles out of line with one another.
    """
    d = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if c:
            y = log(abs(c))
            while len(hull) > 1:
                (i0, y0), (i1, y1) = hull[-2:]
                if (i1 - i0) * (y - y0) < (y1 - y0) * (k - i0):
                    break  # hull[-1] lies above the chord to (k, y)
                hull.pop()
            hull.append((k, y))
    zs = []
    for (i, _), (j, _) in zip(hull, hull[1:]):
        radius = (abs(coeffs[i]) / abs(coeffs[j])) ** (1 / (j - i))
        zs += [cmath.rect(radius, 2 * pi * (k / (j - i) + i / d) + 0.7)
               for k in range(j - i)]
    return zs


def _aberth(coeffs: list[float]) -> tuple[list[complex], list[float]]:
    """Aberth-Ehrlich simultaneous iteration on a squarefree polynomial.

    Following Bini 1996, the iterates start on the Newton-polygon circles
    of ``_start_points``, each near the modulus of as many roots as it
    holds points, so the number of sweeps stays flat as the degree grows;
    and a root is frozen once |p(z)| <= 4 d eps sum_i |a_i||z|^i, the
    rounding level of its Horner evaluation.  Each sweep moves only the
    roots still active, and the iteration ends when none are left.  Returns
    the roots and, per root, |p(z)| plus that rounding level.
    """
    d = len(coeffs) - 1
    zs = _start_points(coeffs)
    terms = [(c, abs(c)) for c in reversed(coeffs)]
    level = 4 * d * 2.0 ** -53
    errs = [0.0] * d
    active = range(d)
    for _ in range(ABERTH_MAX_ITER):
        moved = []
        for k in active:
            z = zs[k]
            r = abs(z)
            pv = dv = 0j
            bound = 0.0
            for c, m in terms:  # p(z), p'(z) and sum_i |a_i||z|^i
                dv = dv * z + pv
                pv = pv * z + c
                bound = bound * r + m
            if abs(pv) <= level * bound:
                errs[k] = abs(pv) + level * bound
                continue
            moved.append(k)
            if dv == 0:
                zs[k] = z + 1e-8 * (1 + r)
                continue
            w = pv / dv
            s = 0j
            for j in range(d):
                if j != k:
                    diff = z - zs[j]
                    if diff == 0:
                        diff = 1e-12
                    s += 1 / diff
            denom = 1 - w * s
            zs[k] = z - (w if denom == 0 else w / denom)
        if not moved:
            return zs, errs
        active = moved
    raise RootFindingError(
        f"Aberth iteration did not converge in {ABERTH_MAX_ITER} steps")


def _real_disks(lead: float, zs: list[complex], errs: list[float]
                ) -> list[int]:
    """Indices of the Weierstrass inclusion disks of zs that meet the real axis.

    The disk around z_k has radius d |p(z_k)| / |a_d prod_(j!=k) (z_k - z_j)|,
    with errs[k] >= |p(z_k)|.  Pairwise disjoint disks hold one root each
    (Carstensen 1991); overlapping ones raise RootFindingError.
    """
    radii = []
    for k, z in enumerate(zs):
        gap = abs(prod((z - w for w in zs[:k] + zs[k + 1:]), start=lead))
        radii.append(len(zs) * errs[k] / gap if gap else inf)
    if any(abs(zs[k] - zs[j]) <= radii[k] + radii[j]
           for k in range(len(zs)) for j in range(k)):
        raise RootFindingError("inclusion disks of two roots overlap")
    return [k for k, (z, r) in enumerate(zip(zs, radii)) if abs(z.imag) <= r]


def _residual(norm: list[float], z: complex) -> float:
    acc = 0j
    for c in reversed(norm):
        acc = acc * z + c
    value = abs(acc)
    scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(norm))
    return value / scale if scale else value


def backward_error(p: IntPoly, z: complex) -> float:
    """|p(z)| / sum_i |c_i||z|^i: relative residual of z as a root of p.

    The c_i are the power-basis coefficients of p.
    """
    return _residual(_float_coeffs(p.coeffs), z)


def complex_roots(p: IntPoly) -> list[tuple[complex, int]]:
    """Degree-many numeric roots, exact multiplicities; none for a constant.

    Returns (root, multiplicity) pairs sorted by (real, imag).  The roots
    are certified as in ``root_report``; a failure raises instead of
    returning bad data.
    """
    _require_nonzero(p)
    val, sf, factors = _squarefree(p)
    neg, _, pos = _profile(_sturm(sf), 1 if val else 0)
    return [(z, m) for z, m, _ in _complex_roots(p, val, factors, neg + pos)]


def _complex_roots(p: IntPoly, val: int, factors: list, real: int
                   ) -> list[tuple[complex, int, float]]:
    """(root, multiplicity, backward error) triples sorted by root, certified
    against RESIDUAL_TOL and the Sturm count ``real`` of nonzero real roots."""
    # p(0) = 0 exactly, so a zero root's backward error is 0.0
    found: list[tuple[complex, int, float]] = [(0j, val, 0.0)] if val else []
    norm = _float_coeffs(p.coeffs)
    for factor, mult in factors:
        coeffs = _float_coeffs(factor)
        zs, errs = _aberth(coeffs)
        on_axis = _real_disks(coeffs[-1], zs, errs)
        real -= len(on_axis)
        for k in on_axis:  # real once the count below matches Sturm's
            zs[k] = complex(zs[k].real, 0.0)
        for z in zs:
            residual = _residual(norm, z)
            if residual > RESIDUAL_TOL:
                raise RootFindingError(
                    f"root {z} has backward error {residual:.3e} > tol")
            found.append((z, mult, residual))
    if real:
        raise RootFindingError("inclusion disks on the real axis disagree "
                               "with the Sturm count")
    found.sort(key=lambda t: (t[0].real, t[0].imag))
    total = sum(m for _, m, _ in found)
    assert total == p.degree, (total, p.degree)
    return found


def rouche_bound(p: IntPoly) -> Fraction:
    """Exact disk radius 1 + max_(i<d) |h_i| / |h_d| containing all roots.

    The h_i are the power-basis coefficients of p.
    """
    _require_nonzero(p)
    lead = abs(p.coeffs[-1])
    rest = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return 1 + Fraction(rest, lead)


# -- aggregate report ------------------------------------------------------------

@dataclass(frozen=True)
class RootReport:
    degree: int
    negative_real: int
    zero_root: int
    positive_real: int
    real_rooted: bool
    integer_roots: dict[int, int]
    complex_roots: tuple[tuple[complex, int], ...]
    residuals: tuple[float, ...]
    rouche_radius: Fraction
    max_modulus: float

    def to_json(self) -> str:
        return json.dumps({
            "degree": self.degree,
            "real_root_counts": {
                "negative": self.negative_real,
                "zero": self.zero_root,
                "positive": self.positive_real,
            },
            "real_rooted": self.real_rooted,
            "integer_roots": {str(r): m
                              for r, m in sorted(self.integer_roots.items())},
            "complex_roots": [
                {"re": _fmt(z.real), "im": _fmt(z.imag), "mult": m}
                for z, m in self.complex_roots],
            "residuals": [_fmt(r) for r in self.residuals],
            "rouche_radius": str(self.rouche_radius),
            "max_modulus": _fmt(self.max_modulus),
        })


def _fmt(x: float) -> str:
    return format(x, ".12e")


def root_report(p: IntPoly) -> RootReport:
    """Every root fact of p, from one exact pass and one numeric pass."""
    _require_nonzero(p)
    val, sf, factors = _squarefree(p)
    neg, zero, pos = _profile(_sturm(sf), 1 if val else 0)
    found = _complex_roots(p, val, factors, neg + pos)
    croots = tuple((z, m) for z, m, _ in found)
    residuals = tuple(r for _, _, r in found)
    maxmod = max((abs(z) for z, _ in croots), default=0.0)
    return RootReport(
        degree=p.degree,
        negative_real=neg,
        zero_root=zero,
        positive_real=pos,
        real_rooted=neg + zero + pos == len(sf) - 1,  # v(-inf) - v(inf)
        integer_roots=_integer_roots(val, factors),
        complex_roots=croots,
        residuals=residuals,
        rouche_radius=rouche_bound(p),
        max_modulus=maxmod,
    )


def scatter_rows(p: IntPoly, graph6: str, family: str
                 ) -> list[tuple[str, ...]]:
    """CSV rows (re, im, modulus, graph6, family), one per root w/ multiplicity."""
    if p.is_zero():
        return []
    return [(_fmt(z.real), _fmt(z.imag), _fmt(abs(z)), graph6, family)
            for z, mult in complex_roots(p) for _ in range(mult)]
