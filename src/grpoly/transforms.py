"""Equivalence-preserving transforms that relocate polynomial roots.

Each construction pairs a forward map with exact inverse data, so that the
transformed family carries the same distinctive power as the original:
sign-flips and variable squarings clear real roots out of half-lines, the
interleave/realify pipeline forces all roots onto the integers 0..s, the
dense prefactors adjoin root sets that are dense on the half-line or in the
plane, and coefficient-bounded scaling pulls every root into the disk of
radius 2.

The sign, parity and scale substitutions are coefficient maps, each O(d) on
a degree-d input: P(-X) sends h_i to (-1)^i h_i, P(X^2) moves h_i to slot
2i with zeros between, and P(aX) sends h_i to h_i a^i.  They equal the
general composition ``polynomials.substitute`` with inner polynomial -X, X^2
and aX, which the tests compare them against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .graphs import (Graph, SimilarityTriple, build_graph_with_parameters,
                     graph_to_graph6)
from .polynomials import (IntPoly, ONE, ZERO, divide_out_root, from_roots,
                          int_text, poly_wire)
from .roots import backward_error, is_real_rooted

MAX_WITNESS_EDGES = 5_000_000


class DensityCapError(ValueError):
    """The requested eps forces a witness graph beyond the size cap."""


@dataclass(frozen=True)
class TransformRecord:
    transform: str
    params: dict
    input: IntPoly
    output: IntPoly
    inverse_data: dict

    def to_json(self) -> str:
        def text(v) -> str:
            return int_text(v) if isinstance(v, int) else str(v)

        return json.dumps({
            "transform": self.transform,
            "params": {k: text(v) for k, v in self.params.items()},
            "input": poly_wire(self.input),
            "output": poly_wire(self.output),
            "inverse_data": {k: text(v) for k, v in self.inverse_data.items()},
        })


# -- sign and parity substitutions ---------------------------------------------

def negate_variable(p: IntPoly) -> IntPoly:
    """P(-X), the map h_i -> (-1)^i h_i.

    Non-negative input coefficients leave no negative real roots.
    """
    return IntPoly(tuple(-c if i & 1 else c for i, c in enumerate(p.coeffs)))


def square_variable(p: IntPoly) -> IntPoly:
    """P(X^2): h_i moves to slot 2i, with zeros in the odd slots.

    The zero polynomial stays zero.  Non-negative input coefficients leave no
    real roots but 0.
    """
    out = [0] * (2 * len(p.coeffs) - 1) if p.coeffs else []
    out[::2] = p.coeffs
    return IntPoly(tuple(out))


# -- signed coefficients -> non-negative, bijectively ----------------------------

def interleave_nonneg(p: IntPoly) -> IntPoly:
    """Spread signed coefficients over even/odd slots, all outputs >= 0.

    Slot 2i holds h_i when h_i >= 0, slot 2i+1 holds |h_i| when h_i < 0
    (the even/odd split is the sign bit, so the map inverts exactly).
    """
    out = [0] * (2 * len(p.coeffs))
    for i, h in enumerate(p.coeffs):
        if h >= 0:
            out[2 * i] = h
        else:
            out[2 * i + 1] = -h
    return IntPoly(tuple(out))


def deinterleave(q: IntPoly) -> IntPoly:
    """Exact inverse of interleave_nonneg: h_i = g_{2i} - g_{2i+1}."""
    n = (len(q.coeffs) + 1) // 2
    return IntPoly(tuple(q.coeff(2 * i) - q.coeff(2 * i + 1)
                         for i in range(n)))


# -- realification ----------------------------------------------------------------

def realify(p: IntPoly, s: int) -> IntPoly:
    """prod_(i=0..s) (X - i)^(h_i + 1): coefficients become root multiplicities.

    Requires non-negative coefficients (interleave first for signed input)
    and s >= deg(p).  Every root of the output is an integer in 0..s and the
    coefficient sequence is recovered exactly by ``recover_coefficients``.
    """
    if any(c < 0 for c in p.coeffs):
        bad = next(c for c in p.coeffs if c < 0)
        raise ValueError(f"negative coefficient {bad}; interleave first")
    if s < p.degree:
        raise ValueError(f"s = {s} < deg(p) = {p.degree}")
    return from_roots((i, p.coeff(i) + 1) for i in range(s + 1))


def recover_coefficients(q: IntPoly, s: int) -> IntPoly:
    """Read h_i = multiplicity(i) - 1 back off a realified polynomial.

    ValueError unless q == realify(h, s) for some h: q is nonzero, has a root
    at each of 0..s and leaves the quotient 1 once they are divided out.
    """
    if q.is_zero():
        raise ValueError("zero polynomial is not a realified polynomial")
    coeffs = []
    remaining = list(q.coeffs)
    for i in range(s + 1):
        mult, remaining = divide_out_root(remaining, i)
        if mult == 0:
            raise ValueError(f"no root at {i}: not a realified polynomial")
        coeffs.append(mult - 1)
    if remaining != [1]:
        raise ValueError(f"quotient {remaining} is not 1 after dividing out "
                         "the roots 0..s")
    return IntPoly(tuple(coeffs))


def realify_rootencode(p: IntPoly) -> IntPoly:
    """prod_(i=0..d) (X - h_i) for d = max(deg(p), 0): roots are the
    coefficients themselves, and the zero polynomial maps to X.

    All roots are integers, but the coefficient sequence comes back only as a
    multiset (the root order is lost), so this variant is weaker than
    ``realify``.
    """
    return from_roots((p.coeff(i), 1) for i in range(max(p.degree, 0) + 1))


# -- dense prefactors ---------------------------------------------------------------

def dense_real_prefactor(t: SimilarityTriple, sign: str = "+") -> IntPoly:
    """(kX -+ n)(nX -+ k): roots n/k and k/n (or their negatives).

    Over all graphs these ratios run through a dense subset of the positive
    (negative) reals, which is what makes the factor a universal real
    densifier.
    """
    n, k = t.n, t.k
    if sign == "+":
        return IntPoly((-n, k)) * IntPoly((-k, n))
    if sign == "-":
        return IntPoly((n, k)) * IntPoly((k, n))
    raise ValueError("sign must be '+' or '-'")


QUADRANT_HALVES = ("right", "left")


def quadrant_factor(a: int, b: int, c: int, half: str = "right") -> IntPoly:
    """c^2 X^2 -+ 2ac X + (a^2 + b^2), with roots (+-a +- bi)/c.

    The right half takes the minus sign (roots with real part a/c > 0), the
    left half the plus sign.
    """
    if half not in QUADRANT_HALVES:
        raise ValueError(f"half must be one of {QUADRANT_HALVES}")
    sign = -1 if half == "right" else 1
    return IntPoly((a * a + b * b, sign * 2 * a * c, c * c))


def quadrant_prefactor(t: SimilarityTriple, half: str) -> IntPoly:
    """Degree-12 product of quadrant factors over all (a,b,c) bijections.

    (a, b, c) runs through the 6 bijections onto (n, m, k); the two
    conjugate-closed halves together cover all four quadrants.
    """
    values = (t.n, t.m, t.k)
    if any(v == 0 for v in values):
        raise ValueError("all triple components must be nonzero")
    acc = ONE
    for a, b, c in itertools.permutations(values):
        acc = acc * quadrant_factor(a, b, c, half)
    return acc


DENSIFY_MODES = ("complex", "real-positive")


def densify(p: IntPoly, t: SimilarityTriple, mode: str) -> IntPoly:
    """Adjoin a dense prefactor root set to p.

    complex: both quadrant halves (degree 24) times p.
    real-positive: the positive dense real prefactor times p; requires p to
    be real-rooted already so the product stays real-rooted.
    """
    if mode == "complex":
        return (quadrant_prefactor(t, "right")
                * quadrant_prefactor(t, "left") * p)
    if mode == "real-positive":
        if p.is_zero() or not is_real_rooted(p):
            raise ValueError("real-positive densify needs a real-rooted input")
        return dense_real_prefactor(t, "+") * p
    raise ValueError(f"mode must be one of {DENSIFY_MODES}")


# -- constructive density witness -----------------------------------------------------

GRAPH6_UP_TO = 1000  # a witness graph with more vertices is written without graph6


@dataclass(frozen=True)
class DensityWitness:
    a: int
    b: int
    c: int
    scale: int
    triple: SimilarityTriple
    graph: Graph
    root: tuple[Fraction, Fraction]
    distance_sq: Fraction
    residual: float

    def to_json_dict(self) -> dict:
        obj = {
            "a": self.a, "b": self.b, "c": self.c, "scale": self.scale,
            "triple": {"n": self.triple.n, "m": self.triple.m,
                       "k": self.triple.k},
            "root": {"re": str(self.root[0]), "im": str(self.root[1])},
            "distance_sq": str(self.distance_sq),
            "residual": format(self.residual, ".12e"),
            "graph_n": self.graph.n,
            "graph6": None,
        }
        if self.graph.n <= GRAPH6_UP_TO:
            obj["graph6"] = graph_to_graph6(self.graph)
        return obj


def _round_half_even(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den > 0, without building the Fraction."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        return q + 1
    return q


def _approximate_target(re: Fraction, im: Fraction, eps: Fraction
                        ) -> tuple[int, int, int]:
    """Pairwise-distinct positive a, b, c with |(a+bi)/c - target| < eps.

    Denominators are tried in increasing order; when rounding collides
    (a = b, or equal to c), the numerators are nudged by one, taking the
    closest admissible variant.  With re = p1/q1, im = p2/q2 and eps = e1/e2
    the squared distance is D / (c q1 q2)^2, where
    D = (a q1 - p1 c)^2 q2^2 + (b q2 - p2 c)^2 q1^2, so the search runs in Z:
    a candidate is within eps exactly when D e2^2 < (e1 c q1 q2)^2, and the
    candidates of one c are ranked by D.
    """
    p1, q1 = re.numerator, re.denominator
    p2, q2 = im.numerator, im.denominator
    e1, e2 = eps.numerator, eps.denominator
    q1_sq, q2_sq, e2_sq, e1_q = q1 * q1, q2 * q2, e2 * e2, e1 * q1 * q2
    c = 0
    # by c ~ 3/eps even nudged numerators are within eps; scan a bit beyond.
    # beyond ~2000 the scaled witness would blow the edge cap anyway, so the
    # scan cap reports instead of spinning.
    c_cap = min(6 * e2 // e1 + 16, 20000)
    while c < c_cap:
        c += 1
        pc1, pc2 = p1 * c, p2 * c
        a0 = max(1, _round_half_even(pc1, q1))
        b0 = max(1, _round_half_even(pc2, q2))
        limit = (e1_q * c) ** 2
        best = None
        for a in (a0, a0 - 1, a0 + 1, a0 - 2, a0 + 2):
            if a < 1 or a == c:
                continue
            da = (a * q1 - pc1) ** 2 * q2_sq
            for b in (b0, b0 - 1, b0 + 1, b0 - 2, b0 + 2):
                if b < 1 or a == b or b == c:
                    continue
                d = da + (b * q2 - pc2) ** 2 * q1_sq
                if d * e2_sq < limit and (best is None or d < best[0]):
                    best = (d, a, b)
        if best is not None:
            return best[1], best[2], c
    raise DensityCapError(
        f"no admissible (a, b, c) within eps = {eps} up to denominator {c_cap}")


def density_witness(re: Fraction, im: Fraction, eps: Fraction
                    ) -> DensityWitness:
    """A graph whose quadrant prefactor has a root within eps of the target.

    The target must lie in the open first quadrant.  (a+bi)/c approximates
    it with pairwise-distinct positive integers; the slot assignment sends
    the largest value to the edge count, the smallest to the component
    count, the middle to the vertex count, and everything is scaled by
    2 * (edge slot) when the edge-capacity constraint fails.  The root is
    unchanged by scaling, and the returned graph realizes the triple.
    """
    re, im, eps = Fraction(re), Fraction(im), Fraction(eps)
    if re <= 0 or im <= 0:
        raise ValueError("target must lie in the open first quadrant")
    if eps <= 0:
        raise ValueError("eps must be positive")
    a, b, c = _approximate_target(re, im, eps)
    lo, mid, hi = sorted((a, b, c))
    v, e, k = mid, hi, lo
    scale = 1
    if e > comb(v - k + 1, 2):
        scale = 2 * e
        v, e, k = scale * v, scale * e, scale * k
    if e > MAX_WITNESS_EDGES:
        raise DensityCapError(
            f"witness needs {e} edges, over the cap {MAX_WITNESS_EDGES}")
    g = build_graph_with_parameters(v, e, k)
    triple = SimilarityTriple(v, e, k)
    root_re, root_im = Fraction(a, c), Fraction(b, c)

    # quadrant_factor(a, b, c), up to the common scale, divides the product
    # and vanishes exactly at (a+bi)/c; report the root's backward error in
    # the full degree-12 product.
    residual = backward_error(quadrant_prefactor(triple, "right"),
                              complex(root_re, root_im))
    dist = (root_re - re) ** 2 + (root_im - im) ** 2
    return DensityWitness(a=a, b=b, c=c, scale=scale, triple=triple, graph=g,
                          root=(root_re, root_im), distance_sq=dist,
                          residual=residual)


# -- disk bounding -----------------------------------------------------------------

def rouche_scale(p: IntPoly, a: int) -> IntPoly:
    """P(a*X), the map h_i -> h_i a^i.

    With a >= max |h_i| (i < d), every root lands in |z| <= 2.  The bound
    also needs |h_d| >= 1, which every nonzero integer polynomial has.
    """
    if p.is_zero():
        raise ValueError("cannot scale the zero polynomial")
    bound = max((abs(c) for c in p.coeffs[:-1]), default=0)
    if a < 1 or a < bound:
        raise ValueError(f"scale {a} below required max(1, {bound})")
    out, power = [], 1
    for c in p.coeffs:
        out.append(c * power)
        power *= a
    return IntPoly(tuple(out))


def scale_for_graph(p: IntPoly, t: SimilarityTriple, r: int) -> IntPoly:
    """rouche_scale with a = n^r, after checking |h_i| <= n^r for all i.

    The scaling is inverted by the rational substitution X -> X / n^r, which
    depends on the graph only through its triple.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    bound = t.n ** r
    for i, coeff in enumerate(p.coeffs):
        if abs(coeff) > bound:
            raise ValueError(
                f"|coefficient| {abs(coeff)} of X^{i} exceeds n^r = {bound}")
    return rouche_scale(p, bound)


def remap_roots(p: IntPoly, alpha: Fraction, beta: Fraction) -> IntPoly:
    """Polynomial whose roots are the image of p's roots under z -> alpha*z + beta.

    M^d p(N/M) in Z[x] for (X - beta) / alpha = N/M, by homogeneous Horner,
    divided by its content; the map is injective (alpha != 0), so the root
    multiset transforms bijectively.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    # alpha = a_n/a_d and beta = b_n/b_d give N = a_d (b_d X - b_n) and
    # M = a_n b_d, with a_n and a_d both negated when a_n < 0 so M > 0
    a_n, a_d = alpha.numerator, alpha.denominator
    if a_n < 0:
        a_n, a_d = -a_n, -a_d
    num = IntPoly((-a_d * beta.numerator, a_d * beta.denominator))
    den = a_n * beta.denominator
    acc, power = ZERO, 1
    for c in reversed(p.coeffs):
        acc = acc * num + IntPoly((c * power,))
        power *= den
    content = gcd(*acc.coeffs)
    return IntPoly(tuple(c // content for c in acc.coeffs)) if content else acc


def permute_coefficients(p: IntPoly, perm: Sequence[int]) -> IntPoly:
    """Coefficient i of the output is coefficient perm(i) of the input."""
    s = len(perm) - 1
    if sorted(perm) != list(range(s + 1)):
        raise ValueError("perm must be a bijection on 0..s")
    if s < p.degree:
        raise ValueError(f"perm domain 0..{s} smaller than deg(p) = {p.degree}")
    return IntPoly(tuple(p.coeff(perm[i]) for i in range(s + 1)))


# -- named registry (CLI) -------------------------------------------------------------

def apply_named_transform(name: str, p: IntPoly,
                          t: Optional[SimilarityTriple] = None,
                          arg: Optional[str] = None) -> TransformRecord:
    """Apply one transform by CLI name, recording params and inverse data."""
    if name == "negate":
        return TransformRecord("negate", {}, p, negate_variable(p),
                               {"inverse": "negate"})
    if name == "square":
        return TransformRecord("square", {}, p, square_variable(p),
                               {"inverse": "even-part"})
    if name == "interleave":
        return TransformRecord("interleave", {}, p, interleave_nonneg(p),
                               {"inverse": "deinterleave"})
    if name == "deinterleave":
        return TransformRecord("deinterleave", {}, p, deinterleave(p),
                               {"inverse": "interleave"})
    if name == "realify":
        s = int(arg) if arg is not None else max(p.degree, 0)
        return TransformRecord("realify", {"s": s}, p, realify(p, s),
                               {"s": s, "inverse": "recover-coefficients"})
    if name == "rootencode":
        return TransformRecord("rootencode", {}, p, realify_rootencode(p),
                               {"inverse": "multiset-of-roots"})
    if name == "densify":
        mode = arg or "complex"
        if t is None:
            raise ValueError("densify needs a graph source for the triple")
        return TransformRecord(
            "densify", {"mode": mode, "n": t.n, "m": t.m, "k": t.k},
            p, densify(p, t, mode), {"divide-by": "prefactor"})
    if name == "rouche":
        if arg is None:
            a = max(1, max((abs(c) for c in p.coeffs[:-1]), default=0))
        else:
            a = int(arg)
        return TransformRecord("rouche", {"A": a}, p, rouche_scale(p, a),
                               {"A": a, "inverse": "X -> X/A"})
    if name == "scale":
        if t is None:
            raise ValueError("scale needs a graph source for the triple")
        r = int(arg) if arg is not None else 1
        return TransformRecord(
            "scale", {"r": r, "n": t.n}, p, scale_for_graph(p, t, r),
            {"A": t.n ** r, "inverse": "X -> X/n^r"})
    raise ValueError(f"unknown transform {name!r}")


TRANSFORM_NAMES = ("negate", "square", "interleave", "deinterleave",
                   "realify", "rootencode", "densify", "rouche", "scale")
