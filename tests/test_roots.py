import math
import random
import subprocess
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import given, settings
import hypothesis.strategies as st

from grpoly import roots
from grpoly.catalog import FAMILY_ARITY, FAMILY_NAMES, char_poly, \
    chromatic_poly, family_polynomial, matching_poly, subset_counting_poly
from grpoly.cli import main
from grpoly.graphs import (enumerate_graphs, graph_from_graph6,
                           graph_to_graph6, named_graph)
from grpoly.polynomials import IntPoly, from_roots, poly
from grpoly.roots import (RootFindingError, ZeroPolynomialError,
                          backward_error, complex_roots, integer_roots,
                          is_real_rooted, root_report,
                          rouche_bound, sign_profile, squarefree_part,
                          sturm_chain, sturm_count, yun_decomposition)

C4 = named_graph("cycle", 4)
K3 = named_graph("complete", 3)


class TestSturm:
    def test_three_roots_in_window(self):
        assert sturm_count(poly(-6, 11, -6, 1), (0, 4)) == 3

    def test_no_real_roots(self):
        assert sturm_count(poly(1, 0, 1), (-inf, inf)) == 0

    def test_multiple_root_counted_once(self):
        assert sturm_count(poly(0, 0, 1), (-inf, inf)) == 1

    def test_half_open_convention(self):
        p = poly(-1, 1)  # root at 1
        assert sturm_count(p, (0, 1)) == 1  # (0, 1] contains it
        assert sturm_count(p, (1, 2)) == 0  # (1, 2] does not

    def test_rational_endpoints(self):
        p = from_roots([(Fraction(1, 2), 1), (Fraction(3, 2), 1)])
        assert sturm_count(p, (Fraction(0), Fraction(1))) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_count(IntPoly(()), (-inf, inf))

    @pytest.mark.parametrize("interval", [(1, -inf), (inf, 3), (4, 0)])
    def test_reversed_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="empty interval"):
            sturm_count(poly(-1, 1), interval)

    @pytest.mark.parametrize("interval", [(inf, inf), (-inf, -inf), (3, 3)])
    def test_degenerate_interval_counts_zero(self, interval):
        assert sturm_count(poly(-3, 1), interval) == 0


class TestRealRooted:
    def test_defect_matching_c4(self):
        assert is_real_rooted(matching_poly(C4, "defect"))

    def test_x2_plus_1(self):
        assert not is_real_rooted(poly(1, 0, 1))

    def test_char_polys_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert is_real_rooted(char_poly(g, "adjacency"))
                assert is_real_rooted(char_poly(g, "laplacian"))


class TestSignProfile:
    def test_generating_matching_c4(self):
        assert sign_profile(poly(1, 4, 2)) == (2, 0, 0)

    def test_chromatic_k3(self):
        assert sign_profile(chromatic_poly(K3)) == (0, 1, 2)

    def test_defect_matching_k3_symmetric(self):
        assert sign_profile(matching_poly(K3, "defect")) == (1, 1, 1)


class TestIntegerRoots:
    def test_constructed_multiplicities(self):
        assert integer_roots(poly(0, 0, -1, 3, -3, 1)) == {0: 2, 1: 3}

    def test_difference_of_squares(self):
        assert integer_roots(poly(-1, 0, 1)) == {1: 1, -1: 1}

    def test_no_integer_roots(self):
        assert integer_roots(poly(1, 0, 1)) == {}

    def test_huge_repeated_factors(self):
        # (X-1)^40 X^3 (X-7)^2: trailing coefficient of p is astronomical,
        # but the squarefree part keeps the divisor test cheap
        p = from_roots([(1, 40), (0, 3), (7, 2)])
        assert integer_roots(p) == {1: 40, 0: 3, 7: 2}

    def test_largest_prime_below_the_trial_cap(self):
        p = from_roots([(999_983, 1), (2, 1)])
        assert integer_roots(p) == {2: 1, 999_983: 1}

    def test_prime_remainder_above_the_trial_cap(self):
        assert integer_roots(poly(-7 * 1_000_003, 1)) == {7_000_021: 1}

    def test_two_primes_above_the_trial_cap(self):
        with pytest.raises(RootFindingError, match="^cannot factor"):
            integer_roots(poly(-1_000_003 * 1_000_033, 0, 1))

    def test_divisor_cap(self):
        # (4 + 1)(4 + 1)(2 + 1)(2 + 1) 2^10 = 230,400 divisors
        n = 2**4 * 3**4 * 5**2 * 7**2 * math.prod(
            (11, 13, 17, 19, 23, 29, 31, 37, 41, 43))
        with pytest.raises(RootFindingError, match="too many divisors"):
            integer_roots(poly(-n, 1))


class TestComplexRoots:
    def test_quadratic_pure_imaginary(self):
        roots = complex_roots(poly(1, 0, 1))
        assert sorted(z.imag for z, _ in roots) == pytest.approx([-1, 1])

    def test_dense_quadrant_factor(self):
        roots = complex_roots(poly(5, -6, 9))
        expected = {complex(Fraction(1, 3), Fraction(2, 3)),
                    complex(Fraction(1, 3), -Fraction(2, 3))}
        for z, _ in roots:
            assert min(abs(z - w) for w in expected) < 1e-9

    def test_edge_cover_c4(self):
        p = subset_counting_poly(C4, "edgeCover")
        roots = complex_roots(p)
        assert sum(m for _, m in roots) == 4
        ball = (1 + math.sqrt(3)) ** 3 / 4
        assert all(abs(z) <= ball + 1e-6 for z, _ in roots)

    def test_multiplicities_recovered(self):
        p = from_roots([(2, 3), (-1, 2)])
        roots = complex_roots(p)
        mults = sorted(m for _, m in roots)
        assert mults == [2, 3]

    def test_residuals_small(self):
        p = chromatic_poly(named_graph("complete", 5))
        for z, _ in complex_roots(p):
            assert backward_error(p, z) <= 1e-8


class TestYun:
    def test_known_decomposition(self):
        p = from_roots([(0, 2), (1, 3)])
        assert yun_decomposition(p) == [(poly(0, 1), 2), (poly(-1, 1), 3)]

    def test_squarefree_input(self):
        assert yun_decomposition(poly(-1, 0, 1)) == [(poly(-1, 0, 1), 1)]

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)),
                    min_size=1, max_size=3, unique_by=lambda t: t[0]))
    @settings(max_examples=40)
    def test_product_reconstructs(self, roots):
        p = from_roots(roots)
        out = yun_decomposition(p)
        acc = poly(1)
        for q, mult in out:
            for _ in range(mult):
                acc = acc * q
        assert acc == p

    def test_squarefree_part(self):
        p = from_roots([(0, 2), (1, 3)])
        assert squarefree_part(p) == poly(0, -1, 1)


class TestRoucheBound:
    def test_example(self):
        assert rouche_bound(poly(3, -5, 0, 1)) == 6

    def test_pure_power(self):
        assert rouche_bound(poly(0, 0, 0, 1)) == 1

    def test_non_monic(self):
        assert rouche_bound(poly(1, -3, 2)) == Fraction(5, 2)

    def test_bound_contains_all_roots_small_catalog(self):
        for g in enumerate_graphs(4):
            for fam in ("charA", "charL", "chromatic", "independence"):
                p = family_polynomial(fam, g)
                if p.degree < 1:
                    continue
                assert root_report(p).max_modulus <= \
                    float(rouche_bound(p)) + 1e-6


class TestRootReport:
    def test_defect_matching_c4(self):
        rep = root_report(matching_poly(C4, "defect"))
        assert rep.real_rooted
        assert rep.degree == 4
        # spectrum symmetric about 0
        mods = sorted(abs(z) for z, _ in rep.complex_roots)
        assert mods[0] == pytest.approx(mods[1]) or rep.zero_root

    def test_linear(self):
        rep = root_report(poly(0, 1))
        assert rep.integer_roots == {0: 1}
        assert rep.rouche_radius == 1
        assert rep.max_modulus == 0.0

    def test_constant(self):
        # no Yun factor and a Sturm count of 0: the general path gives no roots
        assert complex_roots(poly(5)) == []
        rep = root_report(poly(5))
        assert rep.degree == 0 and rep.complex_roots == ()
        assert rep.integer_roots == {} and rep.real_rooted
        assert rep.rouche_radius == 1 and rep.max_modulus == 0.0

    def test_chromatic_p3(self):
        rep = root_report(chromatic_poly(named_graph("path", 3)))
        assert rep.integer_roots == {0: 1, 1: 2}
        assert (rep.negative_real, rep.zero_root, rep.positive_real) == \
            (0, 1, 1)

    def test_consistency_invariants(self):
        for g in enumerate_graphs(4):
            p = family_polynomial("charA", g)
            if p.degree < 1:
                continue
            rep = root_report(p)
            distinct = rep.negative_real + rep.zero_root + rep.positive_real
            assert distinct <= rep.degree
            assert sum(m for _, m in rep.complex_roots) == rep.degree
            assert all(r <= 1e-8 for r in rep.residuals)
            assert rep.max_modulus <= float(rep.rouche_radius) + 1e-6

    def test_json_is_stable(self):
        rep = root_report(poly(-1, 0, 1))
        assert root_report(poly(-1, 0, 1)).to_json() == rep.to_json()


UNIVARIATE = tuple(f for f in FAMILY_NAMES if FAMILY_ARITY[f] == 1)
X = sympy.Symbol("x")


def _catalog_polys(graphs):
    for g in graphs:
        for fam in UNIVARIATE:
            p = family_polynomial(fam, g)
            if not p.is_zero():
                yield p


def _graphs_up_to(nmax):
    return [g for n in range(1, nmax + 1) for g in enumerate_graphs(n)]


def _oracle_graphs():
    """Every graph with n <= 5, plus every 10th graph with n = 6."""
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    return graphs + enumerate_graphs(6)[::10]


def _sympy(p: IntPoly) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), X)


class TestSympyOracle:
    """The exact layer against sympy's own Sturm, sqf and root code."""

    def test_catalog_exact_layer(self):
        checked = 0
        for p in _catalog_polys(_oracle_graphs()):
            sp = _sympy(p)
            zero = 1 if p.coeffs[0] == 0 else 0
            neg = sp.count_roots(None, 0) - zero  # count_roots: closed
            pos = sp.count_roots(0, None) - zero
            assert sign_profile(p) == (neg, zero, pos), p
            _, sqf = sympy.sqf_list(sp)
            distinct = sum(q.degree() for q, _ in sqf)
            assert is_real_rooted(p) == (neg + zero + pos == distinct), p
            assert [(list(q.coeffs), m) for q, m in yun_decomposition(p)] == \
                [(list(reversed(q.all_coeffs())), m) for q, m in sqf], p
            # integer roots come from sympy's factorization; the cubic and
            # quartic formulas only add irrational roots, slowly
            oracle = sympy.roots(sp, filter="Z", cubics=False, quartics=False)
            assert integer_roots(p) == {int(r): m for r, m in oracle.items()}
            checked += 1
        assert checked > 700


def _proportional_positive(a: list, b: list) -> bool:
    """a = lambda * b for some rational lambda > 0 (ascending coefficients)."""
    return (len(a) == len(b) and a[-1] * b[-1] > 0
            and all(x * b[-1] == y * a[-1] for x, y in zip(a, b)))


# (2X - 1)(3X + 2)(X - 2)^2 X (X^2 + X + 1): non-monic, a double root and a
# zero root, so chain members get negative leading coefficients on the way
MIXED = from_roots([(Fraction(1, 2), 1), (Fraction(-2, 3), 1), (2, 2),
                    (0, 1)]) * poly(1, 1, 1)


class TestIntegerSturmSigns:
    @pytest.mark.parametrize("scale", [1, -1, -6, 10])
    def test_scaling_does_not_change_counts(self, scale):
        p = MIXED * scale
        assert sign_profile(p) == (1, 1, 2)
        assert not is_real_rooted(p)
        assert sturm_count(p, (-inf, inf)) == 4
        assert sturm_count(p, (Fraction(-1, 2), 3)) == 3
        real = from_roots([(-3, 2), (Fraction(5, 2), 1), (1, 1)]) * scale
        assert sign_profile(real) == (1, 0, 2)
        assert is_real_rooted(real)
        assert sturm_count(real, (-3, Fraction(5, 2))) == 2

    def test_chain_is_positive_multiple_of_classical(self):
        for p in (MIXED, -MIXED, MIXED * -6, poly(1, 0, 1),
                  from_roots([(-2, 3), (5, 1)]) * 4):
            classical = _sympy(squarefree_part(p)).sturm()
            ours = sturm_chain(p)
            assert len(ours) == len(classical)
            for a, b in zip(ours, classical):
                assert all(isinstance(c, int) for c in a.coeffs)
                b = [Fraction(int(c.p), int(c.q))
                     for c in reversed(b.all_coeffs())]
                assert _proportional_positive(list(a.coeffs), b), (a, b)

    def test_endpoints_that_are_roots(self):
        # roots -3/2, 1/2, 1, 4 and 0; (a, b] includes b and excludes a
        p = from_roots([(Fraction(-3, 2), 1), (Fraction(1, 2), 2), (1, 1),
                        (4, 1), (0, 1)])
        half = Fraction(1, 2)
        assert sturm_count(p, (half, 1)) == 1
        assert sturm_count(p, (0, half)) == 1
        assert sturm_count(p, (Fraction(-3, 2), 0)) == 1
        assert sturm_count(p, (-inf, Fraction(-3, 2))) == 1
        assert sturm_count(p, (4, inf)) == 0
        assert sturm_count(p, (1, 4)) == 1
        assert sturm_count(p, (half, half)) == 0
        assert sturm_count(-p, (-inf, 0)) == 2
        with pytest.raises(ValueError):
            sturm_count(p, (1, half))

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)),
                    max_size=4, unique_by=lambda t: t[0]),
           st.integers(-5, 5).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_constructed_profile(self, roots, scale):
        p = from_roots(roots) * poly(1, 0, 1) * scale
        expected = tuple(sum(1 for r, _ in roots if (r > 0) - (r < 0) == s)
                         for s in (-1, 0, 1))
        assert sign_profile(p) == expected
        assert sturm_count(p, (-inf, inf)) == len(roots)
        assert not is_real_rooted(p)
        assert integer_roots(p) == dict(roots)


class TestReportMatchesPublicApi:
    """root_report's single pass against the standalone functions."""

    def test_catalog_sample(self):
        graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
        for p in _catalog_polys(graphs):
            rep = root_report(p)
            assert (rep.negative_real, rep.zero_root, rep.positive_real) == \
                sign_profile(p)
            assert rep.real_rooted == is_real_rooted(p)
            assert rep.integer_roots == integer_roots(p)
            assert rep.complex_roots == \
                (tuple(complex_roots(p)) if p.degree >= 1 else ())


# -- certified numeric roots ---------------------------------------------------

def _disks(p: IntPoly, croots) -> tuple[bool, int, list[float]]:
    """(pairwise disjoint, number meeting the real axis, radii) of the
    Weierstrass inclusion disks of the distinct roots, recomputed on the
    squarefree part.

    |sf(z)| is evaluated by mpmath at 60 digits, far below its rounding
    level in floats; only the products of root differences are in floats.
    """
    sf = list(squarefree_part(p).coeffs)
    zs = [z for z, _ in croots]
    d = len(zs)
    assert d == len(sf) - 1
    with mpmath.workdps(60):
        values = [float(abs(mpmath.polyval(sf[::-1], mpmath.mpc(z))))
                  for z in zs]
    radii = []
    for k, z in enumerate(zs):
        gap = abs(math.prod((z - w for w in zs[:k] + zs[k + 1:]),
                            start=sf[-1]))
        radii.append(d * values[k] / gap if gap else inf)
    disjoint = all(abs(zs[k] - zs[j]) > radii[k] + radii[j]
                   for k in range(d) for j in range(k))
    return disjoint, sum(1 for z, r in zip(zs, radii) if abs(z.imag) <= r), \
        radii


def _assert_certified(p: IntPoly, where: str):
    rep = root_report(p)
    assert sum(m for _, m in rep.complex_roots) == p.degree, where
    if p.degree < 1:
        return
    disjoint, real, _ = _disks(p, rep.complex_roots)
    assert disjoint, where
    assert real == rep.negative_real + rep.zero_root + rep.positive_real, \
        where


# the nine n <= 6 edge-cover graphs, one charL, one charCycle and one
# chromatic polynomial on which an Aberth stop rule below the rounding level
# of the evaluation never converged
REGRESSION = [(g6, "edgeCover") for g6 in ("D~{", "EF~w", "EJ~w", "EL~w",
                                           "Er^w", "EN~w", "E]~w", "E^~w",
                                           "E~~w")] + \
    [("EIMw", "charL"), ("F?AZo", "charCycle"), ("E~~w", "chromatic")]


class TestCertifiedRoots:
    @pytest.mark.parametrize("g6,family", REGRESSION)
    def test_regression_corpus(self, g6, family):
        _assert_certified(family_polynomial(family, graph_from_graph6(g6)),
                          f"{g6} {family}")

    def test_k6_chromatic_integer_roots(self):
        rep = root_report(family_polynomial("chromatic",
                                            graph_from_graph6("E~~w")))
        assert rep.integer_roots == {r: 1 for r in range(6)}
        assert [m for _, m in rep.complex_roots] == [1] * 6
        for r, (z, _) in enumerate(rep.complex_roots):
            assert abs(z - r) <= 1e-12

    def test_sweep_every_univariate_family_n7(self, monkeypatch):
        # Newton-polygon starts keep every factor at n = 7 within 16 sweeps;
        # a single Cauchy-radius circle needed up to 92 (edgeCover of K7)
        # (root_report raises unless every factor certifies)
        monkeypatch.setattr(roots, "ABERTH_MAX_ITER", 20)
        reports = 0
        for g in _graphs_up_to(7):
            for fam in UNIVARIATE:
                p = family_polynomial(fam, g)
                if not p.is_zero():
                    _assert_certified(p, f"{graph_to_graph6(g)} {fam}")
                    reports += 1
        assert reports == 13563

    def test_start_circles_follow_root_moduli(self):
        p = from_roots([(10 ** k, 1) for k in range(5)])
        starts = sorted(abs(z) for z in
                        roots._start_points(roots._float_coeffs(p.coeffs)))
        for s, r in zip(starts, (10 ** k for k in range(5)), strict=True):
            assert r / 2 <= s <= 2 * r, (starts, r)

    def test_duplicated_iterates_raise(self, monkeypatch):
        # both iterates at sqrt(2): each passes the backward-error gate, but
        # the two inclusion disks are unbounded and overlap
        twice = [complex(math.sqrt(2))] * 2
        monkeypatch.setattr(roots, "_aberth", lambda coeffs: (twice, [0.0] * 2))
        p = poly(-2, 0, 1)
        assert all(backward_error(p, z) <= 1e-15 for z in twice)
        with pytest.raises(RootFindingError, match="overlap"):
            complex_roots(p)
        with pytest.raises(RootFindingError, match="overlap"):
            root_report(p)

    def test_real_count_disagreeing_with_sturm_raises(self, monkeypatch):
        exact = roots._profile

        def one_more(chain, zero):
            neg, zero, pos = exact(chain, zero)
            return neg, zero, pos + 1

        monkeypatch.setattr(roots, "_profile", one_more)
        for p in (poly(-2, 0, 1), poly(1, 0, 1), MIXED):
            with pytest.raises(RootFindingError, match="Sturm"):
                complex_roots(p)
            with pytest.raises(RootFindingError, match="Sturm"):
                root_report(p)

    # scaled by the largest coefficient, 1 / 10^400 is no normal float
    def test_leading_coefficient_below_float_range_raises(self):
        # a zero float leading coefficient divided by zero in the iteration
        with pytest.raises(RootFindingError, match="float range"):
            root_report(poly(10 ** 400, 1))

    def test_constant_term_below_float_range_raises(self):
        # a zero float constant term put the root -10^-400 at 0.0, beside
        # an exact zero-root count of 0
        with pytest.raises(RootFindingError, match="float range"):
            root_report(poly(1, 10 ** 400))


class TestMpmathOracle:
    def test_roots_match_polyroots(self):
        # every distinct grpoly root lies within its inclusion radius, or
        # 1e-8 relative (absolute below modulus 1), of its own mpmath root
        # of the squarefree part
        rng = random.Random(20131309)
        pairs = rng.sample([(g, fam) for g in _graphs_up_to(7)
                            for fam in UNIVARIATE], 250)
        checked = 0
        for g, fam in pairs:
            p = family_polynomial(fam, g)
            if p.is_zero() or p.degree < 1:
                continue
            croots = complex_roots(p)
            disjoint, _, radii = _disks(p, croots)
            assert disjoint, (graph_to_graph6(g), fam)
            sf = list(squarefree_part(p).coeffs)
            with mpmath.workdps(40):
                oracle = [complex(w) for w in mpmath.polyroots(
                    sf[::-1], maxsteps=400, extraprec=200)]
            assert len(oracle) == len(croots)
            for (z, _), r in zip(croots, radii):
                w = min(oracle, key=lambda w: abs(z - w))
                assert abs(z - w) <= max(r, 1e-8 * max(1.0, abs(w))), \
                    (graph_to_graph6(g), fam, z, w, r)
                oracle.remove(w)
            checked += 1
        assert checked > 200


class TestScatterCommand:
    def test_charl_edge_cover_n6(self, capsys):
        rows = 0
        for fam in ("charL", "edgeCover"):
            assert main(["scatter", "--family", fam, "--enum", "6"]) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            assert header == "re,im,modulus,graph6,family"
            rows += len(lines)
        degrees = sum(family_polynomial(fam, g).degree
                      for fam in ("charL", "edgeCover")
                      for g in enumerate_graphs(6)
                      if not family_polynomial(fam, g).is_zero())
        assert rows == degrees == 1936


class TestRootSweepScript:
    def test_n5_certifies(self):
        repo = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(repo / "scripts" / "root_sweep.py"),
             "--nmax", "5"], capture_output=True, text=True, cwd=repo)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        reports = sum(1 for n in range(1, 6) for g in enumerate_graphs(n)
                      for fam in UNIVARIATE
                      if not family_polynomial(fam, g).is_zero())
        assert lines[:2] == [f"reports: {reports}", "RootFindingError: 0"]
        assert reports == 553
        assert lines[2].startswith("wall: ") and len(lines) == 3
