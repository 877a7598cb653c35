"""The graph-polynomial catalog.

Every family is computed exactly: characteristic polynomials of the
adjacency/Laplacian/cycle matrices by Faddeev-LeVerrier over arbitrary
precision integers, the matching family by the delete/shrink recursion on
edges, the chromatic polynomial by memoized deletion-contraction, the Tutte
polynomial by memoized deletion-contraction over parallel-edge bundles, and the
subset-counting families (independence, clique, vertex cover, domination,
edge cover) by direct predicate counting.  Family names double as the stable
CLI/JSON identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence, Union

from .graphs import (Graph, canonical_form, complement, connected_components,
                     graph, induced_subgraph, similarity_triple)
from .polynomials import IntPoly, MultiPoly, ONE, reverse_coefficients

CHROMATIC_MAX_N = 10
TUTTE_MAX_N = 9
SUBSET_CAP_BITS = 24

FAMILY_NAMES = ("charA", "charL", "charCycle", "matchingDefect",
                "matchingGen", "matchingBiv", "chromatic", "tutte",
                "independence", "clique", "vertexCover", "domination",
                "edgeCover")

FAMILY_ARITY = {name: 2 if name in ("tutte", "matchingBiv") else 1
                for name in FAMILY_NAMES}


# -- graph matrices -----------------------------------------------------------

def adjacency_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    return tuple(tuple(r) for r in rows)


def laplacian_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = -1
        rows[u][u] += 1
        rows[v][v] += 1
    return tuple(tuple(r) for r in rows)


def _shortest_cycle_through(g: Graph, u: int, v: int) -> int:
    """Length of the shortest cycle containing edge (u,v); 1 if none exists.

    A shortest proper cycle through the edge is the edge plus a shortest
    u-v path avoiding it, found by BFS in G minus that edge.
    """
    masks = list(g.adjacency_masks())
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            mask = masks[w]
            for x in range(g.n):
                if mask >> x & 1 and x not in dist:
                    dist[x] = dist[w] + 1
                    if x == v:
                        return dist[x] + 1
                    nxt.append(x)
        frontier = nxt
    return 1


def cycle_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        c = _shortest_cycle_through(g, u, v)
        rows[u][v] = rows[v][u] = c
    for v in range(g.n):
        rows[v][v] = g.degree(v)
    return tuple(tuple(r) for r in rows)


def _char_poly_of_matrix(entries: Sequence[Sequence[int]]) -> IntPoly:
    """det(X*I - M) by the Faddeev-LeVerrier recurrence; exact integers."""
    n = len(entries)
    a = [list(row) for row in entries]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A*M_{k-1} + c_{n-k+1} * I
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        for i in range(n):
            am[i][i] += coeffs[n - k + 1]
        m = am
        trace = sum(a[i][t] * m[t][i] for i in range(n) for t in range(n))
        q, r = divmod(-trace, k)
        assert r == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[n - k] = q
    return IntPoly(tuple(coeffs))


def char_poly(g: Graph, kind: str) -> IntPoly:
    if kind == "adjacency":
        mat = adjacency_matrix(g)
    elif kind == "laplacian":
        mat = laplacian_matrix(g)
    elif kind == "cycle":
        mat = cycle_matrix(g)
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return _char_poly_of_matrix(mat)


def spanning_tree_count(g: Graph) -> int:
    """Spanning trees, read off the Laplacian characteristic polynomial.

    For a connected graph the product of the nonzero Laplacian eigenvalues is
    n times the tree count; in coefficients: |c_1| / n.  Disconnected graphs
    have c_1 = 0 and no spanning tree.
    """
    p = char_poly(g, "laplacian")
    c1 = p.coeff(1)
    if c1 == 0:
        return 0
    q, r = divmod(abs(c1), g.n)
    assert r == 0, "Laplacian tree-count division must be exact"
    return q


# -- matchings ------------------------------------------------------------------

def matching_counts(g: Graph) -> tuple[int, ...]:
    """(m_0, m_1, ...): number of k-edge matchings, via m(G)=m(G-e)+m(G-{u,v})."""
    def rec(edges: tuple[tuple[int, int], ...]) -> list[int]:
        if not edges:
            return [1]
        (u, v), rest = edges[0], edges[1:]
        skip = rec(rest)
        use = rec(tuple(e for e in rest if u not in e and v not in e))
        out = skip + [0] * (len(use) + 1 - len(skip))
        for i, c in enumerate(use):
            out[i + 1] += c
        return out

    counts = rec(tuple(g.sorted_edges()))
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def matching_poly(g: Graph, variant: str) -> Union[IntPoly, MultiPoly]:
    """Matching polynomial: 'defect', 'generating' or 'bivariate' form."""
    counts = matching_counts(g)
    if variant == "generating":
        return IntPoly(counts)
    if variant == "defect":
        coeffs = [0] * (g.n + 1)
        for k, mk in enumerate(counts):
            coeffs[g.n - 2 * k] = (-1) ** k * mk
        return IntPoly(tuple(coeffs))
    if variant == "bivariate":
        return MultiPoly.from_dict(
            2, {(k, g.n - 2 * k): mk for k, mk in enumerate(counts)})
    raise ValueError(f"unknown matching variant {variant!r}")


# -- chromatic -------------------------------------------------------------------

_CHROMATIC_CACHE: dict[bytes, tuple[int, ...]] = {}


def _falling_factorial_coeffs(n: int) -> tuple[int, ...]:
    p = ONE
    for i in range(n):
        p = p * IntPoly((-i, 1))
    return p.coeffs


def _contract_edge(g: Graph, u: int, v: int) -> Graph:
    # merge v into u, drop parallel duplicates (harmless for colorings)
    def relabel(w: int) -> int:
        if w == v:
            return u
        return w - 1 if w > v else w

    edges = set()
    for a, b in g.edges:
        if (a, b) == (min(u, v), max(u, v)):
            continue
        x, y = relabel(a), relabel(b)
        if x != y:
            edges.add((min(x, y), max(x, y)))
    return graph(g.n - 1, edges)


def _chromatic_connected(g: Graph) -> tuple[int, ...]:
    if g.m == 0:
        return IntPoly((0, 1)).coeffs if g.n == 1 else tuple(
            [0] * g.n + [1])
    if g.m == comb(g.n, 2):
        return _falling_factorial_coeffs(g.n)
    key = canonical_form(g)
    hit = _CHROMATIC_CACHE.get(key)
    if hit is not None:
        return hit
    u, v = min(g.edges)
    minus = Graph(g.n, g.edges - {(u, v)})
    deleted = IntPoly(_chromatic(minus))
    contracted = IntPoly(_chromatic_connected(_contract_edge(g, u, v)))
    result = (deleted - contracted).coeffs
    _CHROMATIC_CACHE[key] = result
    return result


def _chromatic(g: Graph) -> tuple[int, ...]:
    comps = connected_components(g)
    if len(comps) == 1:
        return _chromatic_connected(g)
    acc = ONE
    for comp in comps:
        acc = acc * IntPoly(_chromatic_connected(induced_subgraph(g, comp)))
    return acc.coeffs


def chromatic_poly(g: Graph) -> IntPoly:
    """Proper-coloring counting polynomial by deletion-contraction."""
    if g.n > CHROMATIC_MAX_N:
        raise ValueError(f"chromatic_poly supports n <= {CHROMATIC_MAX_N}")
    return IntPoly(_chromatic(g))


# -- Tutte -----------------------------------------------------------------------

def _joined(bundles: tuple, u: int, v: int) -> bool:
    """Is v reachable from u along the given bundles?"""
    adj: dict[int, list[int]] = {}
    for (a, b), _ in bundles:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {u}
    stack = [u]
    while stack:
        for x in adj.get(stack.pop(), ()):
            if x == v:
                return True
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return False


def _tutte(bundles: tuple, memo: dict) -> dict[tuple[int, int], int]:
    if not bundles:
        return {(0, 0): 1}
    hit = memo.get(bundles)
    if hit is not None:
        return hit
    (u, v), k = bundles[0]
    rest = bundles[1:]
    merged: dict[tuple[int, int], int] = {}
    for (a, b), c in rest:  # contract v into u
        a, b = (u if a == v else a), (u if b == v else b)
        key = (a, b) if a < b else (b, a)
        merged[key] = merged.get(key, 0) + c
    bridge = not _joined(rest, u, v)
    out = {} if bridge else dict(_tutte(rest, memo))
    for (i, j), c in _tutte(tuple(sorted(merged.items())), memo).items():
        head = (i + 1, j) if bridge else (i, j)  # x or 1
        out[head] = out.get(head, 0) + c
        for t in range(1, k):  # y + ... + y^(k-1)
            out[i, j + t] = out.get((i, j + t), 0) + c
    memo[bundles] = out
    return out


def tutte_poly(g: Graph) -> MultiPoly:
    """Tutte polynomial by deletion-contraction over parallel-edge bundles.

    Intermediates are loopless multigraphs held as sorted tuples of bundles
    ((u, v), k): k parallel u-v edges.  Removing a whole bundle B at once,
    T(G) = T(G-B) + (1 + y + ... + y^(k-1)) T(G/B) when u and v stay joined
    without B, and T(G) = (x + y + ... + y^(k-1)) T(G/B) when B is a bridge
    bundle.  B holds every u-v edge, so contracting it makes no loops.
    Results are memoized on the bundle tuple for the duration of one call and
    kept as {(i, j): coefficient} dicts until the final MultiPoly.
    """
    if g.n > TUTTE_MAX_N:
        raise ValueError(f"tutte_poly supports n <= {TUTTE_MAX_N}")
    bundles = tuple((e, 1) for e in sorted(g.edges))
    return MultiPoly.from_dict(2, _tutte(bundles, {}))


def universal_tutte_check(g: Graph, point: Sequence[Fraction]) -> bool:
    """Consistency of the five-variable prefactor form of the Tutte polynomial.

    At an exact rational point (X, Y, U, V, W) with U, W nonzero, compares
    U^k V^nu W^rho T(G; UX/W, Y/U) evaluated from the stored bivariate Tutte
    polynomial against the direct monomial expansion with exponents
    (i, j, k+i-j, nu, rho-i).
    """
    x, y, u, v, w = (Fraction(c) for c in point)
    if u == 0 or w == 0:
        raise ZeroDivisionError("U and W must be nonzero")
    t = similarity_triple(g)
    tut = tutte_poly(g)
    lhs = (u ** t.k * v ** t.nu * w ** t.rho
           * tut.evaluate((u * x / w, y / u)))
    rhs = Fraction(0)
    for (i, j), c in tut.terms:
        rhs += (c * x ** i * y ** j * u ** (t.k + i - j) * v ** t.nu
                * w ** (t.rho - i))
    return lhs == rhs


# -- subset-counting families -----------------------------------------------------

SUBSET_FAMILIES = ("independence", "clique", "vertexCover", "domination",
                   "edgeCover")


def subset_counting_poly(g: Graph, family: str) -> IntPoly:
    """Coefficient i counts the qualifying i-element subsets.

    The empty set counts per its predicate: it is independent and a clique,
    covers the edges only when there are none, and never dominates or covers
    the vertices of a nonempty graph.
    """
    if family == "edgeCover":
        if g.m > SUBSET_CAP_BITS:
            raise ValueError(f"edge cover cap is m <= {SUBSET_CAP_BITS}")
        return _edge_cover_poly(g)
    if family not in SUBSET_FAMILIES:
        raise ValueError(f"unknown subset family {family!r}")
    if g.n > SUBSET_CAP_BITS:
        raise ValueError(f"subset family cap is n <= {SUBSET_CAP_BITS}")
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    counts = [0] * (g.n + 1)
    for s in range(1 << g.n):
        size = bin(s).count("1")
        if family == "independence":
            ok = all(not masks[v] & s for v in range(g.n) if s >> v & 1)
        elif family == "clique":
            ok = all((masks[v] & s) == s & ~(1 << v)
                     for v in range(g.n) if s >> v & 1)
        elif family == "vertexCover":
            ok = all(s >> u & 1 or s >> v & 1 for u, v in g.edges)
        else:  # domination
            ok = all(s >> v & 1 or masks[v] & s for v in range(g.n))
        if ok:
            counts[size] += 1
    return IntPoly(tuple(counts))


def _edge_cover_poly(g: Graph) -> IntPoly:
    """Edge covers counted by inclusion-exclusion over missed vertex sets.

    Edge sets avoiding a vertex set T are exactly the subsets of the edges
    induced on V-T, so e_i = sum_T (-1)^|T| C(m(V-T), i).
    """
    edge_masks = [(1 << u) | (1 << v) for u, v in g.sorted_edges()]
    counts = [0] * (g.m + 1)
    for t in range(1 << g.n):
        inside = sum(1 for em in edge_masks if not em & t)
        sign = -1 if bin(t).count("1") % 2 else 1
        for i in range(inside + 1):
            counts[i] += sign * comb(inside, i)
    return IntPoly(tuple(counts))


# -- identities -------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    clique_matches_complement_independence: bool
    vertex_cover_matches_reversed_independence: bool
    independence_at_one: int
    clique_at_one: int
    vertex_cover_at_one: int
    mismatches: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (self.clique_matches_complement_independence
                and self.vertex_cover_matches_reversed_independence)

    def counts_without_empty_set(self) -> dict[str, int]:
        """The same evaluations under the convention that drops the empty set."""
        return {
            "independence_at_one": self.independence_at_one - 1,
            "clique_at_one": self.clique_at_one - 1,
            "vertex_cover_at_one": self.vertex_cover_at_one,
        }


def catalog_identities(g: Graph) -> IdentityReport:
    """Exact checks Cl(G) = In(complement G) and Vc(G) = X^n In(G; 1/X)."""
    ind = subset_counting_poly(g, "independence")
    cli = subset_counting_poly(g, "clique")
    vc = subset_counting_poly(g, "vertexCover")
    mismatches = []
    cl_expected = subset_counting_poly(complement(g), "independence")
    if cli != cl_expected:
        mismatches.append(
            f"clique {list(cli.coeffs)} != complement independence "
            f"{list(cl_expected.coeffs)}")
    vc_expected = reverse_coefficients(ind, g.n)
    if vc != vc_expected:
        mismatches.append(
            f"vertexCover {list(vc.coeffs)} != reversed independence "
            f"{list(vc_expected.coeffs)}")
    at1 = lambda p: sum(p.coeffs)
    return IdentityReport(
        clique_matches_complement_independence=cli == cl_expected,
        vertex_cover_matches_reversed_independence=vc == vc_expected,
        independence_at_one=at1(ind),
        clique_at_one=at1(cli),
        vertex_cover_at_one=at1(vc),
        mismatches=tuple(mismatches),
    )


# -- family registry ----------------------------------------------------------------

_FAMILY_FUNCS: dict[str, Callable[[Graph], Union[IntPoly, MultiPoly]]] = {
    "charA": lambda g: char_poly(g, "adjacency"),
    "charL": lambda g: char_poly(g, "laplacian"),
    "charCycle": lambda g: char_poly(g, "cycle"),
    "matchingDefect": lambda g: matching_poly(g, "defect"),
    "matchingGen": lambda g: matching_poly(g, "generating"),
    "matchingBiv": lambda g: matching_poly(g, "bivariate"),
    "chromatic": chromatic_poly,
    "tutte": tutte_poly,
    "independence": lambda g: subset_counting_poly(g, "independence"),
    "clique": lambda g: subset_counting_poly(g, "clique"),
    "vertexCover": lambda g: subset_counting_poly(g, "vertexCover"),
    "domination": lambda g: subset_counting_poly(g, "domination"),
    "edgeCover": lambda g: subset_counting_poly(g, "edgeCover"),
}


def family_polynomial(name: str, g: Graph) -> Union[IntPoly, MultiPoly]:
    try:
        fn = _FAMILY_FUNCS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: "
                         f"{', '.join(FAMILY_NAMES)}") from None
    return fn(g)
