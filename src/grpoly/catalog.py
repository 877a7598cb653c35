"""The graph-polynomial catalog.

Every family is computed exactly: characteristic polynomials of the
adjacency/Laplacian/cycle matrices by Faddeev-LeVerrier with each matrix row
packed into one integer, the matching family by the delete/shrink recursion on
edges, memoized on the remaining edges, the Tutte polynomial by memoized
deletion-contraction over parallel-edge bundles, and the chromatic polynomial
and the subset-counting families (independence, clique, vertex cover,
domination, edge cover) from tables over the 2^n vertex subsets, each entry
filled from the entry with the lowest vertex removed.  Family names double as
the stable CLI/JSON identifiers.

Two kernels are read by several families: the matching counts (the three
matching forms) and the independent-set table (chromatic, independence,
vertex cover).  Each is computed on its first use and kept on the ``Graph``,
beside its ``masks``, so it lives exactly as long as the graph and takes no
part in its equality, hash or repr; there is no other cache of them.  Both
are immutable (a tuple and a bytes).  Family values themselves are computed
afresh on every call.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import chain, compress, count
from math import comb
from typing import Callable, Iterable, Sequence, TypeVar, Union

from .graphs import Graph, complement, component_count
from .polynomials import FALLING, POWER, IntPoly, MultiPoly, convert_basis

CHROMATIC_MAX_N = 10
TUTTE_MAX_N = 12
SUBSET_CAP_BITS = 24

FAMILY_NAMES = ("charA", "charL", "charCycle", "matchingDefect",
                "matchingGen", "matchingBiv", "chromatic", "tutte",
                "independence", "clique", "vertexCover", "domination",
                "edgeCover")

FAMILY_ARITY = {name: 2 if name in ("tutte", "matchingBiv") else 1
                for name in FAMILY_NAMES}

T = TypeVar("T")


def _kept(g: Graph, key: str, build: Callable[[Graph], T]) -> T:
    """build(g), computed on the first call and then kept on g under key,
    the way ``Graph.masks`` is kept; build must return an immutable value."""
    kept = g.__dict__
    if key not in kept:
        kept[key] = build(g)
    return kept[key]


# -- graph matrices -----------------------------------------------------------

def _matrix(g: Graph, edge: Callable[[int, int], int],
            diagonal: Callable[[int], int]) -> tuple[tuple[int, ...], ...]:
    """Symmetric matrix with edge(u, v) at each edge and diagonal(v) on the
    diagonal; every other entry is 0."""
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = edge(u, v)
    for v in range(g.n):
        rows[v][v] = diagonal(v)
    return tuple(tuple(r) for r in rows)


def adjacency_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    return _matrix(g, lambda u, v: 1, lambda v: 0)


def laplacian_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    return _matrix(g, lambda u, v: -1, g.degree)


def _shortest_cycle_through(g: Graph, u: int, v: int) -> int:
    """Length of the shortest cycle containing edge (u,v); 1 if none exists.

    A shortest proper cycle through the edge is the edge plus a shortest
    u-v path avoiding it, found by BFS in G minus that edge.
    """
    masks = list(g.masks)
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
    return _matrix(g, partial(_shortest_cycle_through, g), g.degree)


def _char_poly_of_matrix(entries: Sequence[Sequence[int]]) -> IntPoly:
    """det(X*I - A) by the Faddeev-LeVerrier recurrence on packed rows.

    M_1 = I; each step forms AM = A*M_k, reads c_{n-k} = -tr(AM)/k and sets
    M_{k+1} = AM + c_{n-k}*I.  Each row of M_k is one int with entry j in a
    signed w-bit slot at bit w*j, so a row of A*M_k is a sum of whole rows,
    one multiply-add per nonzero of A.  Slot i of row i is read after adding
    2^(w-1) to every slot, which makes every slot non-negative and stops the
    borrows of negative entries.

    The slots never overflow.  Let r be the largest absolute row sum of A.
    Every entry of A^p is at most r^p in absolute value, and every eigenvalue
    lies in |z| <= r (Gershgorin), so |c_{n-j}| <= C(n,j) r^j.  A*M_k is the
    sum of c_{n-j} A^(k-j) over j < k (c_n = 1), so its entries, and those of
    M_{k+1}, are at most sum_j C(n,j) r^k <= 2^n r^n in absolute value.  That
    is at most 2^(w-2) for w = n(1 + bit_length(r)) + 2, and a signed w-bit
    slot holds every |x| < 2^(w-1).
    """
    n = len(entries)
    r = max((sum(map(abs, row)) for row in entries), default=0)
    w = n * (1 + r.bit_length()) + 2
    nonzero = [[(a, t) for t, a in enumerate(row) if a] for row in entries]
    unit = [1 << w * i for i in range(n)]
    lift, half, mask = sum(unit) << w - 1, 1 << w - 1, (1 << w) - 1
    coeffs = [0] * n + [1]
    m = unit
    for k in range(1, n + 1):
        am = [sum(a * m[t] for a, t in row) for row in nonzero]
        trace = sum(((x + lift) >> w * i & mask) - half
                    for i, x in enumerate(am))
        c, rem = divmod(-trace, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[n - k] = c
        m = [x + c * u for x, u in zip(am, unit)]
    return IntPoly(tuple(coeffs))


_MATRICES = {"adjacency": adjacency_matrix, "laplacian": laplacian_matrix,
             "cycle": cycle_matrix}


def char_poly(g: Graph, kind: str) -> IntPoly:
    if kind not in _MATRICES:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return _char_poly_of_matrix(_MATRICES[kind](g))


def spanning_tree_count(g: Graph) -> int:
    """Spanning trees, read off the Laplacian characteristic polynomial.

    For a connected graph the product of the nonzero Laplacian eigenvalues is
    n times the tree count; in coefficients: |c_1| / n.  Disconnected graphs
    have c_1 = 0 and no spanning tree.
    """
    p = char_poly(g, "laplacian")
    q, r = divmod(abs(p.coeff(1)), g.n)
    assert r == 0, "Laplacian tree-count division must be exact"
    return q


# -- matchings ------------------------------------------------------------------

def matching_counts(g: Graph) -> tuple[int, ...]:
    """(m_0, m_1, ...): number of k-edge matchings, via m(G)=m(G-e)+m(G-{u,v}).

    Computed once per graph and kept on it, so the defect, generating and
    bivariate forms of one graph share one count.
    """
    return _kept(g, "matching_counts", _matching_counts)


def _matching_counts(g: Graph) -> tuple[int, ...]:
    """The counts of ``matching_counts``.  e is the first remaining edge;
    memoized on the mask of remaining edges, with a stack for recursion, so a
    path takes linearly many steps."""
    edges = g.sorted_edges()
    incident = [0] * g.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    top = (1 << len(edges)) - 1
    memo: dict[int, list[int]] = {0: [1]}
    stack = [top]
    while top not in memo:
        left = stack.pop()
        low = left & -left
        u, v = edges[low.bit_length() - 1]
        rest = left ^ low
        used = rest & ~(incident[u] | incident[v])
        if rest not in memo or used not in memo:
            stack += [left] + [t for t in (rest, used) if t not in memo]
            continue
        skip, use = memo[rest], memo[used]
        out = skip + [0] * (len(use) + 1 - len(skip))
        for i, c in enumerate(use):
            out[i + 1] += c
        memo[left] = out
    return tuple(memo[top])


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
            {(k, g.n - 2 * k): mk for k, mk in enumerate(counts)})
    raise ValueError(f"unknown matching variant {variant!r}")


# -- chromatic -------------------------------------------------------------------

def chromatic_poly(g: Graph) -> IntPoly:
    """Proper-coloring counting polynomial from partitions into independent sets.

    The number a_j of partitions of V into j independent sets is the
    coefficient of X(X-1)...(X-j+1) in P(G; X) (Bjorklund, Husfeldt & Koivisto
    2009).  parts[s] counts the partitions of the vertex set s: the block that
    holds the lowest vertex v of s is v plus an independent set t of v's
    non-neighbours in s, and the rest of s is partitioned on its own.  The
    sets read for s lie inside s less its lowest vertex, so from V (lowest
    vertex 0) and from the sets without vertex 0 only sets without vertex 0
    are read: parts is filled for those 2^(n-1) sets and then for V alone,
    each at index (s + 1) >> 1.  The counts of one set are packed into one
    int, a_j in bits 32j..32j+31; each is at most Bell(10) < 2^17, so no slot
    carries into the next.  The independent-set table is the one kept on g.
    """
    if g.n > CHROMATIC_MAX_N:
        raise ValueError(f"chromatic_poly supports n <= {CHROMATIC_MAX_N}")
    indep, full = _independent_sets(g), (1 << g.n) - 1
    parts = [1] * ((1 << g.n - 1) + 1)  # parts[0]: the empty partition
    for s in chain(range(2, full, 2), (full,)):
        low = s & -s
        rest = s ^ low
        free = rest & ~g.masks[low.bit_length() - 1]
        total, t = parts[rest >> 1], free  # t = 0 is always independent
        while t:
            if indep[t]:
                total += parts[(rest ^ t) >> 1]
            t = (t - 1) & free
        parts[(s + 1) >> 1] = total << 32
    counts = [parts[-1] >> 32 * j & 0xFFFFFFFF for j in range(g.n + 1)]
    return IntPoly(convert_basis(counts, FALLING, POWER))


# -- Tutte -----------------------------------------------------------------------

def tutte_poly(g: Graph) -> MultiPoly:
    """Tutte polynomial by deletion-contraction over parallel-edge bundles.

    Removing the whole bundle B of k parallel u-v edges at once,
    T(G) = T(G-B) + (1 + y + ... + y^(k-1)) T(G/B) when u and v stay joined
    without B, and T(G) = (x + y + ... + y^(k-1)) T(G/B) when B is a bridge
    bundle.  B holds every u-v edge, so contracting it makes no loops; when
    u or v has no other edge, G/B is G-B with that vertex left isolated.  B
    is the lowest bundle of the lowest vertex u that has one.

    Each loopless multigraph minor is a tuple of per-vertex rows, row u an
    int with the multiplicity of u-v in the b-bit slot at bit b*v, and the
    tuple is the memo key for the duration of one call.  Contracting v into u
    adds row v to row u and moves slot v of every other row to slot u; the
    bridge test is a breadth-first search over rows, which finds the
    occupied slots of a row all at once by adding 2^(b-1) - 1 to each slot
    and reading the slots' top bits.  A result is one int with the
    coefficient of x^i y^j in the w-bit slot at bit w*(i*(nu+1) + j), so a
    step is one multiply and at most one add.

    The slots never overflow.  A multiplicity is at most m < 2^(b-1) for
    b = bit_length(m) + 1, which keeps each slot's top bit clear.  The
    coefficients of a minor are non-negative and sum to at most
    T(minor; 2, 2) = 2^(edges) <= 2^m < 2^w for w = m + 1, and every slot
    of a step's sum or product holds a partial sum of coefficients of
    T(G).  Minors have rank at most r and nullity at most nu, those of G, so
    no y-power reaches the next x-power's slots.

    ``tests/oracles.py`` keeps the bundle recursion over dicts of terms,
    ``tutte_bundles_reference``, that this replaced.
    """
    if g.n > TUTTE_MAX_N:
        raise ValueError(f"tutte_poly supports n <= {TUTTE_MAX_N}")
    n, m = g.n, g.m
    r = n - component_count(g)
    nu = m - r
    b, w = m.bit_length() + 1, m + 1
    slot = (1 << b) - 1
    ones = sum(1 << b * v for v in range(n))
    probe, top = ones * (slot >> 1), ones << b - 1
    x = 1 << (nu + 1) * w
    ys = [0]  # ys[k] = 1 + y + ... + y^(k-1)
    for k in range(m):
        ys.append(ys[-1] | 1 << k * w)
    memo = {(0,) * n: 1}

    def tutte(rows: tuple[int, ...]) -> int:
        hit = memo.get(rows)
        if hit is not None:
            return hit
        u = 0
        while not rows[u]:
            u += 1
        ru = rows[u]
        occupied = ru + probe & top
        vbit = occupied & -occupied
        v = vbit.bit_length() // b - 1
        su, sv = b * u, b * v
        k = ru >> sv & slot
        dele = list(rows)
        dele[u] = ru = ru - (k << sv)
        dele[v] = rv = rows[v] - (k << su)
        con, joined = dele, False  # a pendant bundle: G/B is G-B
        if ru and rv:
            con = dele.copy()
            con[u], con[v] = ru + rv, 0
            occupied = rv + probe & top
            while occupied:
                p = occupied & -occupied
                occupied ^= p
                t = p.bit_length() // b - 1
                c = con[t] >> sv & slot
                con[t] += (c << su) - (c << sv)
            seen, stack = 1 << su + b - 1, [u]
            while stack and not joined:
                reach = (dele[stack.pop()] + probe & top) & ~seen
                joined = reach & vbit
                seen |= reach
                while reach:
                    p = reach & -reach
                    reach ^= p
                    stack.append(p.bit_length() // b - 1)
        if joined:
            out = tutte(tuple(dele)) + tutte(tuple(con)) * ys[k]
        else:
            out = tutte(tuple(con)) * (x + ys[k] - 1)
        memo[rows] = out
        return out

    rows = [0] * n
    for u, v in g.edges:
        rows[u] |= 1 << b * v
        rows[v] |= 1 << b * u
    t, mask = tutte(tuple(rows)), (1 << w) - 1
    return MultiPoly.from_dict({divmod(s, nu + 1): t >> w * s & mask
                                for s in range((r + 1) * (nu + 1))})


# -- subset-counting families -----------------------------------------------------

SUBSET_FAMILIES = ("independence", "clique", "vertexCover", "domination",
                   "edgeCover")


def subset_counting_poly(g: Graph, family: str) -> IntPoly:
    """Coefficient i counts the qualifying i-element subsets.

    The empty set counts per its predicate: it is independent and a clique,
    covers the edges only when there are none, and never dominates or covers
    the vertices of a nonempty graph.  Each family reads one table over the
    2^n vertex subsets, filled in the order of s from the entry for s with its
    lowest vertex removed.
    """
    if family not in SUBSET_FAMILIES:
        raise ValueError(f"unknown subset family {family!r}")
    if g.n > SUBSET_CAP_BITS:
        raise ValueError(f"subset family cap is n <= {SUBSET_CAP_BITS}")
    if family == "edgeCover":
        return _edge_cover_poly(g)
    if family == "independence":
        return IntPoly(_size_counts(g.n, _independent_sets(g)))
    if family == "clique":
        return IntPoly(_size_counts(g.n, _independence_table(complement(g))))
    if family == "vertexCover":
        return IntPoly(_size_counts(g.n, _independent_sets(g))[::-1])
    # domination: closed[s] is the closed neighbourhood N[s]
    full = (1 << g.n) - 1
    closed = array("I", [0]) * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        closed[s] = closed[s ^ low] | g.masks[low.bit_length() - 1] | low
    return IntPoly(_size_counts(g.n, map(full.__eq__, closed)))


def _independent_sets(g: Graph) -> bytes:
    """g's independent-set table, computed once per graph and kept on it."""
    return _kept(g, "independent_sets", _independence_table)


def _independence_table(g: Graph) -> bytes:
    """indep[s] is 1 iff the vertex set s is independent."""
    masks = g.masks
    indep = bytearray(1 << g.n)
    indep[0] = 1
    for s in range(1, len(indep)):
        low = s & -s
        indep[s] = indep[s ^ low] and not masks[low.bit_length() - 1] & s
    return bytes(indep)


def _size_counts(n: int, table: Iterable) -> tuple[int, ...]:
    """Counts by size of the vertex sets s whose table[s] is true."""
    counts = [0] * (n + 1)
    for s in compress(count(), table):
        counts[s.bit_count()] += 1
    return tuple(counts)


def _edge_cover_poly(g: Graph) -> IntPoly:
    """Edge covers counted by inclusion-exclusion over missed vertex sets.

    Edge sets avoiding a vertex set T are exactly the subsets of the edges
    induced on V-T, so e_i = sum_T (-1)^|T| C(m(V-T), i).  inside[s] is the
    number of edges induced on s = V-T; signed[k] sums (-1)^|T| over the s
    with k induced edges.
    """
    inside = array("H", [0]) * (1 << g.n)  # m <= C(24, 2) < 2^16
    signed = [0] * (g.m + 1)
    signed[0] = (-1) ** g.n
    for s in range(1, 1 << g.n):
        low = s & -s
        v = low.bit_length() - 1
        inside[s] = inside[s ^ low] + (g.masks[v] & s).bit_count()
        signed[inside[s]] += -1 if (g.n - s.bit_count()) % 2 else 1
    return IntPoly(tuple(sum(c * comb(k, i) for k, c in enumerate(signed))
                         for i in range(g.m + 1)))


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
