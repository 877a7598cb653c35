"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force and shares no code with the
library paths it checks: determinants by fraction Gaussian elimination,
isomorphism by permutation search, colorings/matchings/covers by direct
subset enumeration, class counts by the orbit-counting formula, tree shapes
by decoding every Prüfer sequence, colour refinement by sorted signature
tuples, the sign, parity and scale transforms by general composition.  Three
are exceptions, the library's own algorithms kept as references for the
faster versions that replaced them: the Tutte bundle recursion over dicts of
terms, the canonical search that searched twin cells too, and the
density-witness search over Fractions.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from grpoly.graphs import Graph, SimilarityTriple, connected_components, graph
from grpoly.polynomials import IntPoly, MultiPoly, substitute
from grpoly.transforms import TransformRecord


def det_fractions(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by plain Gaussian elimination over Fraction."""
    n = len(rows)
    m = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def _polymul_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def char_poly_oracle(entries) -> IntPoly:
    """det(tI - M) at t = 0..n, interpolated exactly (Lagrange over Q)."""
    n = len(entries)
    xs = [Fraction(t) for t in range(n + 1)]
    ys = [det_fractions([[(x if i == j else Fraction(0)) - entries[i][j]
                          for j in range(n)] for i in range(n)])
          for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n + 1):
            if j == i:
                continue
            num = _polymul_q(num, [-xs[j], Fraction(1)])
            denom *= xs[i] - xs[j]
        for d, c in enumerate(num):
            coeffs[d] += ys[i] * c / denom
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(tuple(int(c) for c in coeffs))


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    bedges = b.edges
    for perm in permutations(range(a.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in bedges
               for u, v in a.edges) :
            return True
    return False


def refine_cells_reference(n: int, masks) -> list[list[int]]:
    """Colour refinement on sorted tuples; the reference for ``_refine_cells``.

    Each round a vertex's signature is its colour and the sorted tuple of its
    neighbours' colours; the new colour is the signature's rank.  Stops when a
    round changes no colour; cells come in colour order.
    """
    color = [0] * n
    while True:
        sigs = []
        for v in range(n):
            row = masks[v]
            nb = sorted(color[u] for u in range(n) if row >> u & 1)
            sigs.append((color[v], tuple(nb)))
        order = sorted(set(sigs))
        newcolor = [order.index(s) for s in sigs]
        if newcolor == color:
            break
        color = newcolor
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canon_search_reference(n: int, masks) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical key and automorphism generators; the reference for
    ``graphs._canon_search``.

    The library's search before it skipped twin cells: a DFS over every
    vertex order that respects the cells of ``refine_cells_reference``,
    keeping the least key, pruned against the best key's top bits and at
    twins already tried.  A discrete partition walks its one branch.
    """
    cells = refine_cells_reference(n, masks)
    total = n * (n - 1) // 2
    cell_of_pos = [cell for cell in cells for _ in cell]
    best = 1 << total  # above every key, and its top bits above every prefix
    best_order: list[int] = []
    autos: set[tuple[int, ...]] = set()
    placed, used = [0] * n, [False] * n

    def dfs(i: int, prefix: int):
        nonlocal best, best_order
        tried, shift = [], total - i * (i + 1) // 2  # key bits after column i
        for v in cell_of_pos[i]:
            if used[v]:
                continue
            # a twin u of v already tried here gives the automorphism (u v),
            # which fixes the placed prefix, so v's subtree repeats u's
            twin = next((u for u in tried if (masks[u] ^ masks[v])
                         & ~(1 << u | 1 << v) == 0), None)
            if twin is not None:
                perm = list(range(n))
                perm[twin], perm[v] = v, twin
                autos.add(tuple(perm))
                continue
            tried.append(v)
            row, cand = masks[v], prefix
            for u in placed[:i]:
                cand = cand << 1 | row >> u & 1
            if cand > best >> shift:
                continue
            placed[i] = v
            if i + 1 < n:
                used[v] = True
                dfs(i + 1, cand)
                used[v] = False
            elif cand < best:
                best, best_order = cand, placed.copy()
            else:
                autos.add(tuple(w for _, w in sorted(zip(best_order, placed))))

    dfs(0, 0)
    return best, list(autos)


def labeled_class_count(n: int) -> int:
    """Isomorphism classes by labeled exhaustion with orbit-minimum dedup."""
    pairs = list(combinations(range(n), 2))
    nbits = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for perm in permutations(range(n)):
        perm_maps.append(tuple(
            index[(min(perm[u], perm[v]), max(perm[u], perm[v]))]
            for u, v in pairs))
    count = 0
    for mask in range(1 << nbits):
        is_rep = True
        for pm in perm_maps:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << pm[low.bit_length() - 1]
                rest ^= low
            if image < mask:
                is_rep = False
                break
        if is_rep:
            count += 1
    return count


def orbit_counting_classes(n: int) -> int:
    """Number of graph classes by averaging 2^(pair cycles) over all perms."""
    total = 0
    nperms = 0
    for perm in permutations(range(n)):
        nperms += 1
        seen = set()
        cycles = 0
        for pair in combinations(range(n), 2):
            if pair in seen:
                continue
            cycles += 1
            u, v = pair
            while True:
                seen.add((u, v))
                u, v = perm[u], perm[v]
                u, v = min(u, v), max(u, v)
                if (u, v) == pair:
                    break
        total += 1 << cycles
    assert total % nperms == 0
    return total // nperms


def proper_coloring_count(g: Graph, t: int) -> int:
    if t == 0:
        return 1 if g.n == 0 else 0
    count = 0
    for assignment in product(range(t), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in g.edges):
            count += 1
    return count


def matching_counts_brute(g: Graph) -> tuple[int, ...]:
    edges = g.sorted_edges()
    counts = [0] * (len(edges) + 1)
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            vertices = [v for e in sub for v in e]
            if len(vertices) == len(set(vertices)):
                counts[r] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def edge_cover_counts_brute(g: Graph) -> tuple[int, ...]:
    edges = g.sorted_edges()
    counts = [0] * (len(edges) + 1)
    everything = set(range(g.n))
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            if {v for e in sub for v in e} == everything:
                counts[r] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def spanning_tree_count_brute(g: Graph) -> int:
    if g.n == 1:
        return 1
    count = 0
    for sub in combinations(g.sorted_edges(), g.n - 1):
        h = graph(g.n, sub)
        if len(connected_components(h)) == 1:
            count += 1
    return count


def tutte_eval_oracle(g: Graph, x: int, y: int) -> int:
    """Rank-nullity subgraph expansion evaluated at integers."""
    edges = g.sorted_edges()
    n = g.n
    r_e = n - len(connected_components(g))
    total = 0
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            k_sub = len(connected_components(graph(n, sub)))
            r_sub = n - k_sub
            total += (x - 1) ** (r_e - r_sub) * (y - 1) ** (r - r_sub)
    return total


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


def tutte_bundles_reference(g: Graph) -> MultiPoly:
    """Tutte polynomial by deletion-contraction over parallel-edge bundles.

    Intermediates are loopless multigraphs held as sorted tuples of bundles
    ((u, v), k): k parallel u-v edges.  Removing a whole bundle B at once,
    T(G) = T(G-B) + (1 + y + ... + y^(k-1)) T(G/B) when u and v stay joined
    without B, and T(G) = (x + y + ... + y^(k-1)) T(G/B) when B is a bridge
    bundle.  B holds every u-v edge, so contracting it makes no loops.
    Results are memoized on the bundle tuple for the duration of one call and
    kept as {(i, j): coefficient} dicts until the final MultiPoly.  This is
    the recursion that ``catalog.tutte_poly`` runs on packed integers.
    """
    bundles = tuple((e, 1) for e in sorted(g.edges))
    return MultiPoly.from_dict(_tutte(bundles, {}))


def reliability_poly(tutte: MultiPoly, nullity: int) -> IntPoly:
    """r(p) = sum_j t_j (1 - p)^(nullity - j), with t_j = sum_i T_ij.

    For a connected graph the all-terminal reliability is
    R(G; p) = p^(n-1) (1-p)^nullity T(G; 1, 1/(1-p)) = p^(n-1) r(p).
    """
    t = [0] * (nullity + 1)
    for (_, j), c in tutte.terms:
        t[j] += c
    out, power = IntPoly(()), IntPoly((1,))
    for c in reversed(t):  # power = (1 - p)^(nullity - j)
        out = out + power * c
        power = power * IntPoly((1, -1))
    return out


def prufer_decode_reference(code, n):
    """Naive quadratic Prüfer decoder (smallest-leaf scan each round)."""
    deg = [1] * n
    for x in code:
        deg[x] += 1
    edges = []
    used = [False] * n
    for x in code:
        leaf = min(v for v in range(n) if deg[v] == 1 and not used[v])
        edges.append((min(leaf, x), max(leaf, x)))
        used[leaf] = True
        deg[x] -= 1
    last = [v for v in range(n) if not used[v] and deg[v] == 1]
    edges.append((min(last), max(last)))
    return sorted(edges)


def tree_code(n: int, edges) -> str:
    """Isomorphism-complete free-tree code: the least AHU string over roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rooted(v, parent):
        return "(" + "".join(sorted(rooted(u, v) for u in adj[v]
                                    if u != parent)) + ")"

    return min(rooted(r, -1) for r in range(n))


def prufer_tree_shapes(n: int) -> dict[str, list[tuple[int, int]]]:
    """Tree shapes on n >= 2 vertices: all n^(n-2) Prüfer codes, decoded.

    Maps each shape's ``tree_code`` to the first decoded tree of that shape.
    """
    shapes = {}
    for code in product(range(n), repeat=n - 2):
        edges = prufer_decode_reference(code, n)
        shapes.setdefault(tree_code(n, edges), edges)
    return shapes


def eval_at_gaussian(p: IntPoly, re: Fraction, im: Fraction
                     ) -> tuple[Fraction, Fraction]:
    """Exact Horner evaluation at the Gaussian rational re + im*i."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(p.coeffs):
        acc_re, acc_im = (acc_re * re - acc_im * im + c,
                          acc_re * im + acc_im * re)
    return acc_re, acc_im


def approximate_target_reference(re: Fraction, im: Fraction, eps: Fraction
                                 ) -> tuple[int, int, int] | None:
    """The density-witness (a, b, c) search over Fractions; None at the cap.

    For increasing c, round re*c and im*c, nudge each by up to 2 and keep the
    closest pairwise-distinct positive (a, b) with |(a+bi)/c - target| < eps.
    """
    eps_sq = eps * eps
    c = 0
    c_cap = min(int(6 / eps) + 16, 20000)
    while c < c_cap:
        c += 1
        a0 = max(1, round(re * c))
        b0 = max(1, round(im * c))
        best = None
        for a in (a0, a0 - 1, a0 + 1, a0 - 2, a0 + 2):
            for b in (b0, b0 - 1, b0 + 1, b0 - 2, b0 + 2):
                if a < 1 or b < 1 or a == b or a == c or b == c:
                    continue
                d = (Fraction(a, c) - re) ** 2 + (Fraction(b, c) - im) ** 2
                if d < eps_sq and (best is None or d < best[0]):
                    best = (d, a, b)
        if best is not None:
            return best[1], best[2], c
    return None


def named_transform_reference(name: str, p: IntPoly, t: SimilarityTriple,
                              arg: str | None = None) -> TransformRecord:
    """The negate, square, rouche and scale records of the named registry,
    with each output built by the general composition ``substitute``."""
    if name == "negate":
        return TransformRecord(name, {}, p, substitute(p, IntPoly((0, -1))),
                               {"inverse": "negate"})
    if name == "square":
        return TransformRecord(name, {}, p, substitute(p, IntPoly((0, 0, 1))),
                               {"inverse": "even-part"})
    if name == "rouche":
        a = int(arg) if arg is not None else \
            max([1] + [abs(c) for c in p.coeffs[:-1]])
        return TransformRecord(name, {"A": a}, p, substitute(p, IntPoly((0, a))),
                               {"A": a, "inverse": "X -> X/A"})
    if name == "scale":
        r = int(arg) if arg is not None else 1
        a = t.n ** r
        return TransformRecord(name, {"r": r, "n": t.n}, p,
                               substitute(p, IntPoly((0, a))),
                               {"A": a, "inverse": "X -> X/n^r"})
    raise ValueError(f"no reference for transform {name!r}")
