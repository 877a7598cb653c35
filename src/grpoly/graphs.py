"""Simple undirected graphs: values, graph6 I/O, canonical forms, enumeration.

Graphs are plain immutable values over 0-based contiguous vertex labels;
equality is label-sensitive and isomorphism questions go through
``canonical_form``.  The empty graph (n=0) is rejected everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Optional, Sequence

MAX_ENUM_N = 8
MAX_CANON_N = 10


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``masks[v]`` is v's neighbourhood as a bitmask, derived from the edges on
    first use and then kept; it takes no part in equality, hashing or repr.
    It is not built at construction: for a path on n vertices it takes n^2/2
    bits, and a density witness can be such a path on a million vertices.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graphs must have at least one vertex")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    def __getattr__(self, name: str):
        # reached only while the masks field is unset
        if name != "masks":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "masks", tuple(masks))
        return self.masks

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    return Graph(n, frozenset(tuple(e) for e in edges))


# -- similarity triples -------------------------------------------------------

@dataclass(frozen=True)
class SimilarityTriple:
    """(vertex count, edge count, component count) with derived nullity/rank."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("triple requires n >= 1")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"component count {self.k} outside 1..{self.n}")
        if self.n - self.m > self.k:
            raise ValueError(f"too few edges: n-m = {self.n - self.m} > k = {self.k}")
        if self.m > comb(self.n - self.k + 1, 2):
            raise ValueError(
                f"too many edges: m = {self.m} > C(n-k+1,2) = {comb(self.n - self.k + 1, 2)}")

    @property
    def nu(self) -> int:
        """Nullity m - n + k (independent cycles)."""
        return self.m - self.n + self.k

    @property
    def rho(self) -> int:
        """Rank n - k (spanning forest size)."""
        return self.n - self.k


def connected_components(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def component_count(g: Graph) -> int:
    return len(connected_components(g))


def similarity_triple(g: Graph) -> SimilarityTriple:
    return SimilarityTriple(g.n, g.m, component_count(g))


# -- constructions ------------------------------------------------------------

def complement(g: Graph) -> Graph:
    edges = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)}
    return Graph(g.n, frozenset(edges))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Graph(a.n + b.n, frozenset(a.edges | shifted))


def named_graph(family: str, size: int) -> Graph:
    """Standard families: complete, cycle, path, star (K_{1,size}), edgeless."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if family == "complete":
        return graph(size, itertools.combinations(range(size), 2))
    if family == "cycle":
        if size < 3:
            raise ValueError("cycles need at least 3 vertices")
        return graph(size, [(i, (i + 1) % size) for i in range(size)])
    if family == "path":
        return graph(size, [(i, i + 1) for i in range(size - 1)])
    if family == "star":
        return graph(size + 1, [(0, i) for i in range(1, size + 1)])
    if family == "edgeless":
        return graph(size)
    raise ValueError(f"unknown graph family {family!r}")


def tree_from_prufer(code: Sequence[int]) -> Graph:
    """Decode a Prüfer sequence over {0..n-1} (n = len(code)+2) to its tree."""
    n = len(code) + 2
    if n < 2:
        raise ValueError("Prüfer decoding needs n >= 2")
    if any(not 0 <= x < n for x in code):
        raise ValueError("Prüfer symbol out of range")
    return graph(n, _prufer_edges(tuple(code), n))


def _prufer_edges(code: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    deg = [1] * n
    for x in code:
        deg[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for x in code:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
    if leaf < 0:
        while deg[ptr] != 1:
            ptr += 1
        leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def build_graph_with_parameters(v: int, e: int, k: int) -> Graph:
    """Construct a graph realizing the triple (v, e, k).

    The witness is k-1 isolated vertices plus one component on v-k+1
    vertices: a spanning path filled up with the lexicographically first
    remaining pairs.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    if e < 0 or k < 1:
        raise ValueError("e must be >= 0 and k >= 1")
    if k > v:
        raise ValueError(f"violates k <= v: k = {k}, v = {v}")
    if v - e > k:
        raise ValueError(f"violates v - e <= k: v - e = {v - e}, k = {k}")
    cap = comb(v - k + 1, 2)
    if e > cap:
        raise ValueError(
            f"violates e <= C(v-k+1, 2): e = {e}, C({v - k + 1},2) = {cap}")

    size = v - k + 1  # the one non-trivial component
    edges = [(i, i + 1) for i in range(size - 1)]
    need = e - len(edges)
    if need > 0:
        for u, w in itertools.combinations(range(size), 2):
            if w == u + 1:
                continue
            edges.append((u, w))
            need -= 1
            if need == 0:
                break
    return graph(v, edges)


# -- graph6 -------------------------------------------------------------------

def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for the supported graph6 range")


def graph_to_graph6(g: Graph) -> str:
    masks = g.masks
    bits = []
    for j in range(1, g.n):
        col = masks[j]
        for i in range(j):
            bits.append(col >> i & 1)
    out = bytearray(_g6_size_bytes(g.n))
    for i in range(0, len(bits), 6):
        group = bits[i:i + 6] + [0] * (6 - len(bits[i:i + 6]))
        val = 0
        for b in group:
            val = val << 1 | b
        out.append(val + 63)
    return out.decode("ascii")


def graph_from_graph6(text: str) -> Graph:
    stripped = text.strip()
    if not stripped:
        raise Graph6Error("empty graph6 line", 0)
    for off, ch in enumerate(stripped):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"non-printable graph6 byte {ord(ch)}", off)
    data = stripped.encode("ascii")
    if data[0] == 126:
        if len(data) < 4:
            raise Graph6Error("truncated multi-byte size header", len(data))
        if data[1] == 126:
            raise Graph6Error("8-byte graph6 sizes are not supported", 1)
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        body_off = 4
    else:
        n = data[0] - 63
        body = data[1:]
        body_off = 1
    if n < 1:
        raise Graph6Error("graphs must have at least one vertex", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes, got {len(body)}",
            body_off + min(len(body), nbytes))
    bits = []
    for byte in body:
        val = byte - 63
        for shift in range(5, -1, -1):
            bits.append(val >> shift & 1)
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", body_off + nbytes - 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return graph(n, edges)


def read_graph6_lines(text: str) -> list[Graph]:
    return [graph_from_graph6(line) for line in text.splitlines() if line.strip()]


# -- canonical form -----------------------------------------------------------
#
# Iterated neighbor-color refinement orders the vertices into cells with
# label-invariant signatures; the canonical form is the minimum upper-triangle
# adjacency bitstring over all permutations that respect the cell order.  The
# search is pruned against the best prefix found so far, and graphs whose
# refinement is discrete (almost all of them) skip the search entirely.

def _refine_cells(n: int, masks: Sequence[int]) -> list[list[int]]:
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


def _canon_bits(n: int, masks: Sequence[int]) -> tuple[int, ...]:
    if n == 1:
        return ()
    cells = _refine_cells(n, masks)
    if all(len(c) == 1 for c in cells):
        perm = [v for cell in cells for v in cell]
        bits = []
        for i in range(n):
            row = masks[perm[i]]
            for j in range(i):
                bits.append(row >> perm[j] & 1)
        return tuple(bits)

    cell_of_pos = []
    for cell in cells:
        cell_of_pos.extend([cell] * len(cell))
    best: list[int] | None = None
    placed = [0] * n
    used = [False] * n
    prefix: list[int] = []

    def dfs(i: int):
        nonlocal best
        if i == n:
            if best is None or prefix < best:
                best = prefix.copy()
            return
        tried: list[int] = []
        for v in cell_of_pos[i]:
            # a twin u of v already tried here gives the automorphism (u v),
            # which fixes the placed prefix, so v's subtree repeats u's
            if used[v] or any((masks[u] ^ masks[v]) & ~(1 << u | 1 << v) == 0
                              for u in tried):
                continue
            tried.append(v)
            row = masks[v]
            row_bits = [row >> placed[j] & 1 for j in range(i)]
            if best is not None:
                cut = len(prefix) + len(row_bits)
                if prefix + row_bits > best[:cut]:
                    continue
            placed[i] = v
            used[v] = True
            prefix.extend(row_bits)
            dfs(i + 1)
            del prefix[len(prefix) - len(row_bits):]
            used[v] = False

    dfs(0)
    assert best is not None
    return tuple(best)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-complete canonical key for graphs with n <= 10."""
    if g.n > MAX_CANON_N:
        raise ValueError(f"canonical_form supports n <= {MAX_CANON_N}")
    bits = _canon_bits(g.n, g.masks)
    packed = bytearray([g.n])
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i:i + 8]:
            byte = byte << 1 | b
        packed.append(byte)
    return bytes(packed)


def _canon_graph(n: int, bits: tuple[int, ...]) -> Graph:
    edges = []
    idx = 0
    for i in range(n):
        for j in range(i):
            if bits[idx]:
                edges.append((j, i))
            idx += 1
    return graph(n, edges)


# -- isomorph-free enumeration --------------------------------------------------
#
# Every graph on n vertices is an (n-1)-vertex graph plus one vertex joined to
# some subset of it, so extending one representative per (n-1)-class by every
# neighborhood reaches every n-class; the canonical key keeps one of each.

_ENUM_CACHE: dict[int, list[Graph]] = {}


def _augment(reps: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """Canonical keys of every one-vertex extension of the (n-1)-vertex masks."""
    keys: set[tuple[int, ...]] = set()
    new_bit = 1 << (n - 1)
    for adj in reps:
        for nb in range(1 << (n - 1)):
            ext = [adj[i] | (new_bit if nb >> i & 1 else 0)
                   for i in range(n - 1)]
            ext.append(nb)
            keys.add(_canon_bits(n, ext))
    return keys


def _enumerate_classes(n: int) -> list[Graph]:
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    if n == 1:
        keys = {()}  # the one-vertex graph has no adjacency bits
    else:
        keys = _augment([g.masks for g in _enumerate_classes(n - 1)], n)
    graphs = sorted((_canon_graph(n, bits) for bits in keys),
                    key=lambda g: (g.m, graph_to_graph6(g)))
    _ENUM_CACHE[n] = graphs
    return graphs


def enumerate_graphs(n: int, mk: Optional[tuple[int, int]] = None
                     ) -> list[Graph]:
    """One representative per isomorphism class of simple graphs on n vertices.

    Grown from the one-vertex graph by single-vertex augmentation with
    canonical dedup at every order.  Deterministic order: by edge count, then
    by graph6 string of the canonical labeling.  ``mk=(m, k)`` restricts the
    output to graphs with that edge and component count.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_N}")
    graphs = _enumerate_classes(n)
    if mk is None:
        return list(graphs)
    m, k = mk
    return [g for g in graphs if g.m == m and component_count(g) == k]


# -- tree shapes --------------------------------------------------------------
#
# Shapes grow like graphs: a leaf added on each vertex of each (n-1)-shape
# reaches every n-shape (strip any leaf of an n-tree).  Dedup uses the classic
# rooted-shape code from the tree center: leaves strip off round by round and
# each vertex's code is the sorted tuple of its already-stripped neighbors'
# codes, interned to small ints in one table per order, so equal shapes get
# equal ids.  For bicentral trees the code is the sorted pair over the
# central edge.

def _tree_cert(edges: list[tuple[int, int]], n: int, intern: dict) -> int:
    def cid(key) -> int:
        # key kinds: plain tuple of child ids, ("C", child-id tuple), ("B", id, id)
        return intern.setdefault(key, len(intern))

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    removed = [False] * n
    rank = [0] * n
    leaves = [v for v in range(n) if deg[v] == 1]
    alive = n
    t = 1
    order = []
    while alive > 2:
        nxt = []
        for v in leaves:
            removed[v] = True
            rank[v] = t
            order.append(v)
        alive -= len(leaves)
        for v in leaves:
            for u in adj[v]:
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        leaves = nxt
        t += 1
    code = [0] * n
    for v in order:
        kids = tuple(sorted(code[u] for u in adj[v]
                            if removed[u] and rank[u] < rank[v]))
        code[v] = cid(kids)
    centers = [v for v in range(n) if not removed[v]]
    if len(centers) == 1:
        c = centers[0]
        kids = tuple(sorted(code[u] for u in adj[c]))
        return cid(("C", kids))
    c1, c2 = centers
    a = cid(tuple(sorted(code[u] for u in adj[c1] if u != c2)))
    b = cid(tuple(sorted(code[u] for u in adj[c2] if u != c1)))
    return cid(("B", min(a, b), max(a, b)))


def tree_shapes_by_prufer(n: int, processes: int | None = None) -> list[Graph]:
    """All tree shapes on n vertices, sorted by graph6.

    Grown from the one-vertex tree by adding a leaf on every vertex of every
    (k-1)-shape and keeping the first tree of each center-rooted shape code,
    for k = 2..n.  ``processes`` is ignored; it stays only because the
    benchmark worker (``perfbench/worker.py``) still passes it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shapes: list[list[tuple[int, int]]] = [[]]
    for k in range(2, n + 1):
        intern: dict = {}
        found: dict[int, list[tuple[int, int]]] = {}
        for edges in shapes:
            for v in range(k - 1):
                grown = edges + [(v, k - 1)]
                found.setdefault(_tree_cert(grown, k, intern), grown)
        shapes = list(found.values())
    trees = [graph(n, edges) for edges in shapes]
    trees.sort(key=graph_to_graph6)
    return trees
