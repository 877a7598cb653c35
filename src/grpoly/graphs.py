"""Simple undirected graphs: values, graph6 I/O, canonical forms, enumeration.

Graphs are plain immutable values over 0-based contiguous vertex labels;
equality is label-sensitive and isomorphism questions go through
``canonical_form``.  The empty graph (n=0) is rejected everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

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
    return graph(n, edges)


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
    bits = _upper_bits(g.masks, range(g.n))
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
    return _canon_graph(n, bits)


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
    """Equitable partition of the vertices, as cells in signature order.

    Each round splits the non-singleton cells (bitmasks) by their vertices'
    neighbour counts per cell, ordered as the sorted neighbour-colour tuples
    (a colour is a cell's position) those counts expand to, until none splits.
    """
    cells = [(1 << n) - 1]
    while True:
        split = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                split.append(cell)
                continue
            parts: dict[tuple[int, ...], int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                row = masks[low.bit_length() - 1]
                key = tuple([(row & c).bit_count() for c in cells])
                parts[key] = parts.get(key, 0) | low
                rest ^= low
            split.extend(parts[key] for key in sorted(
                parts, key=lambda counts: tuple(
                    c for c, k in enumerate(counts) for _ in range(k))))
        if len(split) == len(cells):
            break
        cells = split
    return [[v for v in range(n) if cell >> v & 1] for cell in cells]


def _canon_bits(n: int, masks: Sequence[int]) -> tuple[int, ...]:
    if n == 1:
        return ()
    cells = _refine_cells(n, masks)
    if all(len(c) == 1 for c in cells):
        return tuple(_upper_bits(masks, [v for cell in cells for v in cell]))

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


def _upper_bits(masks: Sequence[int], order: Sequence[int]) -> list[int]:
    """Upper-triangle adjacency bits of the vertices listed in ``order``,
    column by column: the bit order of graph6 and of ``_canon_bits``."""
    return [masks[v] >> u & 1 for i, v in enumerate(order) for u in order[:i]]


def _canon_graph(n: int, bits: Sequence[int]) -> Graph:
    """Inverse of ``_upper_bits`` in the identity order; extra bits are
    ignored."""
    return graph(n, itertools.compress(
        ((j, i) for i in range(n) for j in range(i)), bits))


# -- isomorph-free enumeration --------------------------------------------------
#
# Every graph on n vertices is an (n-1)-vertex graph plus one vertex joined to
# some subset of it, so extending one representative per (n-1)-class by every
# neighborhood reaches every n-class; the canonical key keeps one of each.
# Only extensions whose new vertex maximizes (degree, sum of neighbour
# degrees) over the extended graph reach the canonical form (the cheap
# invariant test of McKay's canonical augmentation).  Every class still
# arrives: delete a maximizing vertex v of any n-graph, and the
# representative of what is left, extended by the image of v's neighbours,
# is isomorphic to it with the new vertex in v's place.

_ENUM_CACHE: dict[int, list[Graph]] = {}


def _augment(reps: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """Canonical keys of the one-vertex extensions of the (n-1)-vertex masks.

    An extension is kept only if its new vertex maximizes (degree, sum of
    neighbour degrees) among all n vertices; some vertex of every graph does,
    so the keys still cover every n-class.
    """
    keys: set[tuple[int, ...]] = set()
    new_bit = 1 << (n - 1)
    for adj in reps:
        for nb in range(1 << (n - 1)):
            ext = [row | new_bit if nb >> i & 1 else row
                   for i, row in enumerate(adj)]
            ext.append(nb)
            deg = [row.bit_count() for row in ext]
            if max(deg) > deg[-1]:
                continue
            around = [sum(deg[u] for u in range(n) if row >> u & 1)
                      if deg[v] == deg[-1] else 0 for v, row in enumerate(ext)]
            if max(around) > around[-1]:
                continue
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

def tree_shapes_by_prufer(n: int, processes: int | None = None) -> list[Graph]:
    """All tree shapes on n vertices, sorted by graph6.

    Grown from the one-vertex tree by adding a leaf on every vertex of every
    (k-1)-shape, for k = 2..n, which reaches every k-shape (strip any leaf of
    a k-tree).  The first tree found of each isomorphism class is kept; the
    classes are told apart by ``_canon_bits``, the key graph enumeration
    uses, called directly so that n is not capped at ``MAX_CANON_N``.
    ``processes`` is ignored; it stays only because the benchmark worker
    (``perfbench/worker.py``) still passes it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shapes = [graph(1)]
    for k in range(2, n + 1):
        found: dict[tuple[int, ...], Graph] = {}
        for t in shapes:
            for v in range(k - 1):
                grown = graph(k, [*t.edges, (v, k - 1)])
                found.setdefault(_canon_bits(k, grown.masks), grown)
        shapes = list(found.values())
    return sorted(shapes, key=graph_to_graph6)
