"""Simple undirected graphs: values, graph6 I/O, canonical forms, enumeration.

Graphs are plain immutable values over 0-based contiguous vertex labels;
equality is label-sensitive and isomorphism questions go through
``canonical_form``.  The empty graph (n=0) is rejected everywhere.
"""

from __future__ import annotations

import binascii
import heapq
import itertools
import sys
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

MAX_ENUM_N = 8
MAX_CANON_N = 10


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


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
    edges = {(u, v) for u, mask in enumerate(g.masks)
             for v in range(u + 1, g.n) if not mask >> v & 1}
    return Graph(g.n, frozenset(edges))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Graph(a.n + b.n, frozenset(a.edges | shifted))


def named_graph(family: str, size: int) -> Graph:
    """Standard families: complete, cycle, path, star (K_{1,size}), edgeless."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > sys.maxsize:
        raise ValueError(f"size must be <= {sys.maxsize}")
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
    """Decode a Prüfer sequence over {0..n-1} (n = len(code)+2) to its tree:
    join each symbol to the smallest remaining leaf, then the last two."""
    n = len(code) + 2
    if any(not 0 <= x < n for x in code):
        raise ValueError("Prüfer symbol out of range")
    deg = [1] * n
    for x in code:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]  # sorted, hence a heap
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(tuple(leaves))
    return graph(n, edges)


def build_graph_with_parameters(v: int, e: int, k: int) -> Graph:
    """Construct a graph realizing the triple (v, e, k).

    The witness is k-1 isolated vertices plus one component on v-k+1
    vertices: a spanning path filled up with the lexicographically first
    remaining pairs.  Infeasible triples raise as ``SimilarityTriple`` does.
    """
    SimilarityTriple(v, e, k)
    size = v - k + 1  # the one non-trivial component
    path = [(i, i + 1) for i in range(size - 1)]
    chords = ((u, w) for u, w in itertools.combinations(range(size), 2)
              if w > u + 1)
    return graph(v, path + list(itertools.islice(chords, e - len(path))))


# -- graph6 -------------------------------------------------------------------

def _g6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for the supported graph6 range")


# graph6 and base64 both write 6-bit groups, so swapping their alphabets
# makes binascii's base64 codec a graph6 body codec.
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6, _FROM_G6 = bytes.maketrans(_B64, _G6), bytes.maketrans(_G6, _B64)
_G6_HEADER = ">>graph6<<"


def graph_to_graph6(g: Graph) -> str:
    return _graph6_of_key(g.n, _order_key(g.masks, range(g.n)))


def _graph6_of_key(n: int, key: int) -> str:
    """graph6 line of the graph on n vertices whose key is ``key``."""
    total = n * (n - 1) // 2
    blocks = -(-total // 24)
    raw = (key << 24 * blocks - total).to_bytes(3 * blocks, "big")
    body = binascii.b2a_base64(raw, newline=False).translate(_TO_G6)
    return (_g6_size_bytes(n) + body[:(total + 5) // 6]).decode("ascii")


def graph_from_graph6(text: str) -> Graph:
    """The graph of one graph6 line.  The line may begin with the optional
    ``>>graph6<<`` header of McKay's formats.txt, as networkx writes it;
    the byte offsets of errors count from the end of the header."""
    stripped = text.strip().removeprefix(_G6_HEADER)
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
        body_off = 4
    else:
        n, body_off = data[0] - 63, 1
    body = data[body_off:]
    if n < 1:
        raise Graph6Error("graphs must have at least one vertex", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes, got {len(body)}",
            body_off + min(len(body), nbytes))
    fill = -nbytes % 4
    key = int.from_bytes(binascii.a2b_base64(
        body.translate(_FROM_G6) + b"A" * fill), "big") >> 6 * fill
    pad = 6 * nbytes - nbits
    if key & (1 << pad) - 1:
        raise Graph6Error("nonzero padding bits", body_off + nbytes - 1)
    return _canon_graph(n, key >> pad)


def read_graph6_lines(text: str) -> list[Graph]:
    return [graph_from_graph6(line) for line in text.splitlines() if line.strip()]


# -- canonical form -----------------------------------------------------------
#
# Iterated neighbour-colour refinement orders the vertices into cells with
# label-invariant signatures.  A key is one int of upper-triangle adjacency
# bits, column by column, most significant first (graph6's bit order); keys
# of one n have one length, so they order as the bitstrings do.  The
# canonical key is the least over the vertex orders that respect the cell
# order, found by a search pruned against the best key so far.  A refinement
# whose cells are all singletons or sets of mutual twins (N(u) - v = N(v) - u)
# needs no search: swapping two twins is an automorphism, so every order that
# respects the cells gives one key, and since every automorphism fixes each
# cell, the transpositions of a cell's first vertex with the others generate
# the group.  Otherwise the automorphisms met on the way generate it: a leaf
# that ties the best ordering maps one onto the other, and a skipped twin
# stands for the twins' transposition.

def _refine_cells(n: int, masks: Sequence[int]) -> list[list[int]]:
    """Equitable partition of the vertices, as cells in signature order.

    A vertex's colour is its cell's position, its signature the sorted tuple
    of its neighbours' colours.  Round one splits by degree (tuples of zeros
    order by length).  In a cell of one degree, the vertex with more
    neighbours of the first colour where two counts differ has the smaller
    tuple, so later rounds split by count vectors, descending, packed into
    ints of n.bit_length() bits per colour (a count is at most n - 1).

    A round counts only against the parts of the cells that split in the
    round before, less each such cell's last part.  The rest of a vertex's
    count vector is fixed by its cell: the vertices of a cell have equal
    counts against every cell of the round before, so against an unsplit
    cell, and a last part's count is the whole cell's less the other parts'.
    Within a cell the shorter vectors therefore order as the full ones do.
    """
    width = n.bit_length()
    parts: dict[int, list[int]] = {}
    for v in range(n):
        parts.setdefault(masks[v].bit_count(), []).append(v)
    cells = [parts[d] for d in sorted(parts)]
    fresh = cells[:-1]  # the whole vertex set split by degree
    while fresh and len(cells) < n:  # until no split or all singletons
        cellmasks = [sum(map((1).__lshift__, cell)) for cell in fresh]
        split, fresh = [], []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts = {}
            for v in cell:
                row, counts = masks[v], 0
                for cm in cellmasks:
                    counts = counts << width | (row & cm).bit_count()
                parts.setdefault(counts, []).append(v)
            if len(parts) == 1:
                split.append(cell)
                continue
            new = [parts[c] for c in sorted(parts, reverse=True)]
            split += new
            fresh += new[:-1]
        cells = split
    return cells


def _order_key(masks: Sequence[int], order: Sequence[int]) -> int:
    """Key of the graph with its vertices listed in ``order``."""
    key = 0
    for i, v in enumerate(order):
        row, col = masks[v], 0
        for u in order[:i]:
            col = col << 1 | row >> u & 1
        key = key << i | col
    return key


def _canon_search(n: int, masks: Sequence[int]
                  ) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical key of the graph, and automorphisms (``perm[v]`` is v's
    image) that generate its automorphism group.

    Placing v at position i appends its adjacency to the i vertices placed
    before it: ``cand = prefix << i | column``.  A candidate above as many
    top bits of the best key leads to no smaller key.
    """
    cells = _refine_cells(n, masks)
    twins = [(cell[0], v) for cell in cells for v in cell[1:]]
    if all((masks[u] ^ masks[v]) & ~(1 << u | 1 << v) == 0 for u, v in twins):
        return (_order_key(masks, [v for cell in cells for v in cell]),
                [_transposition(n, u, v) for u, v in twins])

    total = n * (n - 1) // 2
    cell_of_pos = [cell for cell in cells for _ in cell]
    shifts = [total - i * (i + 1) // 2 for i in range(n)]  # after column i
    best = 1 << total  # above every key, and its top bits above every prefix
    best_order: list[int] = []
    autos: set[tuple[int, ...]] = set()
    placed, used = [0] * n, [False] * n

    def dfs(i: int, prefix: int):
        nonlocal best, best_order
        tried, shift = [], shifts[i]
        for v in cell_of_pos[i]:
            if used[v]:
                continue
            # a twin u of v already tried here gives the automorphism (u v),
            # which fixes the placed prefix, so v's subtree repeats u's
            row, twin = masks[v], -1
            for u in tried:
                if (masks[u] ^ row) & ~(1 << u | 1 << v) == 0:
                    twin = u
                    break
            if twin >= 0:
                autos.add(_transposition(n, twin, v))
                continue
            tried.append(v)
            cand = prefix
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


def _transposition(n: int, u: int, v: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[u], perm[v] = v, u
    return tuple(perm)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-complete canonical key for graphs with n <= 10: the byte
    n, then the key's bits eight to a byte, the rest in a last byte."""
    if g.n > MAX_CANON_N:
        raise ValueError(f"canonical_form supports n <= {MAX_CANON_N}")
    total = g.n * (g.n - 1) // 2
    key, tail = _canon_search(g.n, g.masks)[0], total % 8
    return (bytes([g.n]) + (key >> tail).to_bytes(total // 8, "big")
            + (bytes([key & (1 << tail) - 1]) if tail else b""))


def _canon_graph(n: int, key: int) -> Graph:
    """The graph whose key in the identity order is ``key``, with its masks;
    its edges come out normalised, so ``Graph``'s checks are skipped."""
    edges, masks = [], [0] * n
    for i in range(n - 1, 0, -1):  # the last column holds the lowest bits
        col, key = key & (1 << i) - 1, key >> i
        while col:
            j = i - col.bit_length()
            col ^= 1 << i - 1 - j
            edges.append((j, i))
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    g = object.__new__(Graph)
    g.__dict__.update(n=n, edges=frozenset(edges), masks=tuple(masks))
    return g


# -- isomorph-free enumeration --------------------------------------------------
#
# Every graph on n vertices is an (n-1)-vertex graph plus one vertex joined to
# some subset of it, so extending one representative per (n-1)-class reaches
# every n-class; the canonical key keeps one of each.  Two subsets in one
# orbit of the representative's automorphism group give isomorphic graphs,
# so one subset per orbit is extended; the orbits are walked through one
# 2^(n-1)-entry image table per automorphism generator, built once per
# representative for the subsets of every size.  Only extensions whose new
# vertex maximizes (degree, sum of neighbour degrees) over the extended graph
# reach the canonical search (the invariant test of McKay's canonical
# augmentation); the test reads both from the parent's degrees and
# neighbour-degree sums, so an extension's masks are built only once it
# passes.  Only subsets that leave no vertex of higher degree than the new one
# are generated.  Every class still arrives: delete a maximizing vertex v of
# any n-graph, and the representative of what is left, extended by the image
# of v's neighbours, is isomorphic to it with the new vertex in v's place.
# Each level is kept as its canonical keys in enumeration order; graphs, the
# next level's parent masks and graph6 lines are built from them.

_ENUM_CACHE: dict[int, list[int]] = {}


def _orbit_reps(subsets: Iterable[int], autos: Sequence[Sequence[int]]
                ) -> Iterator[int]:
    """The first bitmask of each orbit under the group that ``autos``
    generate, among ``subsets`` (a union of orbits).

    Each generator's images of all bitmasks are one table, filled in the
    order of t from the image of t with its lowest vertex removed.
    """
    tables = []
    for perm in autos:
        table = [0] * (1 << len(perm))
        for t in range(1, len(table)):
            low = t & -t
            table[t] = table[t ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(table)
    seen: set[int] = set()
    for s in subsets:
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        while stack:
            t = stack.pop()
            for table in tables:
                image = table[t]
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        yield s


def _augment(reps: list[tuple[int, ...]], n: int) -> set[int]:
    """Canonical keys of the one-vertex extensions of the (n-1)-vertex masks.

    The new vertex of degree k may join only vertices of degree below k, and
    k runs from the largest degree up, so no vertex outranks it in degree;
    among the rest, one neighbourhood per automorphism orbit is kept if the
    new vertex also maximizes (degree, sum of neighbour degrees).
    """
    keys: set[int] = set()
    new_bit = 1 << (n - 1)
    for adj in reps:
        autos = _canon_search(n - 1, adj)[1]
        base = [row.bit_count() for row in adj]
        around = [sum(base[u] for u in range(n - 1) if row >> u & 1)
                  for row in adj]
        subsets = itertools.chain.from_iterable(
            map(sum, itertools.combinations(
                [1 << v for v in range(n - 1) if base[v] < k], k))
            for k in range(max(base), n))
        for nb in _orbit_reps(subsets, autos):
            # v's degree d and neighbour-degree sum s become d + [v in nb]
            # and s + |N(v) & nb| + k [v in nb]; no vertex of degree k may
            # beat the new vertex's sum, k + (the sum of d over nb)
            k = nb.bit_count()
            mine = k + sum(base[v] for v in range(n - 1) if nb >> v & 1)
            if any(around[v] + (adj[v] & nb).bit_count()
                   + (k if nb >> v & 1 else 0) > mine
                   for v in range(n - 1) if base[v] + (nb >> v & 1) == k):
                continue
            ext = [row | new_bit if nb >> i & 1 else row
                   for i, row in enumerate(adj)] + [nb]
            keys.add(_canon_search(n, ext)[0])
    return keys


def _enumerate_classes(n: int) -> list[int]:
    """Canonical keys of the classes on n vertices, in enumeration order."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM_N}")
    if n in _ENUM_CACHE:
        return _ENUM_CACHE[n]
    if n == 1:
        keys = {0}  # the one-vertex graph has no adjacency bits
    else:
        keys = _augment([_canon_graph(n - 1, key).masks
                         for key in _enumerate_classes(n - 1)], n)
    # (edge count, key) sorts as (edge count, graph6)
    _ENUM_CACHE[n] = sorted(keys, key=lambda key: (key.bit_count(), key))
    return _ENUM_CACHE[n]


def enumerate_graphs(n: int, mk: Optional[tuple[int, int]] = None
                     ) -> list[Graph]:
    """One representative per isomorphism class of simple graphs on n vertices.

    Grown from the one-vertex graph by single-vertex augmentation: each
    (n-1)-class representative is extended by one neighbourhood per orbit of
    its automorphism group, and the canonical key keeps one graph per class.
    Deterministic order: by edge count, then by graph6 string of the
    canonical labeling.  ``mk=(m, k)`` restricts the output to graphs with
    that edge and component count.
    """
    graphs = [_canon_graph(n, key) for key in _enumerate_classes(n)]
    if mk is None:
        return graphs
    m, k = mk
    return [g for g in graphs if g.m == m and component_count(g) == k]


def enumerate_graph6(n: int) -> list[str]:
    """The graph6 lines of ``enumerate_graphs(n)``, written from the keys
    without building the graphs."""
    return [_graph6_of_key(n, key) for key in _enumerate_classes(n)]


# -- tree shapes --------------------------------------------------------------

def tree_shapes_by_prufer(n: int, processes: int | None = None) -> list[Graph]:
    """All tree shapes on n vertices, sorted by graph6.

    Grown from the one-vertex tree by adding a leaf on every vertex of every
    (k-1)-shape, for k = 2..n, which reaches every k-shape (strip any leaf of
    a k-tree).  The first tree found of each isomorphism class is kept; the
    classes are told apart by ``_canon_search``, the key graph enumeration
    uses, called directly so that n is not capped at ``MAX_CANON_N``.
    ``processes`` is ignored; it stays only because the benchmark worker
    (``perfbench/worker.py``) still passes it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shapes = [graph(1)]
    for k in range(2, n + 1):
        found: dict[int, Graph] = {}
        for t in shapes:
            for v in range(k - 1):
                grown = graph(k, [*t.edges, (v, k - 1)])
                found.setdefault(_canon_search(k, grown.masks)[0], grown)
        shapes = list(found.values())
    return sorted(shapes, key=graph_to_graph6)
