"""Seeded inputs of the three workloads.

Inputs come from networkx's graph atlas (every graph with n <= 7), never
from grpoly's own enumerator, and reach the worker as graph6 text.  The seed
picks the vertex relabelings, the evaluation points of the output checks and
the density targets.  Which graphs and which (graph, family) pairs a workload
runs does not depend on the seed, so every seed runs the same operations and
fails the same ones.
"""

from __future__ import annotations

import random
from functools import lru_cache

import networkx as nx

UNIVARIATE_FAMILIES = ("charA", "charL", "charCycle", "matchingDefect",
                       "matchingGen", "chromatic", "independence", "clique",
                       "vertexCover", "domination", "edgeCover")

# root-cloud: every graph with n <= 6 plus every N7_STRIDE-th n = 7 graph
N7_STRIDE = 20
# relocate: round trips on n <= 5; the DLo charCycle pair realifies to
# degree 14,014 and takes minutes, so it is left out for run length
ROUND_TRIP_NMAX = 5
EXCLUDED_ROUND_TRIPS = (("DLo", "charCycle"),)
NAMED_NMAX = 6
NAMED_FAMILIES = ("charA", "matchingDefect", "independence", "chromatic")
NAMED_TRANSFORMS = ("negate", "square", "densify", "rouche", "scale")
DENSITY_TARGETS = 100
DENSITY_EPS = "1/100"
WORKED_CASE = ("1/3", "2/3", "1/1000000000")
# fingerprint modulus of realify outputs (2^61 - 1 is prime)
PRIME = (1 << 61) - 1
FINGERPRINT_POINTS = 3
# census: tree shapes for n <= TREE_NMAX
TREE_NMAX = 7


@lru_cache(maxsize=None)
def atlas() -> tuple:
    """The atlas graphs with at least one vertex, in atlas order."""
    return tuple(g for g in nx.graph_atlas_g() if g.number_of_nodes() >= 1)


def to_graph6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, nodes=sorted(g.nodes()),
                              header=False).decode("ascii").strip()


def from_graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode("ascii"))


def relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    h = nx.Graph()
    h.add_nodes_from(range(len(perm)))
    h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
    return h


def root_cloud_graphs() -> list[nx.Graph]:
    small = [g for g in atlas() if g.number_of_nodes() <= 6]
    n7 = [g for g in atlas() if g.number_of_nodes() == 7]
    return small + n7[::N7_STRIDE]


def make_spec(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return {"workload": workload, "enum_n": 8, "nmax": 7,
                "tree_nmax": TREE_NMAX}
    if workload == "root-cloud":
        graphs = [[to_graph6(relabel(g, rng)), to_graph6(g)]
                  for g in root_cloud_graphs()]
        return {"workload": workload, "families": list(UNIVARIATE_FAMILIES),
                "graphs": graphs}
    if workload == "relocate":
        excluded = [from_graph6(g6) for g6, _ in EXCLUDED_ROUND_TRIPS]
        round_trips = []
        for g in atlas():
            if g.number_of_nodes() > ROUND_TRIP_NMAX:
                continue
            g6 = to_graph6(relabel(g, rng))
            skip = {fam for eg, (_, fam) in zip(excluded, EXCLUDED_ROUND_TRIPS)
                    if nx.is_isomorphic(g, eg)}
            round_trips.extend([g6, fam] for fam in UNIVARIATE_FAMILIES
                               if fam not in skip)
        named = []
        for g in atlas():
            if g.number_of_nodes() > NAMED_NMAX:
                continue
            g6 = to_graph6(relabel(g, rng))
            for fam in NAMED_FAMILIES:
                for name in NAMED_TRANSFORMS:
                    # the complex quadrant prefactor needs m >= 1
                    if name == "densify" and g.number_of_edges() == 0:
                        continue
                    named.append([g6, fam, name])
        targets = [[f"{rng.randint(1, 999)}/1000",
                    f"{rng.randint(1, 999)}/1000", DENSITY_EPS]
                   for _ in range(DENSITY_TARGETS)]
        targets.append(list(WORKED_CASE))
        points = [rng.randrange(2, PRIME - 1)
                  for _ in range(FINGERPRINT_POINTS)]
        order = list(range(len(round_trips) + len(named) + len(targets)))
        random.Random(0).shuffle(order)
        return {"workload": workload, "round_trips": round_trips,
                "named": named, "density": targets, "prime": PRIME,
                "points": points, "order": order}
    raise ValueError(f"unknown workload {workload!r}")
