"""Output checks, computed apart from grpoly.

Each check recomputes what grpoly returned with networkx, sympy, mpmath or
plain modular arithmetic, or tests a property the method must have.  No check
compares against a stored copy of grpoly's output.  A check returns a list of
problems; each names the op it concerns.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from fractions import Fraction

import mpmath
import networkx as nx
import sympy

from inputs import atlas, from_graph6
from worker import eval_mod

# OEIS A000088: graphs on n unlabeled vertices
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# free trees on n vertices (OEIS A000055)
TREE_COUNTS = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47)
RESIDUAL_TOL = 1e-9
EDGE_COVER_BALL = (1 + math.sqrt(3)) ** 3 / 4
X = sympy.Symbol("x")

warnings.filterwarnings("ignore", message="The hashes produced",
                        category=UserWarning)


def _op(out: dict, i: int) -> str:
    return f"op {i} ({out['labels'][i]})"


def _triple(g: nx.Graph) -> tuple[int, int, int]:
    return (g.number_of_nodes(), g.number_of_edges(),
            nx.number_connected_components(g))


def _non_isomorphic(graphs: list[nx.Graph]) -> list[tuple[int, int]]:
    """Index pairs of isomorphic graphs (WL-hash buckets, then VF2)."""
    buckets: dict[str, list[int]] = {}
    for i, g in enumerate(graphs):
        key = nx.weisfeiler_lehman_graph_hash(g, iterations=3)
        buckets.setdefault(key, []).append(i)
    same = []
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            if nx.is_isomorphic(graphs[a], graphs[b]):
                same.append((a, b))
    return same


# -- independent family values ------------------------------------------------

def _ascending(expr) -> tuple[int, ...]:
    coeffs = [int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def family_value(family: str, g: nx.Graph):
    """The family's value on g, computed without grpoly.

    Univariate families give ascending integer coefficients; ``tutte`` gives
    a dict {(i, j): coefficient of x^i y^j}.
    """
    n = g.number_of_nodes()
    nodes = sorted(g.nodes())
    if family in ("charA", "charL"):
        pos = {v: i for i, v in enumerate(nodes)}
        mat = [[0] * n for _ in range(n)]
        for u, v in g.edges():
            mat[pos[u]][pos[v]] = mat[pos[v]][pos[u]] = 1
        if family == "charL":
            mat = [[(g.degree(nodes[i]) if i == j else -mat[i][j])
                    for j in range(n)] for i in range(n)]
        return _ascending(sympy.Matrix(mat).charpoly(X).as_expr())
    if family == "chromatic":
        return _ascending(nx.chromatic_polynomial(g).subs(
            sympy.Symbol("x"), X))
    if family == "tutte":
        x, y = sympy.symbols("x y")
        poly = sympy.Poly(nx.tutte_polynomial(g), x, y)
        return {tuple(int(e) for e in mon): int(c)
                for mon, c in poly.terms()}
    if family in ("independence", "vertexCover"):
        counts = [0] * (n + 1)
        for size in range(n + 1):
            for s in itertools.combinations(nodes, size):
                chosen = set(s)
                independent = not any(u in chosen and v in chosen
                                      for u, v in g.edges())
                cover = all(u in chosen or v in chosen for u, v in g.edges())
                if independent if family == "independence" else cover:
                    counts[size] += 1
        return tuple(counts[:max(i for i, c in enumerate(counts) if c) + 1])
    if family in ("matchingDefect", "matchingGen"):
        edges = list(g.edges())
        counts = [1]
        for k in range(1, n // 2 + 1):
            c = sum(1 for es in itertools.combinations(edges, k)
                    if len({v for e in es for v in e}) == 2 * k)
            if not c:
                break
            counts.append(c)
        if family == "matchingGen":
            return tuple(counts)
        coeffs = [0] * (n + 1)
        for k, c in enumerate(counts):
            coeffs[n - 2 * k] = (-1) ** k * c
        return tuple(coeffs)
    raise ValueError(f"no independent computation for {family!r}")


def _value_from_json(obj):
    if "coeffs" in obj:
        if obj["basis"] != "power":
            raise ValueError(f"unexpected basis {obj['basis']}")
        return tuple(int(c) for c in obj["coeffs"])
    return {tuple(t["exp"]): int(t["coeff"]) for t in obj["terms"]}


# -- census -------------------------------------------------------------------

def _check_equiv(where, res, left, right, expect) -> list[str]:
    problems = []
    if res["exit"] != 0:
        return [f"{where}: exit code {res['exit']}"]
    verdict = json.loads(res["stdout"])
    if expect is not None and verdict["relation"] != expect:
        problems.append(f"{where}: relation {verdict['relation']}, "
                        f"expected {expect}")
    for w in verdict["witnesses"]:
        g1, g2 = from_graph6(w["g1"]), from_graph6(w["g2"])
        pair = f"{where}: witness {w['g1']} {w['g2']}"
        cls = (w["class"]["n"], w["class"]["m"], w["class"]["k"])
        if _triple(g1) != cls or _triple(g2) != cls:
            problems.append(f"{pair}: not both in class {cls}")
        if nx.is_isomorphic(g1, g2):
            problems.append(f"{pair}: isomorphic")
        for fam, k1, k2 in ((left, "val1_left", "val2_left"),
                            (right, "val1_right", "val2_right")):
            if (_value_from_json(w[k1]) != family_value(fam, g1)
                    or _value_from_json(w[k2]) != family_value(fam, g2)):
                problems.append(f"{pair}: {fam} values do not match an "
                                "independent computation")
        if left == "chromatic" and right == "tutte":
            if (w["val1_right"] == w["val2_right"]
                    and w["val1_left"] != w["val2_left"]):
                problems.append(f"{pair}: equal Tutte, unequal chromatic")
    return problems


def check_census(spec: dict, out: dict) -> list[str]:
    n = spec["enum_n"]
    nmax = spec["nmax"]
    # census fails no op: a phase that raised is a problem, and its commands
    # are missing below
    problems = [f"{_op(out, int(i))}: failed with {err}"
                for i, err in sorted(out["errors"].items(),
                                     key=lambda item: int(item[0]))]
    # each op is a phase of several commands: command -> (where, output)
    cmds = {}
    for i, phase in enumerate(out["outputs"]):
        for label, value in (phase or {}).items():
            cmds[label] = (f"op {i} ({out['labels'][i]}: {label})", value)

    def command(label):
        if label not in cmds:
            problems.append(f"census: no output for {label}")
        return cmds.get(label, (None, None))

    # enumeration via the CLI: count, parse, pairwise non-isomorphic
    where, res = command(f"enum --n {n}")
    lines = res["stdout"].splitlines() if res else []
    if res and res["exit"] != 0:
        problems.append(f"{where}: exit code {res['exit']}")
    if res and len(lines) != GRAPH_COUNTS[n]:
        problems.append(f"{where}: {len(lines)} lines, expected "
                        f"{GRAPH_COUNTS[n]} (A000088)")
    graphs = []
    for line in lines:
        try:
            g = from_graph6(line)
        except nx.NetworkXError as exc:
            problems.append(f"{where}: bad graph6 line {line!r}: {exc}")
            continue
        if g.number_of_nodes() != n:
            problems.append(f"{where}: {line} has {g.number_of_nodes()} "
                            "vertices")
        graphs.append(g)
    for a, b in _non_isomorphic(graphs):
        problems.append(f"{where}: lines {a} and {b} are isomorphic")

    # enumerate_graphs for every order up to nmax against the atlas
    for order, g6s in enumerate(out["after"]["enumerated"][:nmax], start=1):
        ours = [from_graph6(s) for s in g6s]
        theirs = [g for g in atlas() if g.number_of_nodes() == order]
        unmatched = list(range(len(theirs)))
        for g in ours:
            hit = next((j for j in unmatched
                        if nx.faster_could_be_isomorphic(g, theirs[j])
                        and nx.is_isomorphic(g, theirs[j])), None)
            if hit is None:
                problems.append(f"enumerate_graphs({order}): "
                                f"{nx.to_graph6_bytes(g, header=False)!r} "
                                "has no unmatched atlas graph")
            else:
                unmatched.remove(hit)
        if unmatched or len(ours) != len(theirs):
            problems.append(f"enumerate_graphs({order}): {len(ours)} graphs, "
                            f"atlas has {len(theirs)}")

    for left, right, expect in (("charA", "charL", "incomparable"),
                                ("independence", "vertexCover", "equivalent"),
                                ("matchingDefect", "matchingGen",
                                 "equivalent"),
                                ("chromatic", "tutte", None)):
        where, res = command(f"equiv --left {left} --right {right} "
                             f"--nmax {nmax}")
        if res:
            problems += _check_equiv(where, res, left, right, expect)

    # tree shapes against networkx's non-isomorphic trees
    where, res = command(f"tree shapes n<={spec['tree_nmax']}")
    for order, g6s in enumerate(res or [], start=1):
        trees = [from_graph6(s) for s in g6s]
        expected = TREE_COUNTS[order]
        if order >= 2:
            expected = sum(1 for _ in nx.nonisomorphic_trees(order))
        if len(trees) != expected:
            problems.append(f"{where}: {len(trees)} shapes on {order} "
                            f"vertices, expected {expected}")
        if not all(t.number_of_nodes() == order and nx.is_tree(t)
                   for t in trees):
            problems.append(f"{where}: a non-tree on {order} vertices")
        if _non_isomorphic(trees):
            problems.append(f"{where}: isomorphic shapes on {order} "
                            "vertices")

    # charA collisions: one class, pairwise non-isomorphic, equal spectra
    where, res = command(f"find_collisions charA {nmax}")
    quoted = _ascending((X - 1) * (X + 1) ** 2 * (X ** 3 - X ** 2 - 5 * X + 1))
    seen_quoted = False
    for block in res or []:
        graphs = [from_graph6(s) for s in block["block"]]
        cls = tuple(block["class"])
        if len(graphs) < 2 or any(_triple(g) != cls for g in graphs):
            problems.append(f"{where}: block {block['block']} is not a "
                            f"collision in class {cls}")
        if _non_isomorphic(graphs):
            problems.append(f"{where}: block {block['block']} has "
                            "isomorphic members")
        values = {family_value("charA", g) for g in graphs}
        if len(values) != 1:
            problems.append(f"{where}: block {block['block']} is not "
                            "cospectral")
        seen_quoted |= quoted in values
    if res is not None and not seen_quoted:
        problems.append(f"{where}: the quoted cospectral polynomial "
                        "(X-1)(X+1)^2(X^3-X^2-5X+1) is missing")

    for label in ("prefactor matchingDefect<-matchingGen",
                  "prefactor vertexCover<-independence"):
        where, res = command(label)
        if res and res["status"] != "PASS":
            problems.append(f"{where}: status {res['status']}")
    return problems


# -- root-cloud -------------------------------------------------------------

def _variations(sturm: list, x) -> int:
    """Sign changes of a Sturm sequence at x (a rational or +-oo)."""
    signs = []
    for q in sturm:
        if x == sympy.oo:
            value = q.LC()
        elif x == -sympy.oo:
            value = q.LC() * (-1) ** q.degree()
        else:
            value = q.eval(x)
        if value:
            signs.append(value > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sympy_facts(coeffs: tuple[int, ...]) -> dict:
    """Exact real-root counts and integer roots of a nonzero polynomial.

    ``count(a, b)`` is the number of distinct real roots in (a, b], from
    sympy's Sturm sequence of the squarefree part.
    """
    p = sympy.Poly(list(reversed(coeffs)), X)
    if p.degree() < 1:
        return {"signs": [0, 0, 0], "real_rooted": True, "integer_roots": {},
                "count": lambda a, b: 0}
    sqf = p.sqf_part()
    sturm = sqf.sturm()

    def count(a, b):
        return _variations(sturm, a) - _variations(sturm, b)

    zero = 1 if coeffs[0] == 0 else 0
    integer_roots = {}
    for factor, mult in sympy.factor_list(p)[1]:
        if factor.degree() == 1 and abs(factor.LC()) == 1:
            root = -factor.nth(0) / factor.LC()
            integer_roots[int(root)] = integer_roots.get(int(root), 0) + mult
    return {"signs": [count(-sympy.oo, 0) - zero, zero, count(0, sympy.oo)],
            "real_rooted": count(-sympy.oo, sympy.oo) == sqf.degree(),
            "integer_roots": integer_roots, "count": count}


def _relative_residual(coeffs, z: complex) -> float:
    zm = mpmath.mpc(z.real, z.imag)
    value = mpmath.polyval(list(reversed(coeffs)), zm)
    scale = sum(abs(c) * abs(zm) ** k for k, c in enumerate(coeffs))
    if not scale:  # z = 0 with p(0) = 0
        return float(abs(value))
    return float(abs(value) / scale)


def _check_report(coeffs, rep, family: str, g: nx.Graph, where: str,
                  facts_cache: dict) -> list[str]:
    problems = []
    degree = len(coeffs) - 1
    roots = [(complex(re, im), m) for re, im, m in rep["roots"]]
    if rep["degree"] != degree:
        problems.append(f"{where}: degree {rep['degree']}, polynomial has "
                        f"degree {degree}")
    if sum(m for _, m in roots) != degree:
        problems.append(f"{where}: multiplicities sum to "
                        f"{sum(m for _, m in roots)}, degree is {degree}")
    for z, _ in roots:
        res = _relative_residual(coeffs, z)
        if not res <= RESIDUAL_TOL:
            problems.append(f"{where}: root {z} has relative residual "
                            f"{res:.3e}")
    key = tuple(coeffs)
    if key not in facts_cache:
        facts_cache[key] = _sympy_facts(key)
    facts = facts_cache[key]
    if rep["signs"] != facts["signs"]:
        problems.append(f"{where}: (negative, zero, positive) "
                        f"{rep['signs']}, sympy counts {facts['signs']}")
    if rep["real_rooted"] != facts["real_rooted"]:
        problems.append(f"{where}: real_rooted {rep['real_rooted']}, "
                        f"sympy {facts['real_rooted']}")
    integer_roots = {int(r): m for r, m in rep["integer_roots"]}
    if integer_roots != facts["integer_roots"]:
        problems.append(f"{where}: integer roots {integer_roots}, sympy "
                        f"factor_list {facts['integer_roots']}")
    lead = abs(coeffs[-1])
    rouche = 1 + Fraction(max((abs(c) for c in coeffs[:-1]), default=0), lead)
    if degree < 1:
        rouche = Fraction(1)
    if Fraction(rep["rouche_radius"]) != rouche:
        problems.append(f"{where}: rouche_radius {rep['rouche_radius']}, "
                        f"expected {rouche}")
    moduli = [abs(z) for z, _ in roots]
    if any(m > float(rouche) * (1 + 1e-9) for m in moduli):
        problems.append(f"{where}: a root modulus exceeds rouche_radius")
    if moduli and not math.isclose(rep["max_modulus"], max(moduli),
                                   rel_tol=1e-12):
        problems.append(f"{where}: max_modulus {rep['max_modulus']} is not "
                        "the largest root modulus")

    # the paper's location properties
    neg, zero, pos = rep["signs"]
    if family in ("matchingDefect", "matchingGen", "charA", "charL") \
            and not rep["real_rooted"]:
        problems.append(f"{where}: {family} is not real-rooted")
    if family in ("independence", "matchingGen") and pos:
        problems.append(f"{where}: {family} has a positive root")
    if family == "charL":
        comps = nx.number_connected_components(g)
        if neg or integer_roots.get(0, 0) != comps:
            problems.append(f"{where}: charL has negative roots or zero "
                            f"multiplicity {integer_roots.get(0, 0)} != "
                            f"{comps} components")
    if family == "chromatic" and degree >= 1:
        count = facts["count"]
        at1 = 1 if sum(coeffs) == 0 else 0
        bad = (facts["signs"][0] + (count(0, 1) - at1)
               + count(1, sympy.Rational(32, 27)))
        if bad or neg:
            problems.append(f"{where}: chromatic has a root in (-oo,0), "
                            "(0,1) or (1,32/27]")
    if family == "edgeCover" and any(m > EDGE_COVER_BALL + 1e-6
                                     for m in moduli):
        problems.append(f"{where}: edge-cover root outside |z| <= "
                        "(1+sqrt3)^3/4")
    return problems


def check_root_cloud(spec: dict, out: dict) -> list[str]:
    problems = []
    families = spec["families"]
    original = out["after"]["original_labeling"]
    graphs = [from_graph6(g6) for g6, _ in spec["graphs"]]
    facts_cache: dict = {}
    checked: set = set()
    for i, res in enumerate(out["outputs"]):
        gi, fi = divmod(i, len(families))
        family = families[fi]
        where = _op(out, i)
        if res is None:
            err = out["errors"][str(i)]
            if not err.startswith("RootFindingError"):
                problems.append(f"{where}: failed with {err}")
            continue
        coeffs = res["coeffs"]
        if coeffs != original[gi][fi]:
            problems.append(f"{where}: value changes under relabeling")
        rep = res["report"]
        if (rep is None) != (not coeffs):
            problems.append(f"{where}: report present iff nonzero violated")
            continue
        if rep is None:
            continue
        # equal inputs give equal reports; check each distinct pair once
        g = graphs[gi]
        key = (family, json.dumps([coeffs, rep]),
               nx.number_connected_components(g) if family == "charL" else 0)
        if key in checked:
            continue
        checked.add(key)
        problems += _check_report(coeffs, rep, family, g, where, facts_cache)
    return problems


def failed_by_family(spec: dict, out: dict) -> dict[str, int]:
    families = spec.get("families")
    counts: dict[str, int] = {}
    for i in out["errors"]:
        fam = (families[int(i) % len(families)] if families
               else out["labels"][int(i)])
        counts[fam] = counts.get(fam, 0) + 1
    return counts


# -- relocate -----------------------------------------------------------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _quadrant_product(n: int, m: int, k: int) -> list[int]:
    """prod over (a,b,c) in permutations(n,m,k), both halves, of
    c^2 X^2 -+ 2ac X + (a^2 + b^2)."""
    acc = [1]
    for a, b, c in itertools.permutations((n, m, k)):
        for sign in (-1, 1):
            acc = _mul(acc, [a * a + b * b, sign * 2 * a * c, c * c])
    return acc


def _eval_gaussian(coeffs, re: Fraction, im: Fraction):
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = (acc_re * re - acc_im * im + c,
                          acc_re * im + acc_im * re)
    return acc_re, acc_im


def check_relocate(spec: dict, out: dict) -> list[str]:
    problems = []
    prime, points = spec["prime"], spec["points"]
    n_rt, n_named = len(spec["round_trips"]), len(spec["named"])
    prefactors: dict = {}
    for i, res in enumerate(out["outputs"]):
        j = spec["order"][i]  # index into round trips + named + density
        where = _op(out, i)
        if res is None:
            problems.append(f"{where}: failed with {out['errors'][str(i)]}")
            continue
        if j < n_rt:
            p = res["p"]
            if res["back"] != p:
                problems.append(f"{where}: round trip returned {res['back']}"
                                f" for {p}")
            # interleave, then realify over 0..s with s = max(deg q, 0)
            q = []
            for h in p:
                q += [h, 0] if h >= 0 else [0, -h]
            while q and q[-1] == 0:
                q.pop()
            q = q or [0]
            if res["degree"] != sum(c + 1 for c in q):
                problems.append(f"{where}: realify degree {res['degree']}, "
                                f"expected {sum(c + 1 for c in q)}")
            for x, got in zip(points, res["fingerprint"]):
                want = 1
                for root, h in enumerate(q):
                    want = want * pow(x - root, h + 1, prime) % prime
                if got != want:
                    problems.append(f"{where}: realify output differs from "
                                    f"prod (X-i)^(q_i+1) mod p at X={x}")
                    break
        elif j < n_rt + n_named:
            g6, _, name = spec["named"][j - n_rt]
            p, got = res["p"], res["out"]
            if name == "negate":
                want = [lambda x: eval_mod(p, -x, prime)]
            elif name == "square":
                want = [lambda x: eval_mod(p, x * x, prime)]
            elif name in ("rouche", "scale"):
                params = res["params"]
                a = (int(params["A"]) if name == "rouche"
                     else int(params["n"]) ** int(params["r"]))
                want = [lambda x, a=a: eval_mod(p, a * x, prime)]
                lead = abs(got[-1])
                if 1 + Fraction(max((abs(c) for c in got[:-1]), default=0),
                                lead) > 2:
                    problems.append(f"{where}: 1 + max|h_i|/|h_d| > 2")
            else:  # densify: quadrant prefactor (from its formula) times p
                triple = _triple(from_graph6(g6))
                if triple not in prefactors:
                    prefactors[triple] = _quadrant_product(*triple)
                    problems += _check_vanishing(prefactors[triple], triple,
                                                 where)
                want = []
                if got != _mul(prefactors[triple], p):
                    problems.append(f"{where}: densify output is not the "
                                    f"quadrant prefactor of {triple} times p")
            for fn in want:
                if any(eval_mod(got, x, prime) != fn(x) for x in points):
                    problems.append(f"{where}: {name} output disagrees at "
                                    "seeded points")
        else:
            problems += _check_density(
                spec["density"][j - n_rt - n_named], res, where,
                last=j == len(out["outputs"]) - 1, prefactors=prefactors)
    return problems


def _check_vanishing(prefactor, triple, where) -> list[str]:
    for a, b, c in itertools.permutations(triple):
        for sa, sb in itertools.product((1, -1), repeat=2):
            if _eval_gaussian(prefactor, Fraction(sa * a, c),
                              Fraction(sb * b, c)) != (0, 0):
                return [f"{where}: prefactor of {triple} does not vanish at "
                        f"({sa * a}{sb * b:+}i)/{c}"]
    return []


def _check_density(target, w, where, last: bool, prefactors: dict
                   ) -> list[str]:
    problems = []
    re, im, eps = (Fraction(v) for v in target)
    a, b, c = w["abc"]
    root = (Fraction(a, c), Fraction(b, c))
    if [str(root[0]), str(root[1])] != w["root"]:
        problems.append(f"{where}: root {w['root']} is not (a+bi)/c")
    dist = (root[0] - re) ** 2 + (root[1] - im) ** 2
    if dist != Fraction(w["distance_sq"]) or not dist < eps * eps:
        problems.append(f"{where}: witness root not within eps of target")
    g = nx.empty_graph(w["graph_n"])
    g.add_edges_from(w["edges"])
    triple = _triple(g)
    if list(triple) != w["triple"]:
        problems.append(f"{where}: witness graph has (n,m,k) {triple}, "
                        f"reported {w['triple']}")
    if sorted(triple) != sorted(w["scale"] * v for v in (a, b, c)):
        problems.append(f"{where}: (n,m,k) is not the scaled (a,b,c)")
    # the quadrant product of the graph's own (n, m, k), from its formula,
    # must vanish exactly at the root; its float residual is recomputed
    if triple not in prefactors:
        prefactors[triple] = _quadrant_product(*triple)
    if _eval_gaussian(prefactors[triple], *root) != (0, 0):
        problems.append(f"{where}: the quadrant product of {triple} does not "
                        "vanish at the root")
    residual = _relative_residual(prefactors[triple],
                                  complex(float(root[0]), float(root[1])))
    if not residual <= RESIDUAL_TOL:
        problems.append(f"{where}: residual {residual:.3e} at the root")
    if last and triple != (12, 18, 6):
        problems.append(f"{where}: worked case gives {triple}, "
                        "expected (12, 18, 6)")
    return problems


CHECKS = {"census": check_census, "root-cloud": check_root_cloud,
          "relocate": check_relocate}
