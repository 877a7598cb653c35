"""Similarity-function expressions and prefactor-reduction verification.

A similarity expression is built from integer literals, the triple symbols
n, m, k, nu, rho and the indeterminates X1..X5 with +, -, * and ^.  Exponents
are integer literals or indeterminate-free subexpressions, so evaluating an
expression at a similarity triple lands in Z[X] when it names at most one
indeterminate, or in Q at a point of rationals for the indeterminates; two
graphs with the same triple get the same value by construction.

Grammar::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' exponent)?
    atom     := INT | 'n' | 'm' | 'k' | 'nu' | 'rho' | 'X1'..'X5' | '(' expr ')'
    exponent := ['-'] INT | symbolic-atom

The optional exponent sign is the one extension over the plain grammar: it
expresses reciprocal substitutions like X1^-2.  Negative exponents are only
legal on the point-evaluation path (pole-avoiding sampling); polynomial
evaluation rejects them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .catalog import FAMILY_ARITY, family_polynomial
from .graphs import Graph, SimilarityTriple, graph_to_graph6, similarity_triple
from .polynomials import X, IntPoly, MultiPoly, evaluate

SYMBOLS = ("n", "m", "k", "nu", "rho")


class SimParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} at position {pos}")


class PoleError(ZeroDivisionError):
    """A substitution hit a pole of a reciprocal similarity function."""


# -- AST ------------------------------------------------------------------------

class _Node:
    """Nodes compare and hash by their ``format_simexpr`` text, which
    round-trips through the parser and is built without recursion."""

    def __eq__(self, other):
        return (isinstance(other, _Node)
                and format_simexpr(self) == format_simexpr(other))

    def __hash__(self):
        return hash(format_simexpr(self))


@dataclass(frozen=True, eq=False)
class Lit(_Node):
    value: int


@dataclass(frozen=True, eq=False)
class Sym(_Node):
    name: str


@dataclass(frozen=True, eq=False)
class Var(_Node):
    index: int  # 0-based; X1 is index 0


@dataclass(frozen=True, eq=False)
class BinOp(_Node):
    op: str  # '+', '-', '*'
    left: "SimExpr"
    right: "SimExpr"


@dataclass(frozen=True, eq=False)
class Pow(_Node):
    base: "SimExpr"
    exponent: Union[int, "SimExpr"]  # int may be negative (extension)


SimExpr = Union[Lit, Sym, Var, BinOp, Pow]


# -- tokenizer/parser -------------------------------------------------------------

_TOKEN_CHARS = set("+-*^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise SimParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = 0  # Var nodes built so far

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise SimParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self) -> SimExpr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise SimParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return e

    def expr(self) -> SimExpr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> SimExpr:
        e = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            e = BinOp("*", e, self.factor())
        return e

    def factor(self) -> SimExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> Union[int, SimExpr]:
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            val = self.expect("INT")
            return -int(val[1])
        if tok[0] == "INT":
            self.advance()
            return int(tok[1])
        before = self.vars
        e = self.atom()
        if self.vars > before:
            raise SimParseError("indeterminate in exponent", tok[2])
        return e

    def atom(self) -> SimExpr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "INT":
            return Lit(int(value))
        if kind == "NAME":
            if value in SYMBOLS:
                return Sym(value)
            if (len(value) == 2 and value[0] == "X"
                    and value[1] in "12345"):
                self.vars += 1
                return Var(int(value[1]) - 1)
            raise SimParseError(f"unknown name {value!r}", pos)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise SimParseError(f"unexpected token {value!r}", pos)


def parse_simexpr(text: str) -> SimExpr:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise SimParseError("expression nested too deeply",
                            parser.peek()[2]) from None


_ATOMS = (Lit, Sym, Var)


def _fold(e: SimExpr, leaf, binop, power):
    """Post-order fold of e without recursion, so flat sums of any length
    are safe: leaf(node) on atoms, binop(node, left, right) and
    power(node, base) on the folded children.  A symbolic exponent is not
    walked; ``power`` reads it from the node."""
    order, stack = [], [e]  # node, right, left: post-order reversed
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, BinOp):
            stack += (node.left, node.right)
        elif isinstance(node, Pow):
            stack.append(node.base)
    out: list = []
    for node in reversed(order):
        if isinstance(node, _ATOMS):
            out.append(leaf(node))
        elif isinstance(node, BinOp):
            right = out.pop()
            out.append(binop(node, out.pop(), right))
        elif isinstance(node, Pow):
            out.append(power(node, out.pop()))
        else:
            raise TypeError(f"not a SimExpr: {node!r}")
    return out[0]


def _binding(e: SimExpr) -> int:
    """How tightly e binds: + and - loosest, then *, then ^, then atoms."""
    if isinstance(e, BinOp):
        return 2 if e.op == "*" else 1
    return 3 if isinstance(e, Pow) else 4


def format_simexpr(e: SimExpr) -> str:
    """Inverse of parse_simexpr up to whitespace and redundant parentheses:
    an operand is parenthesized when it binds looser than its operator, or as
    loosely on the right (+ - * associate left; ^ takes atoms)."""
    def wrap(text: str, node: SimExpr, limit: int) -> str:
        return f"({text})" if _binding(node) <= limit else text

    def leaf(node) -> str:
        if isinstance(node, Lit):
            return str(node.value)
        return node.name if isinstance(node, Sym) else f"X{node.index + 1}"

    def binop(node: BinOp, left: str, right: str) -> str:
        level = _binding(node)
        return (f"{wrap(left, node.left, level - 1)} {node.op} "
                f"{wrap(right, node.right, level)}")

    def power(node: Pow, base: str) -> str:
        exp = node.exponent
        if not isinstance(exp, int):
            exp = wrap(format_simexpr(exp), exp, 3)
        return f"{wrap(base, node.base, 3)}^{exp}"

    return _fold(e, leaf, binop, power)


# -- evaluation -------------------------------------------------------------------

def _resolve_exponent(e: Pow, t: SimilarityTriple) -> int:
    if isinstance(e.exponent, int):
        return e.exponent
    val = eval_simexpr_scalar(e.exponent, t)
    if val < 0:
        raise ValueError(
            f"symbolic exponent {format_simexpr(e.exponent)} = {val} < 0")
    return val


def _evaluate(e: SimExpr, t: SimilarityTriple, lift, var, poles: bool):
    """Evaluate e in the ring that ``lift`` maps integers into.

    ``var`` gives the value of an indeterminate.  Negative exponents are
    allowed only when ``poles`` is set, and then a zero base raises PoleError.
    """
    def leaf(node):
        if isinstance(node, Var):
            return var(node)
        value = node.value if isinstance(node, Lit) else getattr(t, node.name)
        return lift(value)

    def binop(node: BinOp, a, b):
        return a + b if node.op == "+" else a - b if node.op == "-" else a * b

    def power(node: Pow, base):
        exp = _resolve_exponent(node, t)
        if exp < 0 and not poles:
            raise ValueError("negative exponent outside point evaluation")
        if exp < 0 and base == 0:
            raise PoleError(f"{format_simexpr(node)} at a zero base")
        return base ** exp

    return _fold(e, leaf, binop, power)


def _no_indeterminates(node: Var):
    raise ValueError("expression mentions indeterminates")


def eval_simexpr_scalar(e: SimExpr, t: SimilarityTriple) -> int:
    """Evaluate an indeterminate-free expression to an integer."""
    return _evaluate(e, t, int, _no_indeterminates, poles=False)


def eval_simexpr(e: SimExpr, t: SimilarityTriple) -> IntPoly:
    """Evaluate to a polynomial in X, the one indeterminate that e names;
    naming two different indeterminates raises ValueError."""
    named = set()

    def var(v: Var) -> IntPoly:
        named.add(v.index)
        if len(named) > 1:
            raise ValueError("expression mentions more than one indeterminate")
        return X

    return _evaluate(e, t, lambda c: IntPoly((c,)), var, poles=False)


def eval_simexpr_at_point(e: SimExpr, t: SimilarityTriple,
                          point: Sequence[Fraction]) -> Fraction:
    """Exact evaluation with indeterminates bound to rationals; poles raise.

    This is the path where negative exponents (reciprocal similarity
    functions) are allowed.
    """
    def var(v: Var) -> Fraction:
        if v.index >= len(point):
            raise ValueError(f"point does not bind X{v.index + 1}")
        return Fraction(point[v.index])

    return _evaluate(e, t, Fraction, var, poles=True)


def _degree_bounds(e: SimExpr, t: SimilarityTriple) -> tuple[int, int]:
    """(max positive, max negative) total-degree bound in the indeterminates."""
    def binop(node: BinOp, a, b):
        if node.op == "*":
            return (a[0] + b[0], a[1] + b[1])
        return (max(a[0], b[0]), max(a[1], b[1]))

    def power(node: Pow, base):
        exp = _resolve_exponent(node, t)
        return (base[0] * exp, base[1] * exp) if exp >= 0 \
            else (base[1] * -exp, base[0] * -exp)

    return _fold(e, lambda node: (int(isinstance(node, Var)), 0), binop, power)


# -- prefactor reductions -----------------------------------------------------------

@dataclass(frozen=True)
class ReductionSpec:
    """Claim: family_p(G; Y) = prefactor(G; Y) * family_q(G; subs(G; Y))."""

    family_p: str
    family_q: str
    prefactor: SimExpr
    subs: tuple[SimExpr, ...]

    def __post_init__(self):
        for name in (self.family_p, self.family_q):
            if name not in FAMILY_ARITY:
                raise ValueError(f"unknown family {name!r}; known: "
                                 f"{', '.join(FAMILY_ARITY)}")

    @classmethod
    def from_strings(cls, family_p: str, family_q: str, prefactor: str,
                     subs: Sequence[str]) -> "ReductionSpec":
        return cls(family_p, family_q, parse_simexpr(prefactor),
                   tuple(parse_simexpr(s) for s in subs))

    @classmethod
    def from_json(cls, text: str) -> "ReductionSpec":
        obj = json.loads(text)
        fields = ("family_p", "family_q", "prefactor")
        if not (isinstance(obj, dict) and isinstance(obj.get("subs"), list)
                and all(isinstance(v, str)
                        for v in [*map(obj.get, fields), *obj["subs"]])):
            raise ValueError("a reduction spec is a JSON object with strings "
                             "family_p, family_q, prefactor and a list of "
                             "strings subs")
        return cls.from_strings(*map(obj.get, fields), obj["subs"])

    def to_json(self) -> str:
        return json.dumps({
            "family_p": self.family_p,
            "family_q": self.family_q,
            "prefactor": format_simexpr(self.prefactor),
            "subs": [format_simexpr(s) for s in self.subs],
        })


@dataclass(frozen=True)
class Counterexample:
    graph6: str
    point: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ReductionVerdict:
    status: str  # PASS | FAIL | INCONCLUSIVE
    graphs_checked: int
    points_required: int
    min_valid_points: int
    counterexample: Optional[Counterexample]

    def to_json(self) -> str:
        ce = None
        if self.counterexample is not None:
            ce = {
                "graph6": self.counterexample.graph6,
                "point": [str(x) for x in self.counterexample.point],
                "lhs": str(self.counterexample.lhs),
                "rhs": str(self.counterexample.rhs),
            }
        return json.dumps({
            "status": self.status,
            "graphs_checked": self.graphs_checked,
            "points_required": self.points_required,
            "min_valid_points": self.min_valid_points,
            "counterexample": ce,
        })


def _candidate_values(count: int) -> list[Fraction]:
    vals = []
    j = 1
    while len(vals) < count:
        vals.extend([Fraction(j), Fraction(-j), Fraction(1, j + 1),
                     Fraction(-1, j + 1)])
        j += 1
    return vals[:count]


def verify_prefactor_reduction(spec: ReductionSpec, corpus: Sequence[Graph],
                               points: Optional[Sequence[Sequence[Fraction]]] = None
                               ) -> ReductionVerdict:
    """Exact sampling proof of a prefactor reduction over a graph corpus.

    The identity is rational in the indeterminates, so equality at
    degree-bound + 1 distinct non-pole points per variable proves it; the
    verifier enforces that count and reports INCONCLUSIVE when poles eat too
    many sample points (distinct from FAIL).
    """
    arity_p = FAMILY_ARITY[spec.family_p]
    arity_q = FAMILY_ARITY[spec.family_q]
    if len(spec.subs) != arity_q:
        raise ValueError(
            f"{spec.family_q} needs {arity_q} substitutions, "
            f"got {len(spec.subs)}")

    min_valid = None
    required_global = 0
    for g in corpus:
        t = similarity_triple(g)
        p_poly = family_polynomial(spec.family_p, g)
        q_poly = family_polynomial(spec.family_q, g)
        dp = (p_poly.total_degree() if isinstance(p_poly, MultiPoly)
              else p_poly.degree)
        dq = (q_poly.total_degree() if isinstance(q_poly, MultiPoly)
              else q_poly.degree)
        dq = max(dq, 0)
        fp, fn = _degree_bounds(spec.prefactor, t)
        bounds = [_degree_bounds(s, t) for s in spec.subs]
        sp, sn = map(max, zip((0, 0), *bounds))
        required = max(max(dp, 0), fp + dq * sp) + fn + dq * sn + 1
        required_global = max(required_global, required)

        if points is not None:
            sample = [tuple(Fraction(x) for x in pt) for pt in points]
        elif arity_p == 1:
            sample = [(x,) for x in _candidate_values(required + 4)]
        else:
            # a full (required x required) grid proves a bivariate identity
            axis = _candidate_values(required)
            sample = [(x, y) for x in axis for y in axis]
        valid = 0
        for pt in sample:
            try:
                fval = eval_simexpr_at_point(spec.prefactor, t, pt)
                sub_vals = tuple(eval_simexpr_at_point(s, t, pt)
                                 for s in spec.subs)
            except PoleError:
                continue
            lhs = _eval_family(p_poly, pt)
            rhs = fval * _eval_family(q_poly, sub_vals)
            if lhs != rhs:
                return ReductionVerdict(
                    status="FAIL",
                    graphs_checked=len(corpus),
                    points_required=required_global,
                    min_valid_points=valid,
                    counterexample=Counterexample(
                        graph_to_graph6(g), pt, lhs, rhs))
            valid += 1
        if min_valid is None or valid < min_valid:
            min_valid = valid
        needed = required if arity_p == 1 else required * required
        if valid < needed:
            return ReductionVerdict(
                status="INCONCLUSIVE",
                graphs_checked=len(corpus),
                points_required=needed,
                min_valid_points=valid,
                counterexample=None)
    return ReductionVerdict(
        status="PASS",
        graphs_checked=len(corpus),
        points_required=required_global,
        min_valid_points=min_valid or 0,
        counterexample=None)


def _eval_family(poly, point: tuple[Fraction, ...]) -> Fraction:
    if isinstance(poly, MultiPoly):
        return Fraction(poly.evaluate(point))
    if len(point) != 1:
        raise ValueError("univariate family takes one point coordinate")
    return Fraction(evaluate(poly, point[0]))
