"""Similarity-function expressions and prefactor-reduction verification.

A similarity expression is built from integer literals, the triple symbols
n, m, k, nu, rho and the indeterminates X1..X5 with +, -, * and ^.  Exponents
are integer literals or indeterminate-free subexpressions, so evaluating an
expression at a similarity triple lands in Z[X] when it names at most one
indeterminate, or in Q at a point of rationals for the indeterminates; two
graphs with the same triple get the same value by construction.

Grammar (tokens are ASCII digits, ASCII letters and ``+ - * ^ ( )``)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' exponent)?
    atom     := INT | 'n' | 'm' | 'k' | 'nu' | 'rho' | 'X1'..'X5' | '(' expr ')'
    exponent := ['-'] INT | symbolic-atom

The optional exponent sign is the one extension over the plain grammar: it
expresses reciprocal substitutions like X1^-2.  Negative exponents are only
legal on the point-evaluation path (pole-avoiding sampling); polynomial
evaluation rejects them.

A parsed ``SimExpr`` is a postfix program: a tuple of the instructions
``("int", c)``, ``("sym", name)``, ``("var", i)`` (X1 is i = 0), ``("+",)``,
``("-",)``, ``("*",)`` and ``("^", e)``, which raises the top of the stack to
e, an int or the program of an indeterminate-free exponent.  A parenthesised
literal exponent is stored as an int, so ``X1^(2) == X1^2``.  Programs compare
and hash as tuples, and ``_run`` is the one loop that interprets them.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .catalog import FAMILY_ARITY, family_polynomial
from .graphs import Graph, SimilarityTriple, graph_to_graph6, similarity_triple
from .polynomials import X, IntPoly, MultiPoly, evaluate

SYMBOLS = ("n", "m", "k", "nu", "rho")

SimExpr = tuple[tuple, ...]

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class SimParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} at position {pos}")


class PoleError(ZeroDivisionError):
    """A substitution hit a pole of a reciprocal similarity function."""


# -- tokenizer/parser -------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)|(?P<OP>[-+*^()]))?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens, i = [], 0
    while True:
        m = _TOKEN.match(text, i)
        i = m.end()
        if m.lastgroup is None:
            if i == len(text):
                return tokens + [("EOF", "", i)]
            raise SimParseError(f"unexpected character {text[i]!r}", i)
        value = m.group(m.lastgroup)
        kind = value if m.lastgroup == "OP" else m.lastgroup
        tokens.append((kind, value, m.start(m.lastgroup)))


class _Parser:
    """Recursive descent that appends each instruction to one list."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.code: list[tuple] = []

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

    def literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # past Python's int-from-text digit limit
            raise SimParseError(
                f"integer literal of {len(tok[1])} digits is too long",
                tok[2]) from None

    def parse(self) -> SimExpr:
        self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise SimParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return tuple(self.code)

    def expr(self):
        self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            self.term()
            self.code.append((op,))

    def term(self):
        self.factor()
        while self.peek()[0] == "*":
            self.advance()
            self.factor()
            self.code.append(("*",))

    def factor(self):
        self.atom()
        if self.peek()[0] == "^":
            self.advance()
            self.code.append(("^", self.exponent()))

    def exponent(self) -> Union[int, SimExpr]:
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return -self.literal(self.expect("INT"))
        start = len(self.code)
        self.atom()
        exp = tuple(self.code[start:])
        del self.code[start:]
        if any(ins[0] == "var" for ins in exp):
            raise SimParseError("indeterminate in exponent", tok[2])
        return exp[0][1] if exp[0][0] == "int" and len(exp) == 1 else exp

    def atom(self):
        tok = kind, value, pos = self.advance()
        if kind == "INT":
            self.code.append(("int", self.literal(tok)))
        elif kind == "NAME" and value in SYMBOLS:
            self.code.append(("sym", value))
        elif kind == "NAME" and re.fullmatch("X[1-5]", value):
            self.code.append(("var", int(value[1]) - 1))
        elif kind == "NAME":
            raise SimParseError(f"unknown name {value!r}", pos)
        elif kind == "(":
            self.expr()
            self.expect(")")
        else:
            raise SimParseError(f"unexpected token {value!r}", pos)


def parse_simexpr(text: str) -> SimExpr:
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise SimParseError("expression nested too deeply",
                            parser.peek()[2]) from None


def _run(e: SimExpr, atom, binary, power):
    """Interpret the program e on one stack: atom(ins) for "int", "sym" and
    "var", binary(op, a, b) for + - * and power(exponent, base) for ^."""
    stack: list = []
    for ins in e:
        if ins[0] in _BINARY:
            b = stack.pop()
            stack.append(binary(ins[0], stack.pop(), b))
        elif ins[0] == "^":
            stack.append(power(ins[1], stack.pop()))
        else:
            stack.append(atom(ins))
    return stack.pop()


def format_simexpr(e: SimExpr) -> str:
    """Inverse of parse_simexpr up to whitespace and redundant parentheses.

    Each operand is a (text, binding) pair, binding 1 for + and -, 2 for *,
    3 for ^ and 4 for atoms; an operand is parenthesized when it binds looser
    than its operator, or as loosely on the right (+ - * associate left; ^
    takes atoms)."""
    def wrap(operand: tuple[str, int], limit: int) -> str:
        text, binding = operand
        return f"({text})" if binding <= limit else text

    def atom(ins) -> tuple[str, int]:
        return (f"X{ins[1] + 1}" if ins[0] == "var" else str(ins[1]), 4)

    def binary(op: str, a, b) -> tuple[str, int]:
        level = 2 if op == "*" else 1
        return (f"{wrap(a, level - 1)} {op} {wrap(b, level)}", level)

    def power(exp, base) -> tuple[str, int]:
        if not isinstance(exp, int):
            exp = wrap(_run(exp, atom, binary, power), 3)
        return (f"{wrap(base, 3)}^{exp}", 3)

    return _run(e, atom, binary, power)[0]


# -- evaluation -------------------------------------------------------------------

def _resolve_exponent(exp: Union[int, SimExpr], t: SimilarityTriple) -> int:
    if isinstance(exp, int):
        return exp
    val = eval_simexpr_scalar(exp, t)
    if val < 0:
        raise ValueError(f"symbolic exponent {format_simexpr(exp)} = {val} < 0")
    return val


def _evaluate(e: SimExpr, t: SimilarityTriple, lift, var, poles: bool):
    """Evaluate e in the ring that ``lift`` maps integers into.

    ``var`` gives the value of an indeterminate from its index.  Negative
    exponents are allowed only when ``poles`` is set, and then a zero base
    raises PoleError.
    """
    def atom(ins):
        if ins[0] == "var":
            return var(ins[1])
        return lift(ins[1] if ins[0] == "int" else getattr(t, ins[1]))

    def power(exp, base):
        exp = _resolve_exponent(exp, t)
        if exp < 0 and not poles:
            raise ValueError("negative exponent outside point evaluation")
        if exp < 0 and base == 0:
            raise PoleError(f"zero base raised to {exp}")
        return base ** exp

    return _run(e, atom, lambda op, a, b: _BINARY[op](a, b), power)


def _no_indeterminates(index: int):
    raise ValueError("expression mentions indeterminates")


def eval_simexpr_scalar(e: SimExpr, t: SimilarityTriple) -> int:
    """Evaluate an indeterminate-free expression to an integer."""
    return _evaluate(e, t, int, _no_indeterminates, poles=False)


def eval_simexpr(e: SimExpr, t: SimilarityTriple) -> IntPoly:
    """Evaluate to a polynomial in X, the one indeterminate that e names;
    naming two different indeterminates raises ValueError."""
    named = set()

    def var(index: int) -> IntPoly:
        named.add(index)
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
    def var(index: int) -> Fraction:
        if index >= len(point):
            raise ValueError(f"point does not bind X{index + 1}")
        return Fraction(point[index])

    return _evaluate(e, t, Fraction, var, poles=True)


def _degree_bounds(e: SimExpr, t: SimilarityTriple) -> tuple[int, int]:
    """(max positive, max negative) total-degree bound in the indeterminates."""
    def binary(op: str, a, b):
        if op == "*":
            return (a[0] + b[0], a[1] + b[1])
        return (max(a[0], b[0]), max(a[1], b[1]))

    def power(exp, base):
        exp = _resolve_exponent(exp, t)
        return (base[0] * exp, base[1] * exp) if exp >= 0 \
            else (base[1] * -exp, base[0] * -exp)

    return _run(e, lambda ins: (int(ins[0] == "var"), 0), binary, power)


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
    many sample points (distinct from FAIL).  A graph needs
    ``points_required`` = (degree bound + 1) ** arity valid points, since a
    bivariate identity is sampled on a grid; the verdict reports that count
    and ``min_valid_points`` for the graph with the least slack on PASS, and
    for the graph that stopped the run on FAIL or INCONCLUSIVE.
    """
    arity_p = FAMILY_ARITY[spec.family_p]
    arity_q = FAMILY_ARITY[spec.family_q]
    if len(spec.subs) != arity_q:
        raise ValueError(
            f"{spec.family_q} needs {arity_q} substitutions, "
            f"got {len(spec.subs)}")

    def verdict(status, needed=0, valid=0, counterexample=None):
        return ReductionVerdict(status, len(corpus), needed, valid,
                                counterexample)

    tightest = None  # (needed, valid) of the passing graph with least slack
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
        needed = required ** arity_p

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
                return verdict("FAIL", needed, valid, Counterexample(
                    graph_to_graph6(g), pt, lhs, rhs))
            valid += 1
        if valid < needed:
            return verdict("INCONCLUSIVE", needed, valid)
        if tightest is None or valid - needed < tightest[1] - tightest[0]:
            tightest = (needed, valid)
    return verdict("PASS", *(tightest or ()))


def _eval_family(poly, point: tuple[Fraction, ...]) -> Fraction:
    if isinstance(poly, MultiPoly):
        return Fraction(poly.evaluate(point))
    if len(point) != 1:
        raise ValueError("univariate family takes one point coordinate")
    return Fraction(evaluate(poly, point[0]))
