"""Batch command-line front end.

Subcommands: poly, roots, transform, equiv, prefactor, density, enum,
scatter.  Records hand this module JSON objects (``to_json_dict``) whose
numbers are decimal strings of fixed precision; it writes all the text, one
``json.dumps`` a line, in input order and only after the command has
returned, so a failure prints none of it.  Scatter alone prints its CSV
header first: once the family, its arity and the source are checked, before
its rows are computed.

Exit codes: 0 success, 1 verification did not PASS, 2 usage error or
malformed input (any ``ValueError`` or ``OSError``, such as a bad spec, an
unreadable graph6 file or a ``--named`` size above ``sys.maxsize``) or an
input too deep for Python's recursion limit (``RecursionError``), 3 root
finding failed (``RootFindingError``: numeric roots not certified, or past
the integer-root caps of the exact layer).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .catalog import FAMILY_ARITY, family_polynomial, unknown_family
from .equivalence import dp_compare
from .graphs import (Graph, enumerate_graph6, enumerate_graphs,
                     graph_to_graph6, named_graph, read_graph6_lines,
                     similarity_triple, tree_from_prufer)
from .polynomials import poly_to_json
from .roots import RootFindingError, root_report, scatter_rows
from .simfun import ReductionSpec, verify_prefactor_reduction
from .transforms import apply_named_transform, density_witness, parse_chain

SCATTER_HEADER = "re,im,modulus,graph6,family"


# -- graph sources ------------------------------------------------------------

def _add_source_args(sub: argparse.ArgumentParser):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--enum", type=int, metavar="N",
                     help="isomorph-free enumeration of all n-vertex graphs")
    src.add_argument("--named", metavar="FAMILY:ARG",
                     help="named graph, e.g. complete:3, cycle:4, star:3, "
                          "path:5, prufer:0-1-2")
    src.add_argument("--graph6", metavar="PATH",
                     help="file of graph6 lines, or - for stdin")


def _load_source(args) -> list[Graph]:
    if args.enum is not None:
        return enumerate_graphs(args.enum)
    if args.named is not None:
        family, _, arg = args.named.partition(":")
        if not arg:
            raise UsageError(f"--named needs FAMILY:ARG, got {args.named!r}")
        if family == "prufer":
            fields = arg.replace(",", "-").split("-")
            if "" in fields:
                raise UsageError(f"empty Prüfer symbol in {args.named!r}")
            return [tree_from_prufer([int(x) for x in fields])]
        return [named_graph(family, int(arg))]
    if args.graph6 == "-":
        return read_graph6_lines(sys.stdin.read())
    return read_graph6_lines(Path(args.graph6).read_text(encoding="ascii"))


class UsageError(ValueError):
    pass


def _check_family(name: str):
    if name not in FAMILY_ARITY:
        raise UsageError(unknown_family(name))


def _family_values(args, multivariate: str | None = None):
    """Check ``--family`` and read the source now (before scatter prints its
    header); the returned iterator yields (graph, family value) pairs as it
    is consumed.  A bivariate family raises the *multivariate* message, when
    one is given, before the source is read."""
    _check_family(args.family)
    if multivariate and FAMILY_ARITY[args.family] == 2:
        raise UsageError(multivariate)
    return ((g, family_polynomial(args.family, g)) for g in _load_source(args))


# -- subcommand implementations --------------------------------------------------
# each returns (exit code, output lines) for main to print

def cmd_poly(args) -> tuple[int, list[str]]:
    if args.format == "json":
        return 0, [poly_to_json(p) for _, p in _family_values(args)]
    pairs = _family_values(args, f"family {args.family} is multivariate; "
                                 "--format csv needs a univariate family")
    return 0, [f"{graph_to_graph6(g)},{args.family},"
               f"{';'.join(map(str, p.coeffs))}" for g, p in pairs]


def cmd_roots(args) -> tuple[int, list[str]]:
    lines = []
    for g, p in _family_values(args, f"family {args.family} is multivariate; "
                                     "roots need a univariate family"):
        obj = {"graph6": graph_to_graph6(g), "family": args.family}
        if p.is_zero():
            obj.update(report=None, note="zero polynomial")
        else:
            obj["report"] = root_report(p).to_json_dict()
        lines.append(json.dumps(obj))
    return 0, lines


def cmd_transform(args) -> tuple[int, list[str]]:
    try:
        chain = parse_chain(args.chain)
    except ValueError as exc:
        raise UsageError(exc) from None
    lines = []
    for g, p in _family_values(
            args, "transform chains apply to univariate families"):
        t = similarity_triple(g)
        for name, arg in chain:
            record = apply_named_transform(name, p, t, arg)
            lines.append(json.dumps({**record.to_json_dict(),
                                     "graph6": graph_to_graph6(g),
                                     "family": args.family}))
            p = record.output
    return 0, lines


def cmd_equiv(args) -> tuple[int, list[str]]:
    _check_family(args.left)
    _check_family(args.right)
    verdict = dp_compare(args.left, args.right, args.nmax)
    return 0, [json.dumps(verdict.to_json_dict())]


def cmd_prefactor(args) -> tuple[int, list[str]]:
    text = args.spec if args.spec_json is None else \
        Path(args.spec_json).read_text(encoding="utf-8")
    verdict = verify_prefactor_reduction(ReductionSpec.from_json(text),
                                         _load_source(args))
    return int(verdict.status != "PASS"), [json.dumps(verdict.to_json_dict())]


def cmd_density(args) -> tuple[int, list[str]]:
    try:
        re_s, im_s = args.target.split(",")
        re, im, eps = Fraction(re_s), Fraction(im_s), Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--target needs RE,IM and --eps a value, "
                         "each an exact rational") from None
    return 0, [json.dumps(density_witness(re, im, eps).to_json_dict())]


def cmd_enum(args) -> tuple[int, list[str]]:
    if args.m is None and args.k is None:
        return 0, enumerate_graph6(args.n)
    if args.m is None or args.k is None:
        raise UsageError("--m and --k must be given together")
    return 0, [graph_to_graph6(g)
               for g in enumerate_graphs(args.n, (args.m, args.k))]


def cmd_scatter(args) -> tuple[int, list[str]]:
    pairs = _family_values(args, "scatter needs a univariate family")
    print(SCATTER_HEADER)  # before the rows are computed
    return 0, [",".join((*row, g6, args.family)) for g, p in pairs
               for g6 in [graph_to_graph6(g)] for row in scatter_rows(p)]


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpoly",
        description="graph polynomial workbench: compute, transform, analyze "
                    "roots, scan distinctive power")
    subs = parser.add_subparsers(dest="command", required=True)

    def family_command(name, func, help, **options):
        sub = subs.add_parser(name, help=help)
        sub.add_argument("--family", required=True)
        for option, kwargs in options.items():
            sub.add_argument(f"--{option}", **kwargs)
        _add_source_args(sub)
        sub.set_defaults(func=func)

    family_command("poly", cmd_poly, "compute a family over a source",
                   format=dict(choices=("json", "csv"), default="json",
                               help="csv needs a univariate family"))
    family_command("roots", cmd_roots, "root reports for a family")
    family_command("transform", cmd_transform, "apply a transform chain",
                   chain=dict(required=True, help="comma list, e.g. "
                              "interleave,realify or scale:2"))

    p_eq = subs.add_parser("equiv", help="distinctive-power comparison")
    p_eq.add_argument("--left", required=True)
    p_eq.add_argument("--right", required=True)
    p_eq.add_argument("--nmax", type=int, default=5)
    p_eq.set_defaults(func=cmd_equiv)

    p_pf = subs.add_parser("prefactor", help="verify a prefactor reduction")
    spec_group = p_pf.add_mutually_exclusive_group(required=True)
    spec_group.add_argument("--spec", help="inline reduction-spec JSON")
    spec_group.add_argument("--spec-json", help="path to reduction-spec JSON")
    _add_source_args(p_pf)
    p_pf.set_defaults(func=cmd_prefactor)

    p_de = subs.add_parser("density", help="constructive density witness")
    p_de.add_argument("--target", required=True, metavar="RE,IM")
    p_de.add_argument("--eps", required=True)
    p_de.set_defaults(func=cmd_density)

    p_en = subs.add_parser("enum", help="graph6 lines of all n-vertex graphs")
    p_en.add_argument("--n", type=int, required=True)
    p_en.add_argument("--m", type=int)
    p_en.add_argument("--k", type=int)
    p_en.set_defaults(func=cmd_enum)

    family_command("scatter", cmd_scatter, "CSV root cloud for plotting")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, lines = args.func(args)
    except (ValueError, OSError, RecursionError, RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            parser.print_usage(sys.stderr)
        return 3 if isinstance(exc, RootFindingError) else 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
