"""Batch command-line front end.

Subcommands: poly, roots, transform, equiv, prefactor, density, enum,
scatter.  All numeric output is printed as decimal strings with fixed
precision and results are printed in input order.

Exit codes: 0 success, 1 verification did not PASS, 2 usage error or
malformed input (any ``ValueError`` or ``OSError``, such as a bad spec or an
unreadable graph6 file) or an input too deep for Python's recursion limit
(``RecursionError``), 3 root finding failed (``RootFindingError``: numeric
roots not certified, or past the integer-root caps of the exact layer).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .catalog import FAMILY_NAMES, family_polynomial
from .equivalence import dp_compare
from .graphs import (Graph, enumerate_graph6, enumerate_graphs,
                     graph_to_graph6, named_graph, read_graph6_lines,
                     similarity_triple, tree_from_prufer)
from .polynomials import IntPoly, MultiPoly, poly_to_json
from .roots import RootFindingError, root_report, scatter_rows
from .simfun import ReductionSpec, verify_prefactor_reduction
from .transforms import TRANSFORM_NAMES, apply_named_transform, density_witness

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
        text = sys.stdin.read()
    else:
        with open(args.graph6, "r", encoding="ascii") as fh:
            text = fh.read()
    return read_graph6_lines(text)


class UsageError(ValueError):
    pass


def _check_family(name: str):
    if name not in FAMILY_NAMES:
        raise UsageError(
            f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")


def _univariate(family: str, g: Graph, message: str) -> IntPoly:
    p = family_polynomial(family, g)
    if isinstance(p, MultiPoly):
        raise UsageError(message)
    return p


# -- subcommand implementations --------------------------------------------------

def cmd_poly(args) -> int:
    _check_family(args.family)
    lines = []
    for g in _load_source(args):
        if args.format == "json":
            lines.append(poly_to_json(family_polynomial(args.family, g)))
        else:
            p = _univariate(args.family, g,
                            f"family {args.family} is multivariate; "
                            "--format csv needs a univariate family")
            lines.append(f"{graph_to_graph6(g)},{args.family},"
                         f"{';'.join(map(str, p.coeffs))}")
    for line in lines:
        print(line)
    return 0


def cmd_roots(args) -> int:
    _check_family(args.family)
    lines = []
    for g in _load_source(args):
        p = _univariate(args.family, g,
                        f"family {args.family} is multivariate; roots need "
                        "a univariate family")
        obj = {"graph6": graph_to_graph6(g), "family": args.family}
        if p.is_zero():
            obj.update(report=None, note="zero polynomial")
        else:
            obj["report"] = json.loads(root_report(p).to_json())
        lines.append(json.dumps(obj))
    for line in lines:
        print(line)
    return 0


def cmd_transform(args) -> int:
    _check_family(args.family)
    chain = [s for s in args.chain.split(",") if s]
    for step in chain:
        name = step.partition(":")[0]
        if name not in TRANSFORM_NAMES:
            raise UsageError(f"unknown transform {name!r}; known: "
                             f"{', '.join(TRANSFORM_NAMES)}")
    lines = []
    for g in _load_source(args):
        p = _univariate(args.family, g,
                        "transform chains apply to univariate families")
        t = similarity_triple(g)
        for step in chain:
            name, _, steparg = step.partition(":")
            record = apply_named_transform(name, p, t, steparg or None)
            obj = json.loads(record.to_json())
            obj["graph6"] = graph_to_graph6(g)
            obj["family"] = args.family
            lines.append(json.dumps(obj))
            p = record.output
    for line in lines:
        print(line)
    return 0


def cmd_equiv(args) -> int:
    _check_family(args.left)
    _check_family(args.right)
    verdict = dp_compare(args.left, args.right, args.nmax)
    print(verdict.to_json())
    return 0


def cmd_prefactor(args) -> int:
    if args.spec_json is not None:
        with open(args.spec_json, "r", encoding="utf-8") as fh:
            spec = ReductionSpec.from_json(fh.read())
    else:
        spec = ReductionSpec.from_json(args.spec)
    corpus = _load_source(args)
    verdict = verify_prefactor_reduction(spec, corpus)
    print(verdict.to_json())
    return 0 if verdict.status == "PASS" else 1


def cmd_density(args) -> int:
    try:
        re_s, im_s = args.target.split(",")
        re, im, eps = Fraction(re_s), Fraction(im_s), Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise UsageError("--target needs RE,IM and --eps a value, "
                         "each an exact rational") from None
    witness = density_witness(re, im, eps)
    print(json.dumps(witness.to_json_dict()))
    return 0


def cmd_enum(args) -> int:
    if args.m is None and args.k is None:
        lines = enumerate_graph6(args.n)
    elif args.m is None or args.k is None:
        raise UsageError("--m and --k must be given together")
    else:
        mk = (args.m, args.k)
        lines = map(graph_to_graph6, enumerate_graphs(args.n, mk))
    for line in lines:
        print(line)
    return 0


def cmd_scatter(args) -> int:
    _check_family(args.family)
    graphs = _load_source(args)
    print(SCATTER_HEADER)
    rows = []
    for g in graphs:
        p = _univariate(args.family, g, "scatter needs a univariate family")
        rows.extend(scatter_rows(p, graph_to_graph6(g), args.family))
    for row in rows:
        print(",".join(row))
    return 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpoly",
        description="graph polynomial workbench: compute, transform, analyze "
                    "roots, scan distinctive power")
    subs = parser.add_subparsers(dest="command", required=True)

    p_poly = subs.add_parser("poly", help="compute a family over a source")
    p_poly.add_argument("--family", required=True)
    p_poly.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv needs a univariate family")
    _add_source_args(p_poly)
    p_poly.set_defaults(func=cmd_poly)

    p_roots = subs.add_parser("roots", help="root reports for a family")
    p_roots.add_argument("--family", required=True)
    _add_source_args(p_roots)
    p_roots.set_defaults(func=cmd_roots)

    p_tr = subs.add_parser("transform", help="apply a transform chain")
    p_tr.add_argument("--family", required=True)
    p_tr.add_argument("--chain", required=True,
                      help="comma list, e.g. interleave,realify or scale:2")
    _add_source_args(p_tr)
    p_tr.set_defaults(func=cmd_transform)

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

    p_sc = subs.add_parser("scatter", help="CSV root cloud for plotting")
    p_sc.add_argument("--family", required=True)
    _add_source_args(p_sc)
    p_sc.set_defaults(func=cmd_scatter)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
