"""One round of one workload, in a fresh single-threaded interpreter.

Usage: python3 -I perfbench/worker.py SPEC.json OUT.json T0

T0 is the parent's ``time.monotonic()`` just before it started this process;
set-up time runs from T0 until grpoly is imported and the graph6 inputs are
parsed.  The worker then times each op of the workload, optionally under the
span tracer, and writes the outputs the parent checks.  It imports nothing
but grpoly and the standard library, so its memory and start-up are grpoly's.

Times are reported at a reference host speed.  A shared host's speed drifts
by 10 to 50 % over seconds to minutes, so raw times of the same code spread
beyond any useful bound.  An untraced worker therefore times fixed
reference work (``reference``) every ``TICK_S`` from a SIGALRM handler,
subtracts the handler's time from the op it interrupted, and scales each
op's time by ``REFERENCE_S`` over the median reference time within
``WINDOW_S`` of the op.  Set-up time is scaled by a burst of
reference calls made right after it.  Raw times are reported as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# reference host speed: one ``reference()`` call takes REFERENCE_S
REFERENCE_S = 0.0008
TICK_S = 0.03
WINDOW_S = 0.25
SETUP_REFERENCE_CALLS = 15


def _parse_graphs(graph6_lines, graphs):
    return [graphs.graph_from_graph6(line) for line in graph6_lines]


# -- census -------------------------------------------------------------------

def census_ops(spec, mods, parsed):
    cli, graphs = mods["cli"], mods["graphs"]
    equivalence, simfun = mods["equivalence"], mods["simfun"]

    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return {"exit": code, "stdout": buf.getvalue()}

    n, nmax = spec["enum_n"], spec["nmax"]

    def trees():
        return [[graphs.graph_to_graph6(t)
                 for t in graphs.tree_shapes_by_prufer(n, processes=1)]
                for n in range(1, spec["tree_nmax"] + 1)]

    def collisions():
        return [{"class": [cls.triple.n, cls.triple.m, cls.triple.k],
                 "block": [graphs.graph_to_graph6(g) for g in block]}
                for cls, block in equivalence.find_collisions("charA", nmax)]

    def prefactor(p, q, factor, subs):
        rspec = simfun.ReductionSpec.from_strings(p, q, factor, subs)
        corpus = [g for n in range(1, 7) for g in graphs.enumerate_graphs(n)]
        return json.loads(
            simfun.verify_prefactor_reduction(rspec, corpus).to_json())

    def enumerate_phase():
        return {f"enum --n {n}": run_cli(["enum", "--n", str(n)])}

    def compare_phase():
        out = {}
        for left, right in (("charA", "charL"),
                            ("independence", "vertexCover"),
                            ("matchingDefect", "matchingGen"),
                            ("chromatic", "tutte")):
            argv = ["equiv", "--left", left, "--right", right, "--nmax",
                    str(nmax)]
            out[" ".join(argv)] = run_cli(argv)
        return out

    def library_phase():
        return {
            f"tree shapes n<={spec['tree_nmax']}": trees(),
            f"find_collisions charA {nmax}": collisions(),
            "prefactor matchingDefect<-matchingGen": prefactor(
                "matchingDefect", "matchingGen", "X1^n", ["0 - X1^-2"]),
            "prefactor vertexCover<-independence": prefactor(
                "vertexCover", "independence", "X1^n", ["X1^-1"]),
        }

    # three ops, one per phase: with single commands as ops the median op
    # was a half-second command whose latency no run length makes steady
    ops = [("enumerate", enumerate_phase), ("compare", compare_phase),
           ("library", library_phase)]
    return ops, (lambda value: value)


def census_after(spec, mods, parsed):
    graphs = mods["graphs"]
    return {"enumerated": [[graphs.graph_to_graph6(g)
                            for g in graphs.enumerate_graphs(n)]
                           for n in range(1, spec["nmax"] + 1)]}


# -- root-cloud -------------------------------------------------------------

def root_cloud_ops(spec, mods, parsed):
    catalog, roots = mods["catalog"], mods["roots"]

    def op(fam, g):
        p = catalog.family_polynomial(fam, g)
        return p, (None if p.is_zero() else roots.root_report(p))

    ops = []
    for (g6, _), g in zip(spec["graphs"], parsed):
        for fam in spec["families"]:
            ops.append((f"{fam} {g6}", lambda fam=fam, g=g: op(fam, g)))

    def record(value):
        p, rep = value
        out = {"coeffs": list(p.coeffs), "report": None}
        if rep is not None:
            out["report"] = {
                "degree": rep.degree,
                "signs": [rep.negative_real, rep.zero_root, rep.positive_real],
                "real_rooted": rep.real_rooted,
                "integer_roots": sorted(rep.integer_roots.items()),
                "roots": [[z.real, z.imag, m] for z, m in rep.complex_roots],
                "rouche_radius": str(rep.rouche_radius),
                "max_modulus": rep.max_modulus,
            }
        return out
    return ops, record


def root_cloud_after(spec, mods, parsed):
    graphs, catalog = mods["graphs"], mods["catalog"]
    return {"original_labeling": [
        [list(catalog.family_polynomial(fam, graphs.graph_from_graph6(orig))
              .coeffs) for fam in spec["families"]]
        for _, orig in spec["graphs"]]}


# -- relocate -----------------------------------------------------------------

def relocate_ops(spec, mods, parsed):
    catalog, graphs, transforms = (mods["catalog"], mods["graphs"],
                                   mods["transforms"])
    rt_graphs, named_graphs = parsed
    prime, points = spec["prime"], spec["points"]

    def round_trip(p):
        q = transforms.interleave_nonneg(p)
        s = max(q.degree, 0)
        r = transforms.realify(q, s)
        back = transforms.deinterleave(transforms.recover_coefficients(r, s))
        return "round-trip", p, r, back

    def named(name, p, t, arg):
        rec = transforms.apply_named_transform(name, p, t, arg)
        return "named", p, rec

    def density(re, im, eps):
        return "density", transforms.density_witness(
            Fraction(re), Fraction(im), Fraction(eps))

    # family polynomials are this workload's inputs: computed before the pass
    ops = []
    for (g6, fam), g in zip(spec["round_trips"], rt_graphs):
        p = catalog.family_polynomial(fam, g)
        ops.append((f"round-trip {fam} {g6}", lambda p=p: round_trip(p)))
    polys = {}
    for (g6, fam, name), g in zip(spec["named"], named_graphs):
        if (g6, fam) not in polys:
            polys[g6, fam] = catalog.family_polynomial(fam, g)
        p = polys[g6, fam]
        t = graphs.similarity_triple(g)
        arg = None
        if name == "densify":
            arg = "complex"
        elif name == "scale":
            bound, r = max(abs(c) for c in p.coeffs), 1
            while g.n > 1 and g.n ** r < bound:
                r += 1
            arg = str(r)
        ops.append((f"{name} {fam} {g6}",
                    lambda name=name, p=p, t=t, arg=arg: named(name, p, t,
                                                               arg)))
    for re, im, eps in spec["density"]:
        ops.append((f"density_witness {re},{im} eps {eps}",
                    lambda re=re, im=im, eps=eps: density(re, im, eps)))
    # run in the spec's interleaved order, so that the many small ops that
    # set op_p50_ms spread over the whole pass instead of one short window
    ops = [ops[i] for i in spec["order"]]

    def record(value):
        kind = value[0]
        if kind == "round-trip":
            _, p, r, back = value
            return {"kind": kind, "p": list(p.coeffs), "degree": r.degree,
                    "fingerprint": [eval_mod(r.coeffs, x, prime)
                                    for x in points],
                    "back": list(back.coeffs)}
        if kind == "named":
            _, p, rec = value
            return {"kind": kind, "p": list(p.coeffs),
                    "params": {k: str(v) for k, v in rec.params.items()},
                    "out": list(rec.output.coeffs)}
        w = value[1]
        return {"kind": kind, "abc": [w.a, w.b, w.c], "scale": w.scale,
                "triple": [w.triple.n, w.triple.m, w.triple.k],
                "root": [str(w.root[0]), str(w.root[1])],
                "distance_sq": str(w.distance_sq),
                "graph_n": w.graph.n, "edges": w.graph.sorted_edges()}
    return ops, record


def eval_mod(coeffs, x: int, prime: int) -> int:
    """Horner evaluation of ascending integer coefficients modulo prime."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


# -- host speed ---------------------------------------------------------------

_BIG = (1 << 20000) // 3


def reference() -> int:
    """Fixed work in the interpreter's own code: small-int arithmetic, lists,
    dicts, big-int sums and one 20,000-bit product, about 0.8 ms.  It
    touches nothing of grpoly.  Each part alone tracked the drift of the
    relocate scan; a 4 MB memory copy did not."""
    acc = 0
    for k in range(3000):
        acc += k * k % 7
    xs = list(range(48))
    for k in range(12):
        ys = [x * k + (1 << 70) for x in xs]
        acc += sum(ys) % 7
        acc += len({y & 255: y for y in ys})
    return acc + (_BIG * (_BIG + 7)).bit_length()


def reference_s(calls: int) -> float:
    """Median time of ``calls`` back-to-back reference calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Ticker:
    """Times ``reference()`` every TICK_S from a SIGALRM handler."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        # a tick before the first op and one after the last, so that a pass
        # shorter than TICK_S still has a reference time
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) time of an op that ran from start to end: the ticks
        inside it are taken out, and the rest is scaled to REFERENCE_S by
        the median tick within WINDOW_S of the op."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        raw = end - start - sum(self.durations[lo:hi])
        near = self.durations[bisect_left(self.starts, start - WINDOW_S):
                              bisect_right(self.starts, end + WINDOW_S)]
        if not near:  # a long C call held the signal back: nearest ticks
            near = self.durations[max(lo - 1, 0):lo + 1]
        return raw, raw * REFERENCE_S / statistics.median(near)


# -- main ---------------------------------------------------------------------

WORKLOADS = {
    "census": (census_ops, census_after),
    "root-cloud": (root_cloud_ops, root_cloud_after),
    "relocate": (relocate_ops, None),
}


def _parse_inputs(spec, graphs):
    if spec["workload"] == "root-cloud":
        return _parse_graphs([g6 for g6, _ in spec["graphs"]], graphs)
    if spec["workload"] == "relocate":
        return (_parse_graphs([g6 for g6, _ in spec["round_trips"]], graphs),
                _parse_graphs([g6 for g6, _, _ in spec["named"]], graphs))
    return None


def main(argv) -> int:
    spec_path, out_path, t0 = argv[1], argv[2], float(argv[3])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import grpoly
    from grpoly import (catalog, cli, equivalence, graphs, roots, simfun,
                        transforms)
    if not os.path.realpath(grpoly.__file__).startswith(
            os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"grpoly imported from {grpoly.__file__}, "
                         f"not from {spec['src']}")
    mods = {"catalog": catalog, "cli": cli, "equivalence": equivalence,
            "graphs": graphs, "roots": roots, "simfun": simfun,
            "transforms": transforms}
    tracer = None
    if spec["trace"] and not spec["setup_only"]:
        # installed before parsing: graph6 parsing is traced as op -1
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    parsed = _parse_inputs(spec, graphs)
    setup_raw_s = time.monotonic() - t0
    result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * REFERENCE_S
              / reference_s(SETUP_REFERENCE_CALLS)}
    if not spec["setup_only"]:
        result.update(_run_ops(spec, mods, parsed, tracer, out_path))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run_ops(spec, mods, parsed, tracer, out_path) -> dict:
    make_ops, after = WORKLOADS[spec["workload"]]
    if tracer is not None:
        tracer.enabled = False
    ops, record = make_ops(spec, mods, parsed)
    if tracer is not None:
        tracer.enabled = True
    labels, spans, errors, outputs = [], [], {}, []
    clock = time.perf_counter
    # a traced run keeps its spans free of reference ticks: its times are raw
    ticker = Ticker() if tracer is None else contextlib.nullcontext()
    with ticker:
        for i, (label, thunk) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            start = clock()
            try:
                value = thunk()
            except Exception as exc:  # a failed op is counted, not fatal
                value = exc
            spans.append((start, clock()))
            labels.append(label)
            if isinstance(value, Exception):
                errors[i] = f"{type(value).__name__}: {value}"
                outputs.append(None)
            else:
                outputs.append(record(value))
            value = None  # drop a large realify output before the next op
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        op_raw_s, op_s = zip(*(ticker.scale(*span) for span in spans))
        reference_ms = statistics.median(ticker.durations) * 1e3
    else:
        op_raw_s = op_s = [end - start for start, end in spans]
        reference_ms = None
    result = {"op_s": list(op_s), "op_raw_s": list(op_raw_s),
              "reference_ms": reference_ms, "labels": labels,
              "errors": errors, "outputs": outputs, "peak_rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write(out_path + ".spans.csv.gz")
    if after is not None:
        result["after"] = after(spec, mods, parsed)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv))
