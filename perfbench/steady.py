"""Steadiness of the benchmark: rerun each workload and summarise the spread.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --runs 10 [--traced-runs 2]
                                [--against perfbench/results/steady.json]

Runs ``run.py`` for every workload with seeds 1, 2, ..., --runs and
BENCHMARK.json's ``run_seconds``, each run in its own process.  The first
--traced-runs seeds also run traced, right after the untraced run of the
same seed, so that the tracing overhead is the median of paired differences
of raw scan time (traced runs are not scaled to the reference host speed)
rather than a difference between two periods of the host.  For
every metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median next to
the bound in BENCHMARK.json, and for every workload the share of failed ops.
The summary is written to ``perfbench/results/steady.json``.  With
--against an earlier summary it also prints, for every end-to-end metric,
how far this set's median lies from that set's, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "root-cloud", "relocate")
SUMMARY = HERE / "results" / "steady.json"


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    print(f"# {workload} seed {seed} trace {trace}: "
          f"{time.monotonic() - start:.1f} s wall", flush=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["info"] = json.loads(saved.read_text(encoding="utf-8"))["info"]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _print_rows(runs: list[dict], bounds: dict) -> dict:
    rows = {}
    for name in runs[0]["metrics"]:
        stats = summarise([r["metrics"][name]["value"] for r in runs])
        rows[name] = stats
        verdict = ""
        if name in bounds:
            below = stats["spread"] < bounds[name] / 3
            verdict = (f"bound {bounds[name]}: spread "
                       f"{'<' if below else '>='} bound/3")
        print(f"  {name:45s} median {stats['median']:.6g} "
              f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
              f"spread {stats['spread']:.4f} {verdict}")
    return rows


def _compare(summary: dict, earlier: dict, bounds: dict) -> None:
    """Relative change of each end-to-end median against an earlier set
    (positive is worse: every end-to-end metric is lower-is-better)."""
    print("\nmedians against the earlier set (positive is worse):")
    for workload, now in summary.items():
        then = earlier[workload]
        same = now["failed_shares"] == then["failed_shares"]
        print(f"{workload}: failed share "
              f"{'equal' if same else 'DIFFERS'}")
        for name, bound in bounds.items():
            old = then["untraced"][name]["median"]
            change = (now["untraced"][name]["median"] - old) / old
            print(f"  {name:14s} {change:+.4f} bound {bound}: "
                  f"{'within' if change <= bound else 'BEYOND'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=None,
                        help="traced runs per workload (default: --runs)")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier summary to compare the medians with")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = None
    if args.against is not None:
        earlier = json.loads(args.against.read_text(encoding="utf-8"))
    traced_runs = args.runs if args.traced_runs is None else args.traced_runs
    summary = {}
    for workload in WORKLOADS:
        runs = {0: [], 1: []}
        overheads = []
        for seed in range(1, args.runs + 1):
            runs[0].append(_run(workload, seed, bench["run_seconds"], 0))
            if seed <= traced_runs:
                runs[1].append(_run(workload, seed, bench["run_seconds"], 1))
                overheads.append(runs[1][-1]["info"]["scan_raw_s"]
                                 - runs[0][-1]["info"]["scan_raw_s"])
        shares = sorted({r["failed"] / r["attempted"]
                         for r in runs[0] + runs[1]})
        print(f"\n{workload}: failed share {shares} "
              f"({runs[0][0]['failed']} of {runs[0][0]['attempted']})")
        summary[workload] = {"untraced": _print_rows(runs[0], bounds),
                             "failed_shares": shares}
        if runs[1]:
            summary[workload]["traced"] = _print_rows(runs[1], bounds)
            overhead = statistics.median(overheads)
            untraced = statistics.median(r["info"]["scan_raw_s"]
                                         for r in runs[0][:len(overheads)])
            print(f"  tracing overhead (median of {len(overheads)} paired "
                  f"differences): {overhead:+.3f} s "
                  f"({100 * overhead / untraced:+.0f} %)")
            summary[workload]["tracing_overhead_s"] = overhead
        print(f"  failed ops by family: "
              f"{runs[0][0]['info']['failed_by_family']}; op_tail_ms is p"
              f"{runs[0][0]['info']['tail_percentile']:.2f}")
    if earlier is not None:
        _compare(summary, earlier, bounds)
    SUMMARY.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"\nsummary written to {SUMMARY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
