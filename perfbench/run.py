"""grpoly benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {census,root-cloud,relocate,all}
                             --seed N --seconds S --trace {0,1}

Each round runs in a fresh single-threaded interpreter (``worker.py``) that
imports grpoly from this checkout's ``src``, so module caches start cold as
they do for every CLI call.  Rounds repeat until ``--seconds`` have been
measured (at least one).  Set-up is timed in further fresh interpreters so
that ``setup_s`` is a median.  Times are scaled to a reference host speed
(see ``worker.py``); the raw times are printed on the lines before the
result.  The outputs of the first round are checked (``checks.py``); later
rounds must reproduce them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
A failed check names the op and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CHECKS, failed_by_family  # noqa: E402
from inputs import make_spec  # noqa: E402
from spans import metric_specs  # noqa: E402
from worker import REFERENCE_S  # noqa: E402

RESULTS = HERE / "results"
WORKLOADS = ("census", "root-cloud", "relocate")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("scan_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark could not run the program (not a failed check)."""


def _worker(spec: dict, scratch: Path, tag: str) -> dict:
    spec_path = scratch / f"{tag}.spec.json"
    out_path = scratch / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # one process, one thread: no GRPOLY_THREADS; -I keeps PYTHONPATH and
    # user site-packages from supplying another grpoly
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRPOLY_")}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(spec_path),
         str(out_path), repr(t0)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def tail_index(count: int) -> int:
    """Index into sorted latencies of the highest percentile with at least
    ten samples beyond it; the slowest sample when there are ten or fewer."""
    return count - 11 if count > 10 else count - 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, list[str], dict]:
    if not (ROOT / "src" / "grpoly" / "__init__.py").is_file():
        raise BenchError(f"no grpoly sources under {ROOT / 'src'}")
    spec = make_spec(workload, seed)
    spec.update(src=str(ROOT / "src"), trace=trace, setup_only=False)
    RESULTS.mkdir(exist_ok=True)
    rounds = []
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        scratch = Path(tmp)
        start = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            rounds.append(_worker(spec, scratch, f"round{len(rounds)}"))
            if trace and len(rounds) == 1:
                spans = scratch / "round0.out.json.spans.csv.gz"
                spans.replace(RESULTS / f"{workload}-seed{seed}.spans.csv.gz")
        setups = [r["setup_s"] for r in rounds]
        spec["setup_only"] = True
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(spec, scratch, "setup")["setup_s"])
        spec["setup_only"] = False

    first = rounds[0]
    problems = CHECKS[workload](spec, first)
    digest = json.dumps([first["outputs"], first["errors"]])
    for k, r in enumerate(rounds[1:], start=1):
        if json.dumps([r["outputs"], r["errors"]]) != digest:
            problems.append(f"round {k} outputs differ from round 0")

    # each op's latency is its median over the rounds; a pass takes the sum
    latencies = sorted(statistics.median(times)
                       for times in zip(*(r["op_s"] for r in rounds)))
    scan_s = sum(latencies)
    scan_raw_s = sum(statistics.median(times)
                     for times in zip(*(r["op_raw_s"] for r in rounds)))
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in rounds)
                   for name in first["layers"]}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "scan_s": scan_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": latencies[tail_index(len(latencies))] * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rounds),
        }
    info = {
        "rounds": len(rounds),
        "ops_per_round": len(first["op_s"]),
        "tail_percentile": 100 * (tail_index(len(latencies)) + 1)
        / len(latencies),
        "scan_s": scan_s,
        "scan_raw_s": scan_raw_s,
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in rounds),
        "reference_ms": first["reference_ms"],
        "failed_by_family": failed_by_family(spec, first),
    }
    result = {
        "correct": not problems,
        "attempted": sum(len(r["op_s"]) for r in rounds),
        "failed": sum(len(r["errors"]) for r in rounds),
        "metrics": metrics,
    }
    return result, problems, info


def _report(workload: str, seed: int, trace: bool, result: dict,
            problems: list[str], info: dict):
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in metric_specs())
    mode = "traced" if trace else "untraced"
    print(f"# {workload} seed {seed} ({mode}): {info['rounds']} round(s) of "
          f"{info['ops_per_round']} ops; op_tail_ms is p"
          f"{info['tail_percentile']:.2f}; scan {info['scan_s']:.3f} s")
    if info["reference_ms"] is not None:
        print(f"# raw: scan {info['scan_raw_s']:.3f} s, set-up "
              f"{info['setup_raw_s']:.4f} s; reference call "
              f"{info['reference_ms']:.4f} ms (scaled to "
              f"{REFERENCE_S * 1e3:g} ms)")
    print(f"# ops attempted {result['attempted']}, failed {result['failed']}"
          f" {info['failed_by_family'] or ''}")
    for name, value in result["metrics"].items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    record = dict(result, workload=workload, seed=seed, trace=int(trace),
                  info=info, problems=problems)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        try:
            result, problems, info = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        _report(workload, args.seed, bool(args.trace), result, problems, info)
        if problems:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
