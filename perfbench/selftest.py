"""Self-tests of the benchmark's output checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs small versions of the three workloads through ``worker.py``, the same
path the benchmark takes, and requires their outputs to pass ``checks.py``.
Then it corrupts one output at a time (one coefficient off, a dropped root,
a duplicated or missing ``enum`` line, a flipped verdict, a census phase
that raised, a density witness graph with an edge dropped, a realify output
multiplied by (X - 1)) and requires the check to fail and to name the
corrupted op.  Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from inputs import make_spec  # noqa: E402
from run import RESULTS, ROOT, _worker  # noqa: E402


def small_specs() -> dict:
    census = make_spec("census", 1)
    census.update(enum_n=6, nmax=6, tree_nmax=6)
    cloud = make_spec("root-cloud", 1)
    cloud["graphs"] = cloud["graphs"][:52]  # n <= 5, K5 included
    relocate = make_spec("relocate", 1)
    relocate["round_trips"] = relocate["round_trips"][:80]
    relocate["named"] = relocate["named"][:120]
    relocate["density"] = relocate["density"][:4] + relocate["density"][-1:]
    relocate["order"] = list(range(80 + 120 + 5))
    specs = {"census": census, "root-cloud": cloud, "relocate": relocate}
    for spec in specs.values():
        spec.update(src=str(ROOT / "src"), trace=False, setup_only=False)
    return specs


def _first(out, pred) -> int:
    return next(i for i, res in enumerate(out["outputs"])
                if res is not None and pred(res))


def _command(out, prefix) -> tuple[int, dict]:
    """Census op index and output of the command whose label has prefix."""
    return next((i, res) for i, phase in enumerate(out["outputs"])
                for label, res in phase.items() if label.startswith(prefix))


def coefficient_off(out, spec):
    # in both labelings, so that only the root checks can catch it
    i = _first(out, lambda r: r["report"] and r["report"]["degree"] >= 2)
    out["outputs"][i]["coeffs"][0] += 1
    gi, fi = divmod(i, len(spec["families"]))
    out["after"]["original_labeling"][gi][fi][0] += 1
    return i


def dropped_root(out, spec):
    i = _first(out, lambda r: r["report"] and len(r["report"]["roots"]) >= 2)
    out["outputs"][i]["report"]["roots"].pop()
    return i


def witness_coefficient_off(out, spec):
    i, res = _command(out, "equiv --left charA")
    verdict = json.loads(res["stdout"])
    coeffs = verdict["witnesses"][0]["val1_left"]["coeffs"]
    coeffs[0] = str(int(coeffs[0]) + 1)
    res["stdout"] = json.dumps(verdict) + "\n"
    return i


def _edit_enum(out, edit):
    i, res = _command(out, "enum --n")
    res["stdout"] = "\n".join(edit(res["stdout"].splitlines())) + "\n"
    return i


def duplicated_enum_line(out, spec):
    return _edit_enum(out, lambda lines: lines + [lines[len(lines) // 2]])


def missing_enum_line(out, spec):
    return _edit_enum(out, lambda lines: lines[:7] + lines[8:])


def flipped_verdict(out, spec):
    i, res = _command(out, "equiv --left independence")
    verdict = json.loads(res["stdout"])
    verdict["relation"] = "incomparable"
    res["stdout"] = json.dumps(verdict) + "\n"
    return i


def raised_in_phase(out, spec):
    # what the worker records for an op that raised: no output, an error
    i, _ = _command(out, "equiv --left chromatic")
    out["outputs"][i] = None
    out["errors"][str(i)] = "RecursionError: raised inside the phase"
    return i


def witness_edge_dropped(out, spec):
    i = _first(out, lambda r: r.get("kind") == "density")
    out["outputs"][i]["edges"].pop()
    return i


def realify_times_x_minus_1(out, spec):
    i = _first(out, lambda r: r.get("kind") == "round-trip"
               and r["degree"] >= 3)
    res = out["outputs"][i]
    res["degree"] += 1
    res["fingerprint"] = [fp * (x - 1) % spec["prime"]
                          for fp, x in zip(res["fingerprint"], spec["points"])]
    return i


CASES = (
    ("root-cloud", "one coefficient off", coefficient_off),
    ("root-cloud", "a dropped root", dropped_root),
    ("census", "one witness coefficient off", witness_coefficient_off),
    ("census", "a duplicated enum line", duplicated_enum_line),
    ("census", "a missing enum line", missing_enum_line),
    ("census", "a flipped verdict", flipped_verdict),
    ("census", "an exception inside a phase", raised_in_phase),
    ("relocate", "a density witness graph with an edge dropped",
     witness_edge_dropped),
    ("relocate", "a realify output multiplied by (X-1)",
     realify_times_x_minus_1),
)


def main() -> int:
    specs = small_specs()
    RESULTS.mkdir(exist_ok=True)
    outs = {}
    failures = 0
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for workload, spec in specs.items():
            outs[workload] = _worker(spec, Path(tmp), workload)
            problems = CHECKS[workload](spec, outs[workload])
            ok = not problems
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {workload}: clean outputs "
                  f"pass the checks {problems[:3]}")
    for workload, name, corrupt in CASES:
        out = copy.deepcopy(outs[workload])
        i = corrupt(out, specs[workload])
        problems = CHECKS[workload](specs[workload], out)
        ok = any(p.startswith(f"op {i} (") for p in problems)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {name} in op {i} is "
              f"caught: {problems[:1]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
