"""The pipeline benchmark: real Python under PythonDacceTracer, end to end.

    PYTHONPATH=src python benchmarks/pipeline/run.py --seed 1          # all workloads
    python3 benchmarks/pipeline/run.py --seed 1 --trace                # per-layer run
    python3 benchmarks/pipeline/run.py --workload py_flat --seed 1 --seconds 10 --trace 0
    python3 benchmarks/pipeline/run.py --seed 1 --out results/run.json
    python3 benchmarks/pipeline/run.py --compare BASE.json NEW.json
    python3 benchmarks/pipeline/run.py --pairs 5 --seed 1              # A/A noise floor

Each workload runs in a fresh subprocess (``harness.py``), one at a time,
with ``PYTHONPATH`` set to the checkout's ``src`` and a fixed
``PYTHONHASHSEED``.  The last stdout line is one JSON object: the
workload's result with ``--workload``, otherwise every workload's.
Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
HARNESS = os.path.join(HERE, "harness.py")
RESULTS = os.path.join(HERE, "results")

#: A workload subprocess must finish within this many seconds.
CHILD_TIMEOUT = 170


class BenchError(RuntimeError):
    """A workload subprocess failed or printed no result."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Measure one workload in a fresh subprocess; returns its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = [
        sys.executable, HARNESS, "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s: no result within %d s" % (name, CHILD_TIMEOUT)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s: harness exited with %d" % (name, proc.returncode))
    return json.loads(lines[-1])


def run_all(
    names: List[str], seed: int, seconds: float, trace: int, echo: bool = True
) -> Dict[str, Dict[str, Any]]:
    results = {}
    for name in names:
        results[name] = run_workload(name, seed, seconds, trace)
        if echo:
            print(render(name, results[name]), flush=True)
    return results


def render(name: str, result: Dict[str, Any]) -> str:
    lines = [
        "%s  correct=%s attempted=%d failed=%d"
        % (name, result["correct"], result["attempted"], result["failed"])
    ]
    for metric, data in result["metrics"].items():
        lines.append("  %-36s %16.6g %s" % (metric, data["value"], data["unit"]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# summaries: every metric as runs + median + quartiles
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def summarize(runs: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Any]:
    """Fold several all-workload results into one summary document."""
    workloads: Dict[str, Any] = {}
    for name in runs[0]:
        results = [run[name] for run in runs]
        metrics = {}
        for metric, data in results[0]["metrics"].items():
            values = [result["metrics"][metric]["value"] for result in results]
            metrics[metric] = dict(unit=data["unit"], runs=values, **quartiles(values))
        workloads[name] = {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics,
        }
    return {"runs": len(runs), "workloads": workloads}


def write_json(path: str, document: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare_metric(
    base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float
) -> Dict[str, Any]:
    """Status of one metric: regression, better, unchanged or unresolved.

    Where the run-to-run spread is wider than the bound the metric is
    ``unresolved``, unless every new run beats every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = (new["median"] - base["median"]) / abs(base["median"]) if base["median"] else 0.0
    worse = sign * change
    spread = max(base["spread"], new["spread"])
    beats = all(sign * (n - b) < 0 for n in new["runs"] for b in base["runs"])
    if spread > bound:
        status = "better" if beats else "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    elif -worse > bound:
        status = "better"
    else:
        status = "unchanged"
    return {"status": status, "change": change, "spread": spread}


def compare(base_path: str, new_path: str, spec: Dict[str, Any]) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)["workloads"]
    regressions = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base or name not in new:
            print("%s: missing from %s" % (name, base_path if name not in base else new_path))
            regressions += 1
            continue
        cells = []
        for metric in spec["end_to_end"]:
            verdict = compare_metric(
                base[name]["metrics"][metric["name"]],
                new[name]["metrics"][metric["name"]],
                metric["better"],
                metric["bound"],
            )
            regressions += verdict["status"] == "REGRESSION"
            cells.append(
                "%s %s (%+.1f%%, spread %.1f%%, bound %.0f%%)"
                % (metric["name"], verdict["status"], 100 * verdict["change"],
                   100 * verdict["spread"], 100 * metric["bound"])
            )
        failed = new[name]["failed"]
        regressions += failed > base[name]["failed"]
        cells.append("failed %d -> %d" % (base[name]["failed"], failed))
        print("%-20s %s" % (name, "; ".join(cells)))
    print("regressions: %d" % regressions)
    return 1 if regressions else 0


# ----------------------------------------------------------------------
# --pairs: A/A noise floor
# ----------------------------------------------------------------------
def pairs(count: int, names: List[str], seed: int, seconds: float, spec: Dict[str, Any]) -> int:
    """Run the same code ``count`` times per side, alternating which goes first."""
    sides: Dict[str, List[Dict[str, Dict[str, Any]]]] = {"A": [], "B": []}
    for index in range(count):
        for side in ("A", "B") if index % 2 == 0 else ("B", "A"):
            print("pair %d/%d side %s" % (index + 1, count, side), file=sys.stderr, flush=True)
            sides[side].append(run_all(names, seed, seconds, 0, echo=False))
    for side, runs in sides.items():
        write_json(os.path.join(RESULTS, "aa-%s.json" % side), dict(seed=seed, **summarize(runs)))
    noise = summarize(sides["A"] + sides["B"])
    write_json(os.path.join(RESULTS, "aa-noise.json"), dict(seed=seed, **noise))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    wide = 0
    for name, workload in noise["workloads"].items():
        for metric, data in workload["metrics"].items():
            too_wide = data["spread"] > bounds[metric]
            wide += too_wide
            print(
                "%-20s %-20s median %14.6g  q1 %14.6g  q3 %14.6g  spread %5.1f%%  bound %3.0f%%%s"
                % (name, metric, data["median"], data["q1"], data["q3"],
                   100 * data["spread"], 100 * bounds[metric], "  TOO WIDE" if too_wide else "")
            )
    return 1 if wide else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="measure per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--out", help="also write the summary JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--pairs", type=int, metavar="K", help="A/A noise floor")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    try:
        if args.pairs:
            return pairs(args.pairs, selected, args.seed, args.seconds, spec)
        results = run_all(selected, args.seed, args.seconds, args.trace)
    except BenchError as error:
        print(error, file=sys.stderr)
        return 1
    if args.out:
        write_json(
            args.out,
            dict(seed=args.seed, seconds=args.seconds, trace=args.trace, **summarize([results])),
        )
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
