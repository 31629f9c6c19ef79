"""Sampling-hook overhead: what always-on profiling costs the fast lane.

The continuous profiler's deal is Section 6's: context *collection* is a
couple of arithmetic ops per call, so leaving the profiler attached in
production must cost almost nothing.  This benchmark measures the
columnar fast lane (``process_columns`` ns/event over prebuilt
``EventColumns``, same methodology as ``bench_to_json.py``) in three
configurations:

* sampling **disabled** (no hook installed — the baseline; the guard is
  one ``is None`` test per applied call);
* hook installed at **1/64** (aggressive production rate);
* hook installed at **1/1024** (background rate).

The callback is intentionally cheap (append to a list): the point is
the *hook's* marginal cost — the countdown decrement plus the sample
materialisations — not the client's aggregation work, which
``tests/prof`` and the profile server account separately.

Results merge into ``BENCH_CORE.json`` as a ``profile_overhead``
section alongside the existing encode/decode numbers (read-modify-write:
other sections are preserved), plus a rendered copy under
``benchmarks/results/profile_overhead.txt``.

Run with::

    PYTHONPATH=src python benchmarks/bench_profile_overhead.py [--quick]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")


def _steady_workload(calls):
    """A warmed engine factory + prebuilt column batch (steady state)."""
    from repro.core.columnar import EventColumns
    from repro.core.engine import DacceEngine
    from repro.program.generator import GeneratorConfig, generate_program
    from repro.program.trace import (
        TraceExecutor,
        WorkloadSpec,
        run_workload_columnar,
    )

    program = generate_program(
        GeneratorConfig(
            seed=5,
            functions=60,
            edges=150,
            indirect_fraction=0.0,
            tail_fraction=0.0,
            recursive_sites=0,
            library_functions=0,
        )
    )
    spec = WorkloadSpec(calls=calls, seed=2, sample_period=0)
    columns = EventColumns.from_compact(
        TraceExecutor(program, spec).compact_events()
    )

    def warmed_engine():
        engine = DacceEngine()
        run_workload_columnar(program, spec, engine)
        engine.reencode()
        return engine

    return warmed_engine, columns


def bench_profile_overhead(calls, repeats):
    """Paired measurement: the configurations are timed *interleaved*
    (disabled, 1/64, 1/1024, disabled, 1/64, ...) rather than
    sequentially, so slow machine-wide drift — very visible on a shared
    single-core container — biases every configuration equally instead
    of inflating (or deflating) the overhead deltas.  Best-of per
    configuration is then a drift-robust paired estimate.
    """
    warmed_engine, columns = _steady_workload(calls)

    configs = {}
    for every in (0, 64, 1024):
        engine = warmed_engine()
        sink = []
        if every:
            engine.install_sample_hook(
                every, lambda sample, weight, _sink=sink: _sink.append(sample)
            )
        configs[every] = {"engine": engine, "sink": sink, "best": float("inf")}

    for _ in range(repeats):
        for config in configs.values():
            start = time.perf_counter()
            config["engine"].process_columns(columns)
            config["best"] = min(
                config["best"], time.perf_counter() - start
            )

    baseline_ns = configs[0]["best"] / len(columns) * 1e9
    rates = {}
    for every in (64, 1024):
        config = configs[every]
        ns = config["best"] / len(columns) * 1e9
        rates["1/%d" % every] = {
            "every": every,
            "ns_per_event": round(ns, 1),
            "overhead_ns_per_event": round(ns - baseline_ns, 1),
            "overhead_pct": round(100.0 * (ns - baseline_ns) / baseline_ns, 2),
            "samples_per_run": len(config["sink"]) // max(1, repeats),
            "profile_samples": config["engine"].stats.profile_samples,
        }

    return {
        "events": len(columns),
        "calls": calls,
        "methodology": "interleaved repeats, best-of per configuration",
        "repeats": repeats,
        "disabled_ns_per_event": round(baseline_ns, 1),
        "rates": rates,
    }


def render(section):
    lines = [
        "sampling-hook overhead (columnar fast lane, %d events)"
        % section["events"],
        "",
        "  sampling disabled : %8.1f ns/event (baseline)"
        % section["disabled_ns_per_event"],
    ]
    for key in sorted(section["rates"], key=lambda k: section["rates"][k]["every"]):
        rate = section["rates"][key]
        lines.append(
            "  hook at %-7s   : %8.1f ns/event  (%+6.1f ns, %+.2f%%)"
            % (
                key,
                rate["ns_per_event"],
                rate["overhead_ns_per_event"],
                rate["overhead_pct"],
            )
        )
    lines += [
        "",
        "disabled cost is one `is None` test per applied call; enabled",
        "steady-state cost is one countdown decrement per call plus a",
        "CollectedSample materialisation per period (see",
        "docs/PROFILING.md for the self-overhead account).",
        "methodology: configurations timed interleaved (paired), best-of",
        "per configuration -- sequential timing lets machine drift",
        "masquerade as hook overhead on a shared single-core container.",
    ]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, single repeat (CI)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_CORE.json"))
    args = parser.parse_args(argv)

    calls = 10_000 if args.quick else 40_000
    repeats = 2 if args.quick else 7

    section = bench_profile_overhead(calls, repeats)
    section["generated_by"] = "benchmarks/bench_profile_overhead.py" + (
        " --quick" if args.quick else ""
    )

    # Merge into BENCH_CORE.json without clobbering the other sections.
    report = {}
    if os.path.exists(args.output):
        with open(args.output) as handle:
            report = json.load(handle)
    report.setdefault("schema", 1)
    report["profile_overhead"] = section
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    text = render(section)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "profile_overhead.txt"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    print("\nwrote %s" % args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
