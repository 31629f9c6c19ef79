"""Machine-readable core-ops benchmark: before/after numbers as JSON.

Measures the three quantities the hot-path fast lane (PR 4) is judged
on and writes them to ``BENCH_CORE.json`` at the repo root (plus a
rendered copy under ``benchmarks/results/``):

* **encode** — ns/event for per-event ``on_event`` dispatch vs columnar
  ``process_columns`` over struct-of-arrays batches through the
  code-generated dispatch kernel (PR 9), on a steady-state workload
  (every edge already discovered and encoded), with the fast-path hit
  rate achieved;
* **decode** — wall-clock throughput for sequential ``decode_log`` vs
  ``decode_log_parallel(jobs=4)`` on a >= 100k-sample log built by
  tiling a real recorded run (profile logs repeat hot contexts, which
  is exactly what the memoized decode pipeline exploits);
* **environment** — CPU count, so single-core readings are legible.

Honesty note: on a single-core container the parallel-decode speedup
comes from the per-worker :class:`~repro.core.decoder.DecodeCache`
(memoization), not from core parallelism.  The JSON records
``cpu_count`` and per-stage cache statistics so the provenance of the
number is auditable.

Sections written by sibling benchmarks (``profile_overhead``,
``ingest_overhead``, ``targeted``) are preserved: the output file is
read-modify-written, never clobbered wholesale.

Run with::

    PYTHONPATH=src python benchmarks/bench_to_json.py [--quick]
    PYTHONPATH=src python benchmarks/bench_to_json.py --quick \
        --output /tmp/new.json --compare BENCH_CORE.json

``--compare OLD.json`` prints per-section deltas against a previous
report and exits non-zero when ``encode`` ns/event regressed by more
than 25% — CI runs this informationally (warning, not failure).

Not a pytest module (no ``test_``/``bench_`` prefix functions): CI runs
it as an informational step after the perf-smoke gate.
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


def _best_of(repeats, thunk):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def bench_encode(calls, repeats):
    """Steady-state event-processing: per-event vs columnar fast lane."""
    from repro.core.engine import DacceEngine
    from repro.core.events import inflate
    from repro.program.generator import GeneratorConfig, generate_program
    from repro.core.columnar import EventColumns
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
    spec = WorkloadSpec(calls=calls, seed=2, sample_period=997)
    records = list(TraceExecutor(program, spec).compact_events())
    events = [inflate(record) for record in records]

    def warmed_engine():
        engine = DacceEngine()
        run_workload_columnar(program, spec, engine)
        engine.reencode()
        return engine

    per_event_engine = warmed_engine()
    per_event_s = _best_of(
        repeats,
        lambda: [per_event_engine.on_event(event) for event in events],
    )

    columnar_engine = warmed_engine()
    columnar_engine.fastpath.hits = columnar_engine.fastpath.misses = 0
    columns = EventColumns.from_compact(records)
    columnar_s = _best_of(
        repeats, lambda: columnar_engine.process_columns(columns)
    )

    return {
        "events": len(records),
        "calls": calls,
        "per_event_ns_per_event": round(per_event_s / len(records) * 1e9, 1),
        "columnar_ns_per_event": round(columnar_s / len(records) * 1e9, 1),
        "columnar_speedup": round(per_event_s / columnar_s, 2),
        "columnar_hit_rate": round(columnar_engine.fastpath.hit_rate, 4),
        "columnar_fastpath": columnar_engine.fastpath_stats(),
    }


def bench_decode(target_samples, jobs, repeats):
    """Sequential vs parallel+memoized decode of a tiled sample log."""
    from repro.core.engine import DacceEngine
    from repro.core.parallel import decode_log_parallel
    from repro.core.serialize import (
        decode_log,
        export_decoding_state,
        load_decoder,
    )
    from repro.program.generator import GeneratorConfig, generate_program
    from repro.program.trace import WorkloadSpec, run_workload_columnar

    program = generate_program(
        GeneratorConfig(seed=7, functions=40, edges=100, recursive_sites=2)
    )
    spec = WorkloadSpec(
        calls=30_000, seed=4, sample_period=7, recursion_affinity=0.3
    )
    engine = DacceEngine()
    run_workload_columnar(program, spec, engine)
    base = engine.samples
    tiles = max(1, (target_samples + len(base) - 1) // len(base))
    samples = base * tiles

    state_path = os.path.join(RESULTS_DIR, "bench_decode.state.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    export_decoding_state(engine, state_path)

    def sequential():
        decoder = load_decoder(state_path)
        return len(list(decode_log(decoder, samples)))

    sequential_s = _best_of(repeats, sequential)

    stats = {}
    parallel_s = _best_of(
        repeats,
        lambda: decode_log_parallel(state_path, samples, jobs=jobs, stats=stats),
    )
    os.remove(state_path)

    return {
        "samples": len(samples),
        "distinct_samples": len(base),
        "tiles": tiles,
        "jobs": jobs,
        "effective_jobs": stats.get("effective_jobs", jobs),
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 2),
        "sequential_samples_per_s": round(len(samples) / sequential_s),
        "parallel_samples_per_s": round(len(samples) / parallel_s),
        "cache_hits": stats.get("cache_hits", 0),
        "cache_misses": stats.get("cache_misses", 0),
    }


def render(report):
    encode = report["encode"]
    decode = report["decode"]
    lines = [
        "core-ops benchmark (PR 4 fast lane + PR 9 columnar dispatch)",
        "",
        "encode (steady state, %d events):" % encode["events"],
        "  per-event dispatch : %8.1f ns/event" % encode["per_event_ns_per_event"],
        "  process_columns    : %8.1f ns/event  (%.2fx, codegen kernel)"
        % (encode["columnar_ns_per_event"], encode["columnar_speedup"]),
        "  hit rate           : %8.1f%% columnar"
        % (100 * encode["columnar_hit_rate"]),
        "",
        "decode (%d samples, %d distinct, jobs=%d requested, %d effective):"
        % (
            decode["samples"],
            decode["distinct_samples"],
            decode["jobs"],
            decode["effective_jobs"],
        ),
        "  sequential decode_log       : %8.3f s (%d samples/s)"
        % (decode["sequential_s"], decode["sequential_samples_per_s"]),
        "  decode_log_parallel         : %8.3f s (%d samples/s)"
        % (decode["parallel_s"], decode["parallel_samples_per_s"]),
        "  speedup                     : %8.2fx" % decode["speedup"],
        "  worker cache                : %d hits / %d misses"
        % (decode["cache_hits"], decode["cache_misses"]),
        "",
        "cpu_count=%d  (on a single core decode_log_parallel falls back"
        % report["environment"]["cpu_count"],
        "to in-process decode: the speedup is memoization, not",
        "parallelism -- see docs/PERFORMANCE.md)",
    ]
    return "\n".join(lines)


#: ``--compare`` regression gate: these encode keys may not grow by
#: more than this factor relative to the old report.
_REGRESSION_KEYS = ("columnar_ns_per_event",)
_REGRESSION_LIMIT = 1.25


def compare_reports(old, new):
    """Print per-section deltas; return the list of regressed keys."""
    regressions = []
    for section in sorted(set(old) & set(new)):
        old_section, new_section = old[section], new[section]
        if not (
            isinstance(old_section, dict) and isinstance(new_section, dict)
        ):
            continue
        shown_header = False
        for key in sorted(set(old_section) & set(new_section)):
            before, after = old_section[key], new_section[key]
            if not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in (before, after)
            ):
                continue
            delta = ((after - before) / before * 100) if before else 0.0
            if not shown_header:
                print("%s:" % section)
                shown_header = True
            print(
                "  %-28s %12.4g -> %12.4g  (%+.1f%%)"
                % (key, before, after, delta)
            )
            if (
                section == "encode"
                and key in _REGRESSION_KEYS
                and before
                and after > before * _REGRESSION_LIMIT
            ):
                regressions.append(key)
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads, single repeat (CI)")
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_CORE.json"))
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--compare", metavar="OLD.json", default=None,
        help="print deltas against a previous report; exit non-zero on "
        ">25%% regression of encode ns/event",
    )
    args = parser.parse_args(argv)

    calls = 10_000 if args.quick else 40_000
    target_samples = 20_000 if args.quick else 120_000
    repeats = 1 if args.quick else 3

    report = {
        "schema": 1,
        "generated_by": "benchmarks/bench_to_json.py"
        + (" --quick" if args.quick else ""),
        "environment": {
            "cpu_count": os.cpu_count() or 1,
            "python": sys.version.split()[0],
        },
        "encode": bench_encode(calls, repeats),
        "decode": bench_decode(target_samples, args.jobs, repeats),
    }

    # Preserve sections merged in by sibling benchmarks
    # (profile_overhead, ingest_overhead, targeted): read-modify-write.
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = {}
        for key, value in previous.items():
            report.setdefault(key, value)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    text = render(report)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "core_ops.txt"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    print("\nwrote %s" % args.output)

    if args.compare:
        with open(args.compare) as handle:
            old = json.load(handle)
        print("\ndeltas vs %s:" % args.compare)
        regressions = compare_reports(old, report)
        if regressions:
            print(
                "REGRESSION: %s grew by more than %d%%"
                % (", ".join(regressions), round((_REGRESSION_LIMIT - 1) * 100))
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
