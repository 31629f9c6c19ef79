"""Targeted vs full encoding — overhead, id-space, and a differential.

Measures what the targeted mode (``DacceEngine(targeted=...)``, after
Zeng et al., arXiv 1812.04191) buys on the ``dacce record`` benchmark
program with the canonical 3-sink manifest:

* **overhead** — wall-clock for pushing the identical event stream
  through a cold full engine, a warm-started full engine, and a
  targeted engine (best-of repeats, fresh engine per repeat);
* **id-space** — ``max_id`` and encoded-edge counts per mode, plus the
  instrumented fraction of the targeted plan;
* **differential** — decoded sink-reaching contexts must agree: the
  full-mode decode, with every maximal run of out-of-plan functions
  collapsed to one ``<untracked>`` pseudo-frame, must equal the
  targeted-mode decode path-for-path and count-for-count.

Honesty note (recorded in the JSON): this is the pure-Python cost
model, so *every* call event still reaches the engine in targeted mode
and takes the cheap untracked path — the speedup measures handler-work
avoided, not instrumentation removed.  A native deployment (or the
tracer's per-code-object skip) avoids the event entirely, so the
overhead reduction reported here is a lower bound.

The report is rendered to ``benchmarks/results/targeted.txt``;
``--output FILE`` also writes it as a standalone JSON document.

Run with::

    PYTHONPATH=src python benchmarks/bench_targeted.py [--quick]

Not a pytest module: CI runs it as an informational step; the
differential check still hard-fails the run on mismatch.
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

#: The canonical 3-sink manifest for the record program (seed 1) —
#: keep in lockstep with docs/STATIC_ANALYSIS.md and the guard-smoke CI
#: job.
SINKS = ["fn_005", "fn_013", "fn_029"]


def _best_of(repeats, thunk):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def _record_workload(calls, seed):
    """The exact program + spec ``dacce record``/``dacce guard`` run."""
    from repro.program.generator import GeneratorConfig, generate_program
    from repro.program.trace import ThreadSpec, WorkloadSpec

    program = generate_program(
        GeneratorConfig(
            seed=seed,
            recursive_sites=3,
            indirect_fraction=0.1,
            library_functions=6,
        )
    )
    spec = WorkloadSpec(
        calls=calls,
        seed=seed + 1,
        sample_period=max(10, calls // 500),
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=calls // 10)],
    )
    return program, spec


def collapse_untracked(path, tracked):
    """Project a full decode onto the plan's function set.

    Maximal runs of out-of-plan functions become one ``<untracked>``
    pseudo-frame (``UNTRACKED_FUNCTION``) — exactly what the targeted
    decoder reports for a boundary region.
    """
    from repro.core.ccstack import UNTRACKED_FUNCTION

    out = []
    for function in path:
        if function in tracked:
            out.append(function)
        elif not out or out[-1] != UNTRACKED_FUNCTION:
            out.append(UNTRACKED_FUNCTION)
    return tuple(out)


def _sink_contexts(engine, program, spec, sinks):
    """Replay the workload, collecting decoded sink-call contexts."""
    from repro.guard import GuardRecorder
    from repro.program.trace import TraceExecutor

    recorder = GuardRecorder(engine, sinks)
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
        recorder.observe(event)
    # Distinct samples (e.g. across re-encoding epochs) can decode to
    # the same path — aggregate, don't overwrite.
    contexts: dict = {}
    for hit in recorder.finish():
        contexts[hit.path] = contexts.get(hit.path, 0) + hit.count
    return contexts


def bench_targeted(calls, repeats):
    from repro.core.engine import DacceEngine
    from repro.program.trace import TraceExecutor
    from repro.static import extract_program
    from repro.static.targeted import build_targeted
    from repro.static.warmstart import build_warmstart

    program, spec = _record_workload(calls, seed=1)
    static = extract_program(program)
    plan = build_targeted(static, SINKS)

    events = list(TraceExecutor(program, spec).events())

    def drive(make_engine):
        def run():
            engine = make_engine()
            for event in events:
                engine.on_event(event)
            return engine

        seconds = _best_of(repeats, run)
        engine = run()
        return seconds, engine

    cold_s, cold = drive(lambda: DacceEngine(root=program.main))
    warm_s, warm = drive(
        lambda: DacceEngine(warm_start=build_warmstart(static))
    )
    targeted_s, targeted = drive(lambda: DacceEngine(targeted=plan))

    # Differential: sink-reaching contexts must agree between modes
    # once the full decode is projected onto the plan.
    full_ctx = _sink_contexts(
        DacceEngine(root=program.main), program, spec, plan.sinks
    )
    targeted_ctx = _sink_contexts(
        DacceEngine(targeted=plan), program, spec, plan.sinks
    )
    projected = {}
    for path, count in full_ctx.items():
        key = collapse_untracked(path, plan.functions)
        projected[key] = projected.get(key, 0) + count
    match = projected == targeted_ctx

    section = {
        "calls": calls,
        "events": len(events),
        "sinks": SINKS,
        "plan": {
            "targeted_functions": len(plan.functions),
            "total_functions": static.num_functions,
            "instrumented_fraction": round(plan.instrumented_fraction, 4),
            "static_max_id": plan.report.proof.max_id,
            "collision_free": plan.report.proof.collision_free,
        },
        "overhead": {
            "full_cold_ns_per_event": round(cold_s / len(events) * 1e9, 1),
            "full_warm_ns_per_event": round(warm_s / len(events) * 1e9, 1),
            "targeted_ns_per_event": round(
                targeted_s / len(events) * 1e9, 1
            ),
            "speedup_vs_full_cold": round(cold_s / targeted_s, 2),
            "speedup_vs_full_warm": round(warm_s / targeted_s, 2),
        },
        "id_space": {
            "full_cold_max_id": cold.max_id,
            "full_warm_max_id": warm.max_id,
            "targeted_max_id": targeted.max_id,
        },
        "engine": {
            "full_tracked_calls": cold.stats.calls,
            "targeted_tracked_calls": targeted.stats.calls,
            "targeted_untracked_calls": targeted.stats.untracked_calls,
            "targeted_boundary_crossings": targeted.stats.boundary_crossings,
        },
        "differential": {
            "sink_contexts_full": len(full_ctx),
            "sink_contexts_targeted": len(targeted_ctx),
            "contexts_match": match,
        },
        "honesty_note": (
            "pure-Python cost model: every call event still reaches the "
            "targeted engine and takes the cheap untracked path, so the "
            "speedup measures handler work avoided, not instrumentation "
            "removed; a native build (or the tracer's per-code-object "
            "skip) drops the event entirely, making this a lower bound"
        ),
    }
    return section


def render(section):
    plan = section["plan"]
    overhead = section["overhead"]
    ids = section["id_space"]
    diff = section["differential"]
    lines = [
        "targeted encoding: %d calls, sinks %s"
        % (section["calls"], ", ".join(section["sinks"])),
        "",
        "plan: %d/%d functions instrumented (%.1f%%), static max_id %d, "
        "collision-free=%s"
        % (
            plan["targeted_functions"],
            plan["total_functions"],
            100 * plan["instrumented_fraction"],
            plan["static_max_id"],
            plan["collision_free"],
        ),
        "",
        "%-22s %14s %10s" % ("mode", "ns/event", "max_id"),
        "%-22s %14.1f %10d"
        % ("full (cold)", overhead["full_cold_ns_per_event"],
           ids["full_cold_max_id"]),
        "%-22s %14.1f %10d"
        % ("full (warm-start)", overhead["full_warm_ns_per_event"],
           ids["full_warm_max_id"]),
        "%-22s %14.1f %10d"
        % ("targeted", overhead["targeted_ns_per_event"],
           ids["targeted_max_id"]),
        "",
        "speedup vs full: %.2fx cold, %.2fx warm"
        % (overhead["speedup_vs_full_cold"],
           overhead["speedup_vs_full_warm"]),
        "differential: %d full / %d targeted sink context(s), match=%s"
        % (diff["sink_contexts_full"], diff["sink_contexts_targeted"],
           diff["contexts_match"]),
        "",
        "honesty: " + section["honesty_note"],
    ]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, single repeat (CI)")
    parser.add_argument("--output",
                        help="also write the report as JSON to this file")
    args = parser.parse_args(argv)

    calls = 10_000 if args.quick else 40_000
    repeats = 1 if args.quick else 3

    section = bench_targeted(calls, repeats)
    section["generated_by"] = "benchmarks/bench_targeted.py" + (
        " --quick" if args.quick else ""
    )

    text = render(section)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "targeted.txt"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(section, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("\nwrote %s" % args.output)

    if not section["differential"]["contexts_match"]:
        print("FAULT: targeted decode differs from projected full decode")
        return 1
    if section["id_space"]["targeted_max_id"] >= min(
        section["id_space"]["full_cold_max_id"],
        section["id_space"]["full_warm_max_id"],
    ):
        print("FAULT: targeted id space is not strictly smaller than full")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
