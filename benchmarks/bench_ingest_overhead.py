"""Frame-emission overhead: what the ingestion plane costs a producer.

The ingest acceptance bar: attaching a :class:`FrameEmitter` (decoded
sample batches, stat deltas, frames serialized to a file sink) must stay
within **2%** of the bare sampling hook on the columnar fast lane.  The
design that makes this possible: the hot-path callback is one list
append; decoding (through the engine's memoized DecodeCache plus the
emitter's serialized-entry cache) and JSON serialization are amortized
at sample-batch boundaries.

Methodology — **decomposed**, not subtractive.  A 2% budget on a
~0.5 µs/event pass is ~10 ns/event ≈ 0.8 ms over an 80k-event pass;
scheduler jitter on a shared box is ±5 ms per pass, so subtracting two
end-to-end timings cannot resolve the effect (the first version of this
benchmark tried, and reported anything from -4% to +6% for the same
code).  Instead the plane's added work is timed directly, where each
term has clean signal:

* **flush cost** — wall time accumulated inside ``emitter.flush()``
  during real ``process_columns`` passes (entry cache warm, the
  steady-state regime), averaged per pass;
* **hook-callback delta** — one captured pass of (sample, weight)
  pairs replayed tight-loop through ``emitter._on_sample`` vs. the
  bare append callback, best-of-N;
* **baseline** — median wall time of a bare-hook pass (the
  denominator only, so jitter merely rescales the percentage).

``overhead = (flush + callback delta) / events`` against that baseline.

Measured configurations:

* **bare hook** at 1/64 — the sampling hook with a no-op append
  callback, nothing emitted (baseline);
* **emitter** at 1/64 — FrameEmitter attached, frames to a file sink;
* **emitter** at 1/1024 — background rate.

Results merge into ``BENCH_CORE.json`` as an ``ingest_overhead``
section (read-modify-write: other sections are preserved), plus a
rendered copy under ``benchmarks/results/ingest_overhead.txt``.

Run with::

    PYTHONPATH=src python benchmarks/bench_ingest_overhead.py [--quick]
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


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


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


def _callback_delta(emitter, captured, repeats):
    """Per-pass cost of the emitter's hot-path callback over the bare
    append, replaying one captured pass of samples tight-loop."""
    saved_batch = emitter.sample_batch
    emitter.sample_batch = len(captured) * (repeats + 1) + 1  # no flushes

    def best_of(callback, reset):
        best = float("inf")
        for _ in range(repeats):
            reset()
            start = time.perf_counter()
            for sample, weight in captured:
                callback(sample, weight)
            best = min(best, time.perf_counter() - start)
        reset()
        return best

    bare_sink = []
    bare_cost = best_of(
        lambda sample, weight: bare_sink.append(sample),
        lambda: del_all(bare_sink),
    )
    emitter_cost = best_of(
        emitter._on_sample, lambda: del_all(emitter._buffer)
    )
    emitter.sample_batch = saved_batch
    return max(0.0, emitter_cost - bare_cost)


def del_all(items):
    del items[:]


def bench_ingest_overhead(calls, repeats, scratch_dir):
    from repro.ingest import FrameEmitter, FileFrameSink

    warmed_engine, columns = _steady_workload(calls)
    engine = warmed_engine()
    events = len(columns)

    # Baseline: bare sampling hook, median pass wall time.
    bare_samples = []
    engine.install_sample_hook(
        64, lambda sample, weight: bare_samples.append(sample)
    )
    engine.process_columns(columns)  # warm, untimed
    bare_times = []
    for _ in range(repeats):
        del bare_samples[:]
        start = time.perf_counter()
        engine.process_columns(columns)
        bare_times.append(time.perf_counter() - start)
    engine.remove_sample_hook()
    del bare_samples[:]
    baseline_s = _median(bare_times)
    baseline_ns = baseline_s / events * 1e9

    rates = {}
    for every in (64, 1024):
        # Capture one pass of (sample, weight) pairs at this rate for
        # the callback replay.
        captured = []
        engine.install_sample_hook(
            every, lambda sample, weight: captured.append((sample, weight))
        )
        engine.process_columns(columns)
        engine.remove_sample_hook()

        frames_path = os.path.join(scratch_dir, "bench-frames-%d.ndjson" % every)
        emitter = FrameEmitter(FileFrameSink(frames_path))
        emitter.attach(engine, every=every)
        engine.process_columns(columns)
        emitter.flush()  # warm pass: fills the serialized-entry cache

        # Flush cost: accumulate wall time inside every flush() during
        # real passes (in-pass batch flushes + the explicit tail flush).
        flush_spent = [0.0]
        inner_flush = emitter.flush

        def timed_flush():
            start = time.perf_counter()
            inner_flush()
            flush_spent[0] += time.perf_counter() - start

        emitter.flush = timed_flush  # _on_sample resolves the patch too
        for _ in range(repeats):
            engine.process_columns(columns)
            emitter.flush()
        emitter.flush = inner_flush
        flush_s = flush_spent[0] / repeats

        callback_s = _callback_delta(emitter, captured, max(repeats, 3))
        emitter.detach()
        emitter.sink.close()

        overhead_ns = (flush_s + callback_s) / events * 1e9
        rates["1/%d" % every] = {
            "every": every,
            "ns_per_event": round(baseline_ns + overhead_ns, 1),
            "overhead_vs_bare_hook_ns": round(overhead_ns, 1),
            "overhead_vs_bare_hook_pct": round(
                100.0 * overhead_ns / baseline_ns, 2
            ),
            "flush_ms_per_pass": round(flush_s * 1e3, 3),
            "hook_delta_ms_per_pass": round(callback_s * 1e3, 3),
            "samples_per_pass": len(captured),
            "frames_emitted": emitter.frames_emitted,
            "samples_emitted": emitter.samples_emitted,
        }

    return {
        "events": events,
        "calls": calls,
        "bare_hook_ns_per_event": round(baseline_ns, 1),
        "rates": rates,
        "budget_pct": 2.0,
        "methodology": "decomposed: flush wall time inside real passes "
        "+ tight-loop hook-callback delta, vs median bare-hook pass",
    }


def render(section):
    lines = [
        "frame-emission overhead (columnar fast lane, %d events)"
        % section["events"],
        "",
        "  bare hook at 1/64 : %8.1f ns/event (baseline)"
        % section["bare_hook_ns_per_event"],
    ]
    for key in sorted(section["rates"], key=lambda k: section["rates"][k]["every"]):
        rate = section["rates"][key]
        lines.append(
            "  emitter at %-7s: %8.1f ns/event  (%+6.1f ns, %+.2f%% vs bare;"
            " flush %.3f ms/pass, hook %+.3f ms/pass)"
            % (
                key,
                rate["ns_per_event"],
                rate["overhead_vs_bare_hook_ns"],
                rate["overhead_vs_bare_hook_pct"],
                rate["flush_ms_per_pass"],
                rate["hook_delta_ms_per_pass"],
            )
        )
    lines += [
        "",
        "budget: emitter at 1/64 within %.0f%% of the bare hook."
        % section["budget_pct"],
        "hot path is one list append per sample; decode + JSON",
        "serialization amortize at %d-sample batch boundaries"
        % 256,
        "(see docs/EVENTS.md).",
    ]
    return "\n".join(lines)


def main(argv=None):
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, fewer repeats (CI)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_CORE.json"))
    args = parser.parse_args(argv)

    calls = 10_000 if args.quick else 40_000
    repeats = 3 if args.quick else 9

    with tempfile.TemporaryDirectory() as scratch:
        section = bench_ingest_overhead(calls, repeats, scratch)
    section["generated_by"] = "benchmarks/bench_ingest_overhead.py" + (
        " --quick" if args.quick else ""
    )

    report = {}
    if os.path.exists(args.output):
        with open(args.output) as handle:
            report = json.load(handle)
    report.setdefault("schema", 1)
    report["ingest_overhead"] = section
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    text = render(section)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "ingest_overhead.txt"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    print("\nwrote %s" % args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
