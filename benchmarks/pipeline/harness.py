"""Measure one workload in this process and print its result line.

    python3 benchmarks/pipeline/harness.py --workload NAME --seed N \
        --seconds S --trace 0|1

``run.py`` starts this script in a fresh subprocess per workload, with
``PYTHONPATH`` pointing at ``src`` and a fixed ``PYTHONHASHSEED``; run it
by hand the same way.  The last stdout line is the JSON result.

Timing method: after a cold start and a fixed warm-up, blocks of traced
iterations (in a ``--trace`` run interleaved with untraced and
span-traced blocks) run until ``--seconds`` have passed and at least
``min_iters`` traced iterations exist.  Reference iterations run right
before each traced one: the program under a no-op profile hook, or for
the synthetic stream a plain shadow-stack replay.  Every traced time is
reported as a slowdown over recent reference times, so a shared host's
changes of speed largely cancel out.  The cyclic garbage collector is
paused inside each block and run between blocks, so collections
triggered by earlier allocations do not land in the timings; objects
alive after warm-up are frozen.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.analysis.validate import contexts_equal
from repro.core.context import CallingContext
from repro.pytrace import contexts_agree

import tracing
import workloads

COLD_STARTS = 9
WARMUP = 3
BLOCK = 4
#: Reference iterations (the program under a no-op profile hook) run
#: right before each traced one.  They are 13-80x cheaper.
REFERENCE_RUNS = 2
#: Reference times whose median a traced time is divided by: a fraction
#: of a second of recent host speed, so one interrupted reference run
#: moves nothing.
REFERENCE_WINDOW = 25
#: Traced iterations a run needs at least: 10 lie beyond p95.
MIN_ITERS = 200


class HarnessError(RuntimeError):
    """The harness could not measure the workload as specified."""


def _noop_profile(frame: Any, event: str, arg: Any) -> None:
    return None


def count_events(workload: workloads.PythonWorkload) -> int:
    """Python call + return events of one untraced iteration."""
    events = 0

    def counter(frame: Any, event: str, arg: Any) -> None:
        nonlocal events
        if event == "call" or event == "return":
            events += 1

    workload.oracle.calls = 0
    sys.setprofile(counter)
    try:
        workload.program()
    finally:
        sys.setprofile(None)
    return events


def warm_event_count(workload: workloads.PythonWorkload) -> int:
    """The per-iteration event count, checked on two warm iterations."""
    first = count_events(workload)
    second = count_events(workload)
    if first != second or first <= 0:
        raise HarnessError(
            "%s: warm iterations differ in events (%d vs %d)"
            % (workload.name, first, second)
        )
    return first


def p95(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20)[18]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _end_to_end(blocks: "Blocks") -> Dict[str, Any]:
    return {
        "ref_slowdown.p50": _metric(statistics.median(blocks.times["traced"]), "x"),
        "setup_s": _metric(statistics.median(blocks.setups), "s"),
        "peak_rss_mb": _metric(blocks.peak_rss_mb, "MB"),
    }


class Checks:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def tally(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(note)


class Blocks:
    """Interleaved timing blocks; ``times[kind]`` holds one value per iteration.

    A traced iteration's value is its slowdown: its time over the median
    of the latest ``REFERENCE_WINDOW`` reference times, the last of which
    ran right before it (see ``reference``).  A shared host changes speed
    from one second to the next.  Contention slows hooked code about as
    much as traced code, and bare code less, so the reference runs under
    a profile hook too.  Re-encoding passes, kernel recompiles and
    emitter flushes lift single traced iterations, and those are what
    the ratios keep.

    Cold starts (``setup``) are spread evenly over the run rather than
    bunched at its start, so their median does not hang on whether the
    host was slow during the first second.  Peak RSS is read once
    ``min_iters`` traced iterations have run: a fixed amount of work,
    however fast the host.
    """

    def __init__(self, kinds: List[str], setup: Callable[[], float], setups: List[float]) -> None:
        self.kinds = kinds
        self.times: Dict[str, List[float]] = {kind: [] for kind in kinds}
        self.setup = setup
        self.setups = setups
        self.peak_rss_mb = 0.0
        #: The latest reference times.
        self.reference: Deque[float] = collections.deque(maxlen=REFERENCE_WINDOW)

    def slowdown(self, traced: float) -> float:
        return traced / statistics.median(self.reference)

    def run(self, seconds: float, min_iters: int, step: Callable[[str], List[float]]) -> None:
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        spacing = seconds / COLD_STARTS
        rounds = 0
        traced = self.times["traced"]
        while time.perf_counter() - started < seconds or len(traced) < min_iters:
            if (
                len(self.setups) < COLD_STARTS
                and time.perf_counter() - started >= len(self.setups) * spacing
            ):
                gc.collect()
                self.setups.append(self.setup())
            order = self.kinds if rounds % 2 == 0 else self.kinds[::-1]
            for kind in order:
                gc.collect()
                gc.disable()
                try:
                    self.times[kind].extend(step(kind))
                finally:
                    gc.enable()
            rounds += 1
            if not self.peak_rss_mb and len(traced) >= min_iters:
                self.peak_rss_mb = _peak_rss_mb()
        while len(self.setups) < COLD_STARTS:
            self.setups.append(self.setup())


def _verify(
    engine: Any,
    expectations: List[Tuple[Any, CallingContext]],
    checks: Checks,
    agree: Callable[[CallingContext, CallingContext], bool],
) -> Tuple[int, int, float, float]:
    """Decode every stored sample after the timed loop and compare.

    Returns the decoder-layer measurements: decodes, total decode ns,
    median ``engine.decoder()`` build ms and the decode-cache hit rate.
    """
    builds = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        decoder = engine.decoder()
        builds.append(time.perf_counter_ns() - t0)
    cache = decoder.cache
    hits, misses = cache.hits, cache.misses
    decode_ns = 0
    for sample, expected in expectations:
        t0 = time.perf_counter_ns()
        try:
            decoded = decoder.decode(sample)
        except Exception as error:  # any raise is a failed decode
            decode_ns += time.perf_counter_ns() - t0
            checks.tally(1, 1, "decode raised %r for %r" % (error, sample))
            continue
        decode_ns += time.perf_counter_ns() - t0
        checks.tally(
            1,
            int(not agree(decoded, expected)),
            "decoded %s != expected %s" % (decoded.functions(), expected.functions()),
        )
    lookups = cache.hits + cache.misses - hits - misses
    hit_rate = (cache.hits - hits) / lookups if lookups else 0.0
    checks.tally(0, engine.faults.total, "engine quarantined %d faults" % engine.faults.total)
    return len(expectations), decode_ns, statistics.median(builds) / 1e6, hit_rate


def _counters(engine: Any, session: Any = None) -> Dict[str, int]:
    fp = engine.fastpath
    stats = engine.stats
    ccstack = engine.ccstack_stats()
    counters = {
        "hits": fp.hits,
        "misses": fp.misses,
        "compiles": fp.compiles,
        "calls": stats.calls,
        "back_edge_calls": stats.back_edge_calls,
        "unencoded_calls": stats.unencoded_calls,
        "profile_samples": stats.profile_samples,
        "ccstack_ops": sum(
            ccstack[op] for op in ("pushes", "pops", "compressions", "decompressions")
        ),
    }
    if session is not None and session.emitter is not None:
        counters.update(
            frames=session.emitter.frames_emitted,
            samples=session.emitter.samples_emitted,
            frame_bytes=session.frame_bytes,
            ingested=session.frames,
            folded=session.folded,
        )
    return counters


def _add_delta(acc: Dict[str, int], before: Dict[str, int], after: Dict[str, int]) -> None:
    for key, value in after.items():
        acc[key] = acc.get(key, 0) + value - before[key]


class LayerInputs:
    """What the per-layer metrics are computed from (span-traced blocks)."""

    def __init__(self) -> None:
        self.log = tracing.SpanLog()
        self.passes: List[Tuple[Any, Any]] = []
        self.reasons: List[Tuple[str, ...]] = []
        self.deltas: Dict[str, int] = {}
        self.iterations = 0
        self.events = 0
        self.wall_ns = 0


def _layer_metrics(
    inputs: LayerInputs,
    blocks: "Blocks",
    program_ns: float,
    hook_ns: float,
    slowdown: float,
    quality: Dict[str, Dict[str, Any]],
    decode: Tuple[int, int, float, float],
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, from the span log and counter deltas.

    Per-event values divide by the program's own events; counts are per
    span-traced iteration.  The reference-slowdown tail and the tracing
    overhead come from the plain and span-traced blocks.
    """
    traced = blocks.times["traced"]
    overhead = statistics.median(blocks.times["spans"]) / statistics.median(traced) - 1
    totals = inputs.log
    d = inputs.deltas
    iters = max(1, inputs.iterations)
    events = max(1, inputs.events)
    wall = inputs.wall_ns / events
    spans_ns = totals.top_level_ns / events
    pytrace_self = wall - program_ns - hook_ns - spans_ns

    def per_iter(value: float) -> float:
        return value / iters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    passes = totals.count("adaptive.reencode")
    samples = d.get("samples", 0)
    frames = d.get("ingested", 0)
    decodes, decode_ns, build_ms, cache_hit_rate = decode
    reasons = inputs.reasons
    metrics = {
        "ref_slowdown.p95": _metric(p95(traced), "x"),
        "slowdown.p50": _metric(slowdown, "x"),
        "program.ns_per_event": _metric(program_ns, "ns"),
        "hook.ns_per_event": _metric(hook_ns, "ns"),
        "pytrace.self_ns_per_event": _metric(pytrace_self, "ns"),
        "pytrace.flushes": _metric(per_iter(totals.count("engine.process_columns")), "1/iter"),
        "pytrace.events_per_flush": _metric(
            ratio(totals.items("engine.process_columns"), totals.count("engine.process_columns")),
            "events",
        ),
        "engine.kernel.self_ns_per_event": _metric(
            totals.self_ns("engine.process_columns") / events, "ns"
        ),
        "engine.fastpath.hit_rate": _metric(
            ratio(d["hits"], d["hits"] + d["misses"]), "ratio"
        ),
        "engine.fastpath.deopts": _metric(per_iter(d["misses"]), "1/iter"),
        "engine.kernel.compiles": _metric(per_iter(d["compiles"]), "1/iter"),
        "engine.general.calls": _metric(per_iter(totals.count("engine.on_event")), "1/iter"),
        "engine.general.self_us_per_call": _metric(
            ratio(totals.self_ns("engine.on_event"), totals.count("engine.on_event")) / 1e3,
            "us",
        ),
        "engine.storm.events": _metric(per_iter(totals.items("engine.process_batch")), "1/iter"),
        "engine.storm.self_ns_per_event": _metric(
            ratio(totals.self_ns("engine.process_batch"), totals.items("engine.process_batch")),
            "ns",
        ),
        "adaptive.reencode.passes": _metric(per_iter(passes), "1/iter"),
        "adaptive.reencode.ms_per_pass": _metric(
            ratio(totals.total_ns("adaptive.reencode"), passes) / 1e6, "ms"
        ),
        "adaptive.reencode.share": _metric(
            ratio(totals.total_ns("adaptive.reencode"), inputs.wall_ns), "ratio"
        ),
        "adaptive.reencode.useful_ratio": _metric(
            ratio(tracing.useful_passes(inputs.passes), len(inputs.passes)), "ratio"
        ),
        "adaptive.trigger.new_edges": _metric(
            ratio(sum("new-edges" in r for r in reasons), len(reasons)), "ratio"
        ),
        "adaptive.trigger.hot_paths": _metric(
            ratio(sum("hot-paths-changed" in r for r in reasons), len(reasons)), "ratio"
        ),
        "adaptive.trigger.ccstack_traffic": _metric(
            ratio(sum("ccstack-traffic" in r for r in reasons), len(reasons)), "ratio"
        ),
        "ccstack.ops_per_kcall": _metric(1e3 * ratio(d["ccstack_ops"], d["calls"]), "ops"),
        "ccstack.back_edge_calls": _metric(per_iter(d["back_edge_calls"]), "1/iter"),
        "ccstack.unencoded_calls": _metric(per_iter(d["unencoded_calls"]), "1/iter"),
        "engine.sample.us_per_sample": _metric(
            ratio(totals.total_ns("engine.on_sample"), totals.count("engine.on_sample")) / 1e3,
            "us",
        ),
        "engine.profile_samples": _metric(per_iter(d["profile_samples"]), "1/iter"),
        "decoder.build_ms": _metric(build_ms, "ms"),
        "decoder.us_per_decode": _metric(ratio(decode_ns, decodes) / 1e3, "us"),
        "decoder.cache_hit_rate": _metric(cache_hit_rate, "ratio"),
        "emitter.flush.us_per_sample": _metric(
            ratio(totals.self_ns("emitter.flush"), samples) / 1e3, "us"
        ),
        "emitter.frames": _metric(per_iter(d.get("frames", 0)), "1/iter"),
        "emitter.bytes_per_sample": _metric(ratio(d.get("frame_bytes", 0), samples), "B"),
        "sinks.emit.ns_per_frame": _metric(
            ratio(totals.total_ns("sinks.emit"), totals.count("sinks.emit")), "ns"
        ),
        "ingest.fold.us_per_frame": _metric(
            ratio(totals.total_ns("ingest.ingest_lines"), frames) / 1e3, "us"
        ),
        "ingest.frames.folded": _metric(per_iter(d.get("folded", 0)), "1/iter"),
        "trace.overhead": _metric(overhead, "ratio"),
        "trace.accounted_ratio": _metric(
            ratio(program_ns + hook_ns + spans_ns, wall), "ratio"
        ),
    }
    for name, value in quality.items():
        metrics[name] = value
    return metrics


class Report:
    def __init__(self) -> None:
        self.checks = Checks()
        self.metrics: Dict[str, Dict[str, Any]] = {}
        #: The span log of a ``--trace`` run (written to results/).
        self.spans: Optional[tracing.SpanLog] = None
        #: Sizes behind the numbers, printed to stderr.
        self.info: Dict[str, Any] = {}

    def to_json(self) -> Dict[str, Any]:
        return {
            "correct": self.checks.failed == 0,
            "attempted": max(1, self.checks.attempted),
            "failed": self.checks.failed,
            "metrics": self.metrics,
        }


def _quality(
    checks: Checks,
    max_id: int,
    samples: List[Any],
    ingest: Optional[Tuple[int, int]] = None,
) -> Dict[str, Dict[str, Any]]:
    depth = statistics.fmean(len(s.ccstack) for s in samples) if samples else 0.0
    quality = {
        "max_id": _metric(max_id, "count"),
        "ccstack_depth.mean": _metric(depth, "entries"),
        "errors.rate": _metric(checks.failed / max(1, checks.attempted), "ratio"),
        "ingest.frames.rejected": _metric(ingest[0] if ingest else 0, "count"),
        "prof.cct.nodes": _metric(ingest[1] if ingest else 0, "count"),
    }
    return quality


def measure_python(
    workload: workloads.PythonWorkload,
    seconds: float,
    trace: bool,
    min_iters: int,
    walk: Optional[Callable[..., CallingContext]] = None,
) -> Report:
    report = Report()
    checks = report.checks
    oracle = workload.oracle
    program = workload.program

    def cold_start() -> Tuple[workloads.Session, float]:
        t0 = time.perf_counter()
        session = workload.open_session()
        oracle.calls = 0
        session.run(program)
        return session, time.perf_counter() - t0

    session, first_setup = cold_start()
    setups = [first_setup]
    for _ in range(WARMUP):
        oracle.calls = 0
        program()
        oracle.calls = 0
        session.run(program)
    events = warm_event_count(workload)
    if walk is not None:
        oracle.walk = walk

    engine = session.tracer.engine
    layer = LayerInputs()
    clock = time.perf_counter_ns
    #: Every reference iteration, ns.
    hooked: List[int] = []

    def run_hooked() -> int:
        """One reference iteration: the program under a no-op profile hook."""
        t0 = clock()
        oracle.calls = 0
        sys.setprofile(_noop_profile)
        try:
            program()
        finally:
            sys.setprofile(None)
        return clock() - t0

    def iterate(kind: str) -> List[float]:
        """One block: ns per untraced iteration, or traced slowdowns."""
        out: List[float] = []
        traced_ns: List[int] = []
        spans = kind == "spans"
        if spans:
            before = _counters(engine, session)
            passes_before = len(engine.reencode_log)
            tracing.install_engine_spans(layer.log, engine, layer.passes)
            if session.emitter is not None:
                tracing.install_read_side_spans(layer.log, session)
        try:
            for _ in range(BLOCK):
                if kind == "program":
                    t0 = clock()
                    oracle.calls = 0
                    program()
                    out.append(clock() - t0)
                    continue
                reference = [run_hooked() for _ in range(REFERENCE_RUNS)]
                hooked.extend(reference)
                blocks.reference.extend(reference)
                t0 = clock()
                oracle.calls = 0
                oracle.tracer = session.tracer
                try:
                    session.run(program)
                finally:
                    oracle.tracer = None
                traced_ns.append(clock() - t0)
                out.append(blocks.slowdown(traced_ns[-1]))
        finally:
            if spans:
                layer.log.remove()
                _add_delta(layer.deltas, before, _counters(engine, session))
                layer.reasons += [r.reasons for r in engine.reencode_log[passes_before:]]
                layer.iterations += len(traced_ns)
                layer.events += events * len(traced_ns)
                layer.wall_ns += sum(traced_ns)
        return out

    kinds = ["program", "traced", "spans"] if trace else ["traced"]
    blocks = Blocks(kinds, lambda: cold_start()[1], setups)
    blocks.run(seconds, min_iters, iterate)

    expectations = [
        (sample, CallingContext.from_functions(session.expected(walked)))
        for sample, walked in oracle.records
    ]
    decode = _verify(engine, expectations, checks, contexts_agree)
    ingest = None
    if session.service is not None:
        checks.tally(
            session.frames, session.rejected, "ingest rejected %d frames" % session.rejected
        )
        cct = session.service.aggregator.stats()
        weight = engine.stats.profile_samples * workloads.PROFILE_EVERY
        checks.tally(
            1,
            int(cct["weight"] != weight or cct["weight_partial"] != 0),
            "CCT weight %r (partial %r) != %d hook samples x %d"
            % (cct["weight"], cct["weight_partial"], engine.stats.profile_samples,
               workloads.PROFILE_EVERY),
        )
        ingest = (session.rejected, cct["nodes"])
    quality = _quality(checks, engine.max_id, [s for s, _ in oracle.records], ingest)

    if trace:
        untraced = blocks.times["program"]
        program_ns = statistics.fmean(untraced) / events
        hook_ns = statistics.fmean(hooked) / events - program_ns
        # Over untraced runs: the reference ratio times hook over untraced.
        slowdown = (
            statistics.median(blocks.times["traced"])
            * statistics.median(hooked) / statistics.median(untraced)
        )
        report.metrics = _layer_metrics(
            layer, blocks, program_ns, hook_ns, slowdown, quality, decode
        )
        report.spans = layer.log
    else:
        report.metrics = _end_to_end(blocks)
    report.info = {
        "events_per_iteration": events,
        "iterations": {kind: len(times) for kind, times in blocks.times.items()},
        "reference_iterations": len(hooked),
        "probes": len(oracle.records),
    }
    return report


def measure_synthetic(
    workload: workloads.SyntheticWorkload,
    seconds: float,
    trace: bool,
    min_iters: int,
) -> Report:
    report = Report()
    checks = report.checks
    slabs = workload.slabs

    def cold_start() -> float:
        t0 = time.perf_counter()
        workload.new_engine().process_columns(slabs[0])
        return time.perf_counter() - t0

    layer = LayerInputs()

    def repetition(kind: str) -> List[float]:
        """Every slab's slowdown through a fresh engine.

        Its reference time, per event, is the same slab replayed on plain
        shadow stacks right before it (see ``workloads.shadow_stack``).
        """
        engine = workload.new_engine()
        stacks = workload.new_stacks()
        contexts: List[Tuple[int, ...]] = []
        out = []
        engine_ns = []
        clock = time.perf_counter_ns
        spans = kind == "spans"
        if spans:
            before = _counters(engine)
            tracing.install_engine_spans(layer.log, engine, layer.passes)
        try:
            for slab in slabs:
                t0 = clock()
                workloads.shadow_stack(slab, stacks, contexts)
                t1 = clock()
                engine.process_columns(slab)
                engine_ns.append(clock() - t1)
                blocks.reference.append((t1 - t0) / len(slab))
                out.append(blocks.slowdown(engine_ns[-1] / len(slab)))
        finally:
            if spans:
                layer.log.remove()
                _add_delta(layer.deltas, before, _counters(engine))
                layer.reasons += [r.reasons for r in engine.reencode_log]
                layer.iterations += len(engine_ns)
                layer.events += sum(len(slab) for slab in slabs[: len(engine_ns)])
                layer.wall_ns += sum(engine_ns)
        return out

    setups: List[float] = []
    blocks = Blocks(["traced", "spans"] if trace else ["traced"], cold_start, setups)
    blocks.run(seconds, min_iters, repetition)

    # Oracle repetition: capture the shadow-stack context at every stream
    # sample, decode everything afterwards.
    engine = workload.new_engine()
    expectations: List[Tuple[Any, CallingContext]] = []
    on_sample = engine.on_sample

    def recorded_on_sample(event: Any) -> Any:
        sample = on_sample(event)
        expectations.append((sample, engine.expected_context(event.thread)))
        return sample

    engine.on_sample = recorded_on_sample
    for slab in slabs:
        engine.process_columns(slab)
    del engine.on_sample
    decode = _verify(engine, expectations, checks, contexts_equal)
    quality = _quality(checks, engine.max_id, [s for s, _ in expectations])

    if trace:
        # No interpreter to slow down: the cost model's Figure 8 slowdown
        # (1 + instrumentation over baseline cycles) instead.
        slowdown = 1.0 + engine.cost.report.overhead
        report.metrics = _layer_metrics(layer, blocks, 0.0, 0.0, slowdown, quality, decode)
        report.spans = layer.log
    else:
        report.metrics = _end_to_end(blocks)
    report.info = {
        "events_per_iteration": statistics.fmean(len(s) for s in slabs),
        "iterations": {kind: len(times) for kind, times in blocks.times.items()},
        "probes": len(expectations),
    }
    return report


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: float = 1.0,
    min_iters: int = MIN_ITERS,
    walk: Optional[Callable[..., CallingContext]] = None,
) -> Report:
    """Build workload ``name`` from ``seed`` and measure it."""
    workload = workloads.build(name, seed, size)
    try:
        if isinstance(workload, workloads.SyntheticWorkload):
            return measure_synthetic(workload, seconds, trace, min_iters)
        return measure_python(workload, seconds, trace, min_iters, walk)
    finally:
        workload.cleanup()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in report.checks.failures[:20]:
        print("FAILED %s: %s" % (args.workload, note), file=sys.stderr)
    print("%s: %s" % (args.workload, json.dumps(report.info)), file=sys.stderr)
    if report.spans is not None:
        results = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
        os.makedirs(results, exist_ok=True)
        report.spans.write_jsonl(os.path.join(results, "spans-%s.jsonl" % args.workload))
    print(json.dumps(report.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
