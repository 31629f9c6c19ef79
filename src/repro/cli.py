"""Command-line harness: regenerate the paper's tables and figures.

Examples::

    dacce table1 --benchmarks 401.bzip2 445.gobmk --calls 30000
    dacce fig8 --scale 0.4
    dacce fig9
    dacce fig10
    dacce validate --seeds 5
    dacce experiments --output EXPERIMENTS.md   # full paper-vs-measured report
    dacce metrics --calls 20000                 # Prometheus-format telemetry
    dacce trace --calls 20000 --limit 30        # structured JSONL engine trace
    dacce trace --input run/trace.jsonl --follow    # live tail (rotation-safe)
    dacce spans report --input spans.jsonl      # per-stage latency summary
    dacce spans waterfall --input producer.jsonl ingest.jsonl   # trace tree
    dacce doctor --state run.state.json --log run.log   # integrity check
    dacce profile record --prefix prof          # sampled profiling run
    dacce profile flame --state prof.state.json --log prof.log \
        --output prof.folded                    # flamegraph.pl input
    dacce profile serve --port 8787 --duration 30   # live profile server
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import List, Optional

from .analysis import (
    FIGURE9_BENCHMARKS,
    FIGURE10_BENCHMARKS,
    export_fig8_csv,
    export_fig9_csv,
    export_fig10_csv,
    export_table1_csv,
    measure_benchmark,
    render_figure8,
    render_figure9,
    render_figure10,
    render_table1,
    run_depth_distributions,
    run_progress,
    validate_run,
)
from .bench import full_suite
from .core.engine import DacceEngine
from .program.generator import GeneratorConfig, generate_program
from .program.trace import PhaseSpec, ThreadSpec, WorkloadSpec


def _fault(message: str) -> int:
    """Structured CLI failure, matching the ``dacce doctor`` convention."""
    print("FAULT: %s" % message)
    return 1


def _select(names: Optional[List[str]]):
    suite = full_suite()
    if not names:
        return list(suite)
    missing = [n for n in names if n not in suite.names()]
    if missing:
        raise SystemExit(
            "unknown benchmarks: %s\navailable: %s"
            % (", ".join(missing), ", ".join(suite.names()))
        )
    return [suite.get(n) for n in names]


def _measure_all(args) -> list:
    benchmarks = _select(args.benchmarks)
    measurements = []
    start = time.time()
    for index, benchmark in enumerate(benchmarks):
        measurements.append(
            measure_benchmark(
                benchmark, calls=args.calls, scale=args.scale, seed=args.seed
            )
        )
        if args.verbose:
            print(
                "[%d/%d] %s (%.1fs elapsed)"
                % (index + 1, len(benchmarks), benchmark.name, time.time() - start),
                file=sys.stderr,
            )
    return measurements


def cmd_table1(args) -> int:
    measurements = _measure_all(args)
    print(render_table1(measurements))
    if args.csv:
        print("csv written to %s" % export_table1_csv(measurements, args.csv))
    return 0


def cmd_fig8(args) -> int:
    measurements = _measure_all(args)
    print(render_figure8(measurements))
    if args.csv:
        print("csv written to %s" % export_fig8_csv(measurements, args.csv))
    return 0


def cmd_fig9(args) -> int:
    names = args.benchmarks or list(FIGURE9_BENCHMARKS)
    series = [
        run_progress(b, calls=args.calls, scale=args.scale, seed=args.seed)
        for b in _select(names)
    ]
    print(render_figure9(series))
    if args.csv:
        print("csv written to %s" % export_fig9_csv(series, args.csv))
    return 0


def cmd_fig10(args) -> int:
    names = args.benchmarks or list(FIGURE10_BENCHMARKS)
    distributions = [
        run_depth_distributions(b, calls=args.calls, scale=args.scale, seed=args.seed)
        for b in _select(names)
    ]
    print(render_figure10(distributions))
    if args.csv:
        print("csv written to %s" % export_fig10_csv(distributions, args.csv))
    return 0


def cmd_validate(args) -> int:
    """Decode-vs-oracle cross validation over random workloads."""
    failures = 0
    for seed in range(args.seeds):
        program = generate_program(
            GeneratorConfig(
                seed=seed,
                recursive_sites=4,
                indirect_fraction=0.1,
                tail_fraction=0.05,
                library_functions=6,
                lazy_library=True,
            )
        )
        spec = WorkloadSpec(
            calls=args.calls,
            seed=seed + 1000,
            sample_period=41,
            recursion_affinity=0.4,
            threads=[ThreadSpec(thread=1, entry=3, spawn_at_call=1500)],
            phases=[PhaseSpec(at_call=args.calls // 2, seed=7)],
        )
        engine = DacceEngine(root=program.main)
        result = validate_run(program, spec, engine)
        status = "ok" if result.ok else "FAILED"
        print(
            "seed %d: %s — %d samples, %d mismatches, %d undecodable, "
            "%d re-encodings"
            % (
                seed,
                status,
                result.samples,
                result.mismatches,
                result.undecodable,
                engine.stats.reencodings,
            )
        )
        if not result.ok:
            failures += 1
            for _sample, message in result.failures[:3]:
                print("   %s" % message[:200])
    return 1 if failures else 0


def _record_program(seed: int):
    """The synthetic program ``dacce record`` runs for a given seed.

    ``dacce static --record-seed N`` must rebuild the *same* program so
    its static graph shares the recording's id space — keep the two in
    lockstep.
    """
    return generate_program(
        GeneratorConfig(
            seed=seed,
            recursive_sites=3,
            indirect_fraction=0.1,
            library_functions=6,
        )
    )


def cmd_record(args) -> int:
    """Run a synthetic workload; write a compact log + decoding state.

    Demonstrates the paper's deployment split: the recording side keeps
    only a few words per context, decoding happens later and elsewhere
    (see ``dacce decode``).
    """
    from .core.samplelog import SampleLog
    from .core.serialize import export_decoding_state

    program = _record_program(args.seed)
    spec = WorkloadSpec(
        calls=args.calls,
        seed=args.seed + 1,
        sample_period=max(10, args.calls // 500),
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=args.calls // 10)],
    )
    engine = DacceEngine(root=program.main)
    from .program.trace import run_workload_columnar

    # Drive the engine through the columnar batch path; the collected
    # samples are then bulk-serialised in one pass instead of one
    # append per sample callback.
    run_workload_columnar(program, spec, engine)
    log = SampleLog()
    log.extend_packed(engine.samples)

    log_path = args.prefix + ".log"
    state_path = args.prefix + ".state.json"
    with open(log_path, "wb") as handle:
        handle.write(log.to_bytes())
    export_decoding_state(engine, state_path)
    print("recorded %d contexts (%d bytes, %.1f bytes/context)"
          % (len(log), log.size_bytes, log.bytes_per_sample))
    print("wrote %s and %s" % (log_path, state_path))
    return 0


def cmd_decode(args) -> int:
    """Offline-decode a recorded context log against its state file."""
    from .core.faults import PartialDecode
    from .core.samplelog import SampleLog
    from .core.serialize import load_decoder

    best_effort = getattr(args, "best_effort", False)
    jobs = getattr(args, "jobs", 1) or 1
    try:
        decoder = load_decoder(args.state, best_effort=best_effort)
    except OSError as error:
        return _fault("state file unreadable: %s" % error)
    try:
        with open(args.log, "rb") as handle:
            log = SampleLog.from_bytes(handle.read(), best_effort=best_effort)
    except OSError as error:
        return _fault("log file unreadable: %s" % error)
    for fault in getattr(decoder, "load_faults", []):
        print("state fault: [%s] %s" % (fault["reason"], fault["message"]),
              file=sys.stderr)
    for fault in log.faults:
        print("log fault @%d: [%s] %s"
              % (fault.offset, fault.reason, fault.message), file=sys.stderr)

    samples = log.samples()

    def show(sample, result) -> None:
        if isinstance(result, PartialDecode):
            context = result.context
            marker = "" if result.complete else " (partial: %s)" % (
                result.fault.reason if result.fault else "unknown"
            )
        else:
            context = result
            marker = ""
        path = " -> ".join(
            "fn%d" % step.function
            + ("@%d" % step.callsite if step.callsite is not None else "")
            for step in context.steps
        )
        print("[T%d gTS=%d id=%d] %s%s"
              % (sample.thread, sample.timestamp, sample.context_id, path,
                 marker))

    if jobs > 1:
        from .core.parallel import decode_log_parallel

        stats: dict = {}
        results = decode_log_parallel(
            args.state,
            samples,
            jobs=jobs,
            best_effort=best_effort,
            best_effort_state=best_effort,
            stats=stats,
        )
        for shown, (sample, result) in enumerate(zip(samples, results)):
            if args.limit and shown >= args.limit:
                print("... (%d more)" % (len(samples) - shown))
                break
            show(sample, result)
        print(
            "decoded %d contexts with %d jobs (cache: %d hits / %d misses)"
            % (len(results), stats["jobs"], stats["cache_hits"],
               stats["cache_misses"]),
            file=sys.stderr,
        )
        return 0

    shown = 0
    for sample in samples:
        if args.limit and shown >= args.limit:
            remaining = len(samples) - shown
            print("... (%d more)" % remaining)
            break
        if best_effort:
            show(sample, decoder.decode_best_effort(sample))
        else:
            show(sample, decoder.decode(sample))
        shown += 1
    return 0


def _doctor_events(target: str, report) -> None:
    """Validate a canonical ``events.ndjson`` run log.

    ``target`` is the log file itself or a run directory containing
    one.  Checks every line parses as a ``dacce.events.v1`` envelope,
    the per-run ``sequence`` is strictly monotonic, and the file ends
    on a newline (a torn tail means the writing service died
    mid-append and has not recovered the log yet).
    """
    from .ingest import EnvelopeError, parse_envelope

    path = target
    if os.path.isdir(target):
        path = os.path.join(target, "events.ndjson")
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        report("event log unreadable: %s" % error)
        return
    torn = b""
    body = raw
    if raw and not raw.endswith(b"\n"):
        cut = raw.rfind(b"\n") + 1
        body, torn = raw[:cut], raw[cut:]
    last_sequence = {}
    events = 0
    for lineno, line in enumerate(
        body.decode("utf-8", errors="replace").splitlines(), 1
    ):
        if not line.strip():
            continue
        try:
            envelope = parse_envelope(line)
        except EnvelopeError as error:
            report("events line %d: %s [%s]" % (lineno, error, error.reason))
            continue
        previous = last_sequence.get(envelope.run, 0)
        if envelope.sequence <= previous:
            report(
                "events line %d: run %r sequence %d is not greater than %d"
                % (lineno, envelope.run, envelope.sequence, previous)
            )
        else:
            last_sequence[envelope.run] = envelope.sequence
        events += 1
    if torn:
        report(
            "events torn tail: final line incomplete (%d byte(s), %r...)"
            % (len(torn), torn[:40].decode("utf-8", errors="replace"))
        )
    print(
        "events: %d envelope(s) across %d run(s)" % (events, len(last_sequence))
    )
    for run, sequence in sorted(last_sequence.items()):
        print("  run %s: sequence watermark %d" % (run, sequence))


def cmd_doctor(args) -> int:
    """Validate persisted artifacts offline; non-zero exit on damage.

    ``--state`` (+ optional ``--log``) checks a decoding-state file:
    it parses and carries a supported format version; every dictionary
    passes its checksum (v2) and the structural invariants of
    Algorithm 1; the sample log's framing and per-record checksums
    hold; every sample decodes against the state.  ``--events`` checks
    a canonical ``events.ndjson`` run log (or the run directory
    holding one): parseable envelopes, strictly-monotonic per-run
    sequence, no torn tail.
    """
    from .core.invariants import check_dictionary
    from .core.samplelog import SampleLog
    from .core.serialize import (
        SerializationError,
        _SUPPORTED_VERSIONS,
        decoder_from_dict,
        dictionary_from_dict,
        verify_dictionary_entry,
    )

    if not args.state and not args.events:
        return _fault("doctor needs --state and/or --events")

    problems = []

    def report(message: str) -> None:
        problems.append(message)
        print("FAULT: %s" % message)

    if args.events:
        _doctor_events(args.events, report)
    if not args.state:
        if problems:
            print("doctor: %d fault(s) found" % len(problems))
            return 1
        print("doctor: all checks passed")
        return 0

    try:
        with open(args.state) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        report("state file unreadable: %s" % error)
        print("doctor: %d fault(s), no further checks possible"
              % len(problems))
        return 1

    version = data.get("format")
    if version not in _SUPPORTED_VERSIONS:
        report("unsupported decoding-state format %r" % version)
    entries = data.get("dictionaries", [])
    checked = 0
    for entry in entries:
        ts = entry.get("timestamp")
        if version == 2:
            try:
                verify_dictionary_entry(entry)
            except SerializationError as error:
                report(str(error))
                continue
        try:
            dictionary = dictionary_from_dict(entry)
        except SerializationError as error:
            report(str(error))
            continue
        for violation in check_dictionary(dictionary):
            report("dictionary ts=%s invariant: %s" % (ts, violation))
        checked += 1
    print("state: format v%s, %d/%d dictionaries verified"
          % (version, checked, len(entries)))

    if args.log:
        try:
            with open(args.log, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            report("log file unreadable: %s" % error)
            raw = None
        if raw is not None:
            log = SampleLog.from_bytes(raw, best_effort=True)
            for fault in log.faults:
                report("log @%d [%s]: %s"
                       % (fault.offset, fault.reason, fault.message))
            decoded = partial = 0
            if version in _SUPPORTED_VERSIONS:
                decoder = decoder_from_dict(data, best_effort=True)
                undecodable = {}
                for sample in log:
                    result = decoder.decode_best_effort(sample)
                    if result.complete:
                        decoded += 1
                    else:
                        partial += 1
                        fault = result.fault
                        key = (fault.reason if fault else "unknown",
                               sample.timestamp)
                        undecodable[key] = undecodable.get(key, 0) + 1
                for (reason, ts), count in sorted(undecodable.items()):
                    report("%d sample(s) at gTS=%d undecodable [%s]"
                           % (count, ts, reason))
            print("log: %d samples recovered, %d decoded, %d partial"
                  % (len(log), decoded, partial))

    if problems:
        print("doctor: %d fault(s) found" % len(problems))
        return 1
    print("doctor: all checks passed")
    return 0


def cmd_static(args) -> int:
    """Extract a static call graph and save it for ``dacce lint``.

    Three extraction modes: ``--source DIR`` runs the AST extractor over
    a Python source tree; ``--benchmark NAME`` runs the exact extractor
    over a synthetic benchmark program (the one ``dacce table1`` &c.
    drive); ``--record-seed N`` extracts the exact program a
    ``dacce record --seed N`` run executed, so ``dacce lint --static``
    can cross-check that recording (the graphs must describe the same
    program — ids from unrelated programs produce meaningless findings).
    """
    from .static import extract_package, extract_program

    modes = [
        args.source is not None,
        args.benchmark is not None,
        args.record_seed is not None,
    ]
    if sum(modes) != 1:
        raise SystemExit(
            "pass exactly one of --source, --benchmark, or --record-seed"
        )
    if args.source:
        if not os.path.isdir(args.source):
            return _fault(
                "source tree unreadable: %r is not a directory" % args.source
            )
        try:
            graph = extract_package(args.source)
        except OSError as error:
            return _fault("source tree unreadable: %s" % error)
    elif args.record_seed is not None:
        graph = extract_program(_record_program(args.record_seed))
    else:
        suite = full_suite()
        if args.benchmark not in suite.names():
            raise SystemExit(
                "unknown benchmark %r\navailable: %s"
                % (args.benchmark, ", ".join(suite.names()))
            )
        benchmark = suite.get(args.benchmark)
        program = generate_program(benchmark.generator_config(args.scale))
        graph = extract_program(program)
    try:
        graph.save(args.output)
    except OSError as error:
        return _fault("static graph unwritable: %s" % error)
    histogram = graph.confidence_histogram()
    print(
        "static graph: %d functions, %d edges (%s), %d unresolved sites"
        % (
            graph.num_functions,
            graph.num_edges,
            ", ".join("%s=%d" % (k, v) for k, v in histogram.items()),
            len(graph.unresolved),
        )
    )
    print("wrote %s" % args.output)
    return 0


def cmd_lint(args) -> int:
    """Verify persisted encoding state; cross-check against a static graph.

    Runs the full invariant suite over every dictionary in the state
    file, scans for id-space hazards and dead encoded edges, and — when
    ``--static`` supplies an extracted graph — verifies that every
    dynamically discovered direct edge was statically predicted (misses
    are static-extractor bugs, reported with source locations).  Exits
    non-zero iff any error-severity finding survives.
    """
    from .static import Severity, StaticCallGraph, has_errors, lint_state
    from .static.graph import StaticAnalysisError
    from .static.lint import lint_targets

    try:
        with open(args.state) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print("FAULT: state file unreadable: %s" % error)
        return 1

    static_graph = None
    if args.static:
        try:
            static_graph = StaticCallGraph.load(args.static)
        except (OSError, StaticAnalysisError) as error:
            print("FAULT: static graph unreadable: %s" % error)
            return 1

    specs = None
    if args.targets:
        if static_graph is None:
            return _fault(
                "--targets needs --static to resolve sink names to ids"
            )
        from .static.reachability import load_targets

        try:
            specs = load_targets(args.targets)
        except OSError as error:
            return _fault("targets manifest unreadable: %s" % error)
        except StaticAnalysisError as error:
            return _fault("targets manifest invalid: %s" % error)

    findings = lint_state(
        data, static_graph=static_graph, margin_bits=args.margin_bits
    )
    if specs is not None:
        findings.extend(lint_targets(data, specs, static_graph))
    for finding in findings:
        print(finding.render())
    by_severity = {severity: 0 for severity in Severity}
    for finding in findings:
        by_severity[finding.severity] += 1
    print(
        "lint: %d error(s), %d warning(s), %d info"
        % (
            by_severity[Severity.ERROR],
            by_severity[Severity.WARNING],
            by_severity[Severity.INFO],
        )
    )
    return 1 if has_errors(findings) else 0


def cmd_guard_record(args) -> int:
    """Record a targeted run with per-sink context capture.

    Builds the sink-reaching plan from a ``targets.json`` manifest over
    the exact program ``dacce record --seed N`` runs, drives the same
    workload through a targeted engine, and snapshots the encoded
    context at every call into a sink.  Writes ``PREFIX.state.json``
    (decoding state) and ``PREFIX.guard.json`` (counted sink contexts,
    each stored with its record-time decoded path) for
    ``dacce guard check``.
    """
    from .core.serialize import export_decoding_state
    from .guard import GuardRecorder, write_guard
    from .program.trace import TraceExecutor
    from .static import extract_program
    from .static.graph import StaticAnalysisError
    from .static.reachability import load_targets
    from .static.targeted import build_targeted

    try:
        specs = load_targets(args.targets)
    except OSError as error:
        return _fault("targets manifest unreadable: %s" % error)
    except StaticAnalysisError as error:
        return _fault("targets manifest invalid: %s" % error)

    program = _record_program(args.seed)
    static = extract_program(program)
    try:
        plan = build_targeted(static, specs)
    except StaticAnalysisError as error:
        return _fault("targeted plan failed: %s" % error)

    spec = WorkloadSpec(
        calls=args.calls,
        seed=args.seed + 1,
        sample_period=max(10, args.calls // 500),
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=args.calls // 10)],
    )
    engine = DacceEngine(targeted=plan)
    recorder = GuardRecorder(engine, plan.sinks)
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
        recorder.observe(event)
    hits = recorder.finish()

    state_path = args.prefix + ".state.json"
    guard_path = args.prefix + ".guard.json"
    names = {fn.id: fn.qualname for fn in static.functions()}
    try:
        export_decoding_state(engine, state_path)
        write_guard(hits, plan.sinks, guard_path, names=names)
    except OSError as error:
        return _fault("guard output unwritable: %s" % error)

    summary = plan.summary()
    print(
        "targeted %d/%d functions (%.1f%%), %d sink(s), "
        "static max_id %d (%s)"
        % (
            summary["functions"],
            summary["total_functions"],
            plan.instrumented_fraction * 100.0,
            len(plan.sinks),
            plan.report.proof.max_id,
            "collision-free"
            if plan.report.proof.collision_free
            else "NOT collision-free",
        )
    )
    print(
        "captured %d sink call(s) across %d distinct context(s)"
        % (sum(hit.count for hit in hits), len(hits))
    )
    print("wrote %s and %s" % (state_path, guard_path))
    return 0


def cmd_guard_check(args) -> int:
    """Check a guard recording against a policy (and a baseline).

    Re-decodes every stored sink context from the state file (a
    mismatch with the stored path is itself a violation), applies
    allow / deny / rate-limit rules to the decoded paths, and — with
    ``--baseline`` — scores how far the context mix drifted from a
    previous recording.  Exits non-zero iff any violation is found.
    """
    from .core.serialize import SerializationError, load_decoder
    from .guard import (
        GuardError,
        Violation,
        anomaly_scores,
        evaluate_policy,
        load_guard,
        load_policy,
        render_path,
        verify_hits,
    )

    try:
        decoder = load_decoder(args.state)
    except OSError as error:
        return _fault("state file unreadable: %s" % error)
    except SerializationError as error:
        return _fault("state file invalid: %s" % error)
    try:
        guard = load_guard(args.guard)
    except OSError as error:
        return _fault("guard log unreadable: %s" % error)
    except GuardError as error:
        return _fault("guard log invalid: %s" % error)
    try:
        policy = load_policy(args.policy).resolve(guard.names)
    except OSError as error:
        return _fault("policy unreadable: %s" % error)
    except GuardError as error:
        return _fault("policy invalid: %s" % error)

    violations = verify_hits(decoder, guard.hits)
    violations.extend(evaluate_policy(guard.hits, policy))

    if args.baseline:
        try:
            baseline = load_guard(args.baseline)
        except OSError as error:
            return _fault("baseline guard log unreadable: %s" % error)
        except GuardError as error:
            return _fault("baseline guard log invalid: %s" % error)
        scores = anomaly_scores(guard.hits, baseline.hits)
        worst = max(scores.values(), default=0.0)
        novel = sum(1 for score in scores.values() if score >= 1.0)
        print(
            "anomaly: %d context(s) scored against baseline, "
            "%d never seen before, worst score %.3f"
            % (len(scores), novel, worst)
        )
        if args.max_anomaly is not None and worst > args.max_anomaly:
            offender = max(scores, key=lambda path: scores[path])
            violations.append(
                Violation(
                    kind="anomaly",
                    message="context mix drifted %.3f > %.3f (worst: %s)"
                    % (
                        worst,
                        args.max_anomaly,
                        render_path(offender, guard.names),
                    ),
                    path=offender,
                )
            )

    for violation in violations:
        print(
            "guard violation [%s]: %s"
            % (violation.kind, violation.message)
        )
    print(
        "guard: %d sink call(s) in %d context(s), %d violation(s)"
        % (guard.total, len(guard.hits), len(violations))
    )
    return 1 if violations else 0


def _telemetry_workload(args):
    """A synthetic workload shared by ``metrics`` and ``trace``.

    Recursion, indirect and tail call sites plus a spawned thread and a
    phase shift, so every telemetry surface (depth histograms, indirect
    dispatch counters, re-encoding pass reports) has something to show.
    """
    program = generate_program(
        GeneratorConfig(
            seed=args.seed,
            recursive_sites=4,
            indirect_fraction=0.12,
            tail_fraction=0.05,
            library_functions=6,
        )
    )
    spec = WorkloadSpec(
        calls=args.calls,
        seed=args.seed + 1,
        sample_period=max(10, args.calls // 500),
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=3, spawn_at_call=args.calls // 10)],
        phases=[PhaseSpec(at_call=args.calls // 2, seed=7)],
    )
    return program, spec


def cmd_metrics(args) -> int:
    """Run an instrumented workload; emit the metrics snapshot."""
    from .obs import Telemetry
    from .program.trace import run_workload_columnar

    program, spec = _telemetry_workload(args)
    telemetry = Telemetry()
    engine = DacceEngine(root=program.main, telemetry=telemetry)
    run_workload_columnar(program, spec, engine)

    if args.format == "json":
        output = telemetry.to_json(indent=2)
    else:
        output = telemetry.to_prometheus()
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(output)
        except OSError as error:
            return _fault("metrics output unwritable: %s" % error)
        print("wrote %s" % args.output)
    else:
        print(output, end="")
    return 0


def cmd_trace(args) -> int:
    """Run a span-traced workload; emit the engine's JSONL span log."""
    from .obs import SpanRecorder
    from .program.trace import run_workload_columnar

    if args.input:
        if args.follow:
            # Tail mode: poll the active file and keep reading across
            # size/age rotations (the renamed shard is drained before
            # the cursor resets to the new active file).  The file may
            # not exist yet — the writer can come up later.
            from .obs import follow_rotated_jsonl

            shown = 0
            try:
                for record in follow_rotated_jsonl(
                    args.input, poll=args.poll, duration=args.duration
                ):
                    print(json.dumps(record), flush=True)
                    shown += 1
                    if args.limit and shown >= args.limit:
                        break
            except KeyboardInterrupt:
                pass
            except ValueError as error:
                return _fault(str(error))
            print("followed %d record(s) from %s" % (shown, args.input),
                  file=sys.stderr)
            return 0
        # Read-back mode: print an existing (possibly rotated) trace in
        # chronological order — shards trace.jsonl.N .. .1, then the
        # active file.
        from .obs import read_rotated_jsonl, rotated_files

        if not rotated_files(args.input):
            return _fault("trace input unreadable: %r has no shards" % args.input)
        shown = 0
        for record in read_rotated_jsonl(args.input):
            if args.limit and shown >= args.limit:
                print("... (stopped at --limit %d)" % args.limit)
                break
            print(json.dumps(record))
            shown += 1
        return 0

    program, spec = _telemetry_workload(args)
    try:
        handle = open(args.output, "w") if args.output else None
    except OSError as error:
        return _fault("trace output unwritable: %s" % error)
    try:
        spans = SpanRecorder("engine", stream=handle)
        engine = DacceEngine(root=program.main, spans=spans)
        run_workload_columnar(program, spec, engine)
    finally:
        if handle is not None:
            handle.close()
    if args.output:
        print("wrote %d span records to %s" % (spans.emitted, args.output))
    else:
        shown = 0
        for record in spans.spans():
            if args.limit and shown >= args.limit:
                print(
                    "... (%d more retained, %d emitted)"
                    % (len(spans) - shown, spans.emitted)
                )
                break
            print(json.dumps(record, sort_keys=True))
            shown += 1
    return 0


# ----------------------------------------------------------------------
# continuous profiling (repro.prof)
# ----------------------------------------------------------------------
def _profile_names(path: Optional[str]):
    """Load a ``{function_id: name}`` sidecar written by profile record."""
    from .prof import default_names, names_from_mapping

    if path is None:
        return default_names, None
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return None, "names file unreadable: %s" % error
    return names_from_mapping({int(k): str(v) for k, v in raw.items()}), None


def _profile_aggregate(state: str, log_path: str, jobs: int, names):
    """Batch-aggregate a recorded log; returns (aggregator, error)."""
    from .core.samplelog import SampleLog
    from .prof import CCTAggregator

    if not os.path.exists(state):
        return None, "state file unreadable: %r does not exist" % state
    try:
        with open(log_path, "rb") as handle:
            log = SampleLog.from_bytes(handle.read(), best_effort=True)
    except OSError as error:
        return None, "log file unreadable: %s" % error
    stats: dict = {}
    try:
        aggregator = CCTAggregator.aggregate_log(
            state,
            log.samples(),
            jobs=max(1, jobs),
            names=names,
            best_effort_state=True,
            stats=stats,
        )
    except OSError as error:
        return None, "state file unreadable: %s" % error
    aggregator.decode_stats = stats  # type: ignore[attr-defined]
    return aggregator, None


def cmd_profile_record(args) -> int:
    """Run a sampled synthetic workload; write log + state + names.

    Unlike ``dacce record`` (explicit SampleEvents in the stream), this
    drives the engine's continuous-profiling hook: every Nth applied
    call captures ``(context_id, gTimeStamp, ccStack)`` through the
    batched fast lane, which is the always-on profiler deployment the
    paper evaluates in Section 6.
    """
    from .core.samplelog import SampleLog
    from .core.serialize import export_decoding_state
    from .prof import render_overhead, self_overhead_account
    from .program.trace import run_workload_columnar

    program = _record_program(args.seed)
    spec = WorkloadSpec(
        calls=args.calls,
        seed=args.seed + 1,
        sample_period=0,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=args.calls // 10)],
    )
    engine = DacceEngine(root=program.main)
    log = SampleLog()
    engine.install_sample_hook(
        args.sample_every, lambda sample, weight: log.append(sample)
    )
    run_workload_columnar(program, spec, engine)

    log_path = args.prefix + ".log"
    state_path = args.prefix + ".state.json"
    names_path = args.prefix + ".names.json"
    try:
        with open(log_path, "wb") as handle:
            handle.write(log.to_bytes())
        export_decoding_state(engine, state_path)
        with open(names_path, "w") as handle:
            json.dump(
                {fn.id: fn.name for fn in program.functions()},
                handle,
                indent=0,
            )
    except OSError as error:
        return _fault("profile output unwritable: %s" % error)
    print(
        "profiled %d calls at 1/%d: %d samples (%d bytes, %.1f bytes/sample)"
        % (args.calls, args.sample_every, len(log), log.size_bytes,
           log.bytes_per_sample)
    )
    print("wrote %s, %s and %s" % (log_path, state_path, names_path))
    print()
    print(render_overhead(self_overhead_account(engine)))
    return 0


def cmd_profile_report(args) -> int:
    """Aggregate a recorded profile into a CCT; print the hot contexts."""
    from .prof import render_top

    names, error = _profile_names(args.names)
    if error:
        return _fault(error)
    aggregator, error = _profile_aggregate(args.state, args.log, args.jobs, names)
    if error:
        return _fault(error)
    stats = aggregator.stats()
    print(
        "profile: %d samples (%d partial) over %d epoch(s), "
        "%d CCT nodes, max depth %d"
        % (stats["samples"], stats["samples_partial"], stats["epochs"],
           stats["nodes"], stats["max_depth"])
    )
    print()
    print(render_top(aggregator, n=args.top, by=args.by))
    return 0


def cmd_profile_flame(args) -> int:
    """Export a recorded profile as folded stacks (flamegraph.pl input)."""
    from .prof import to_folded

    names, error = _profile_names(args.names)
    if error:
        return _fault(error)
    aggregator, error = _profile_aggregate(args.state, args.log, args.jobs, names)
    if error:
        return _fault(error)
    folded = to_folded(aggregator)
    stats = aggregator.stats()
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(folded + "\n")
        except OSError as error_:
            return _fault("folded output unwritable: %s" % error_)
        print(
            "wrote %d stacks to %s (total weight %g, <partial> weight %g)"
            % (len(folded.splitlines()), args.output, stats["weight"],
               stats["weight_partial"])
        )
    else:
        print(folded)
    return 0


def cmd_profile_diff(args) -> int:
    """Compare two recorded profiles node-by-node."""
    from .prof import diff_profiles, flatten

    def load_side(state, log_path, folded_path, names_path, side):
        if folded_path is not None:
            try:
                with open(folded_path) as handle:
                    return flatten(handle.read()), None
            except (OSError, ValueError) as error:
                return None, "folded file (%s) unreadable: %s" % (side, error)
        if not state or not log_path:
            return None, (
                "side %s needs --state-%s and --log-%s (or --folded-%s)"
                % (side, side, side, side)
            )
        names, error = _profile_names(names_path)
        if error:
            return None, error
        aggregator, error = _profile_aggregate(state, log_path, args.jobs, names)
        if error:
            return None, "%s (%s side)" % (error, side)
        return flatten(aggregator), None

    before, error = load_side(
        args.state_a, args.log_a, args.folded_a, args.names_a, "a"
    )
    if error:
        return _fault(error)
    after, error = load_side(
        args.state_b, args.log_b, args.folded_b, args.names_b, "b"
    )
    if error:
        return _fault(error)

    result = diff_profiles(before, after, threshold=args.threshold)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render(limit=args.limit))
    return 0


def _live_profile(engine, program, sample_every: int):
    """Attach ``profile serve``'s in-process ingest plane to ``engine``.

    A :class:`~repro.ingest.FrameEmitter` samples the engine into a
    :class:`~repro.ingest.MemorySink`; the returned ``fold()`` flushes
    the emitter and drains the sink into the returned
    :class:`~repro.ingest.IngestService`.
    This is the emitter -> sink -> ``ingest_lines`` path a remote
    producer takes, minus the transport.  Returns
    ``(emitter, service, fold)``.
    """
    from .ingest import FrameEmitter, IngestService, MemorySink, new_run_id

    run = new_run_id()
    sink = MemorySink()
    emitter = FrameEmitter(sink, run=run, producer="dacce-profile-serve")
    emitter.attach(
        engine,
        every=sample_every,
        names={fn.id: fn.name for fn in program.functions()},
    )
    service = IngestService()

    def fold() -> None:
        emitter.flush()
        lines, sink.lines = sink.lines, []
        service.ingest_lines(run, lines)

    return emitter, service, fold


def cmd_profile_serve(args) -> int:
    """Serve a live profile of a continuously running synthetic workload.

    The CCT is folded by an in-process ingest plane after every workload
    pass and served by :class:`~repro.ingest.IngestServer`; the
    self-overhead table is printed at exit.
    """
    from dataclasses import replace

    from .core.engine import DacceConfig
    from .ingest import IngestServer
    from .obs import RotatingTraceStream, SpanRecorder
    from .prof import render_overhead, self_overhead_account
    from .program.trace import run_workload_columnar

    from .obs.trace import DEFAULT_ROTATE_BACKUPS, DEFAULT_ROTATE_BYTES

    trace_stream = None
    if args.trace_output:
        try:
            trace_stream = RotatingTraceStream(
                args.trace_output,
                max_bytes=(args.trace_max_bytes
                           if args.trace_max_bytes is not None
                           else DEFAULT_ROTATE_BYTES),
                max_age_seconds=args.trace_max_age,
                backups=(args.trace_backups
                         if args.trace_backups is not None
                         else DEFAULT_ROTATE_BACKUPS),
            )
        except (OSError, ValueError) as error:
            return _fault("trace output unwritable: %s" % error)

    program, _ = _telemetry_workload(args)
    spec = WorkloadSpec(
        calls=args.calls,
        seed=args.seed + 1,
        sample_period=0,
        recursion_affinity=0.4,
    )
    # Hook samples feed the CCT; nothing needs retaining on the engine.
    engine = DacceEngine(
        root=program.main,
        config=DacceConfig(retain_samples=False),
        spans=(
            SpanRecorder("engine", stream=trace_stream)
            if trace_stream is not None
            else None
        ),
    )
    emitter, service, fold = _live_profile(engine, program, args.sample_every)
    try:
        server = IngestServer(service, host=args.host, port=args.port)
    except OSError as error:
        return _fault("cannot bind %s:%d: %s" % (args.host, args.port, error))
    server.start()
    print("profile server listening on %s" % server.url, flush=True)

    deadline = (time.time() + args.duration) if args.duration else None
    passes = 0
    try:
        while deadline is None or time.time() < deadline:
            run_workload_columnar(
                program, replace(spec, seed=spec.seed + passes), engine
            )
            passes += 1
            fold()
    except KeyboardInterrupt:
        pass
    finally:
        emitter.complete()
        fold()
        server.shutdown()
        if trace_stream is not None:
            trace_stream.close()
    stats = service.aggregator.stats()
    print(
        "served %d workload pass(es): %d samples into %d CCT nodes "
        "across %d epoch(s)"
        % (passes, stats["samples"], stats["nodes"], stats["epochs"])
    )
    print()
    print(render_overhead(self_overhead_account(engine)))
    return 0


# ----------------------------------------------------------------------
# event ingestion plane (repro.ingest)
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    """Run the fleet ingestion service: frames in, canonical events out.

    Accepts ``dacce.engine.events.v1`` frames over ``POST /ingest``
    (and, with ``--stdin`` or ``--from``, from a pipe or a recorded
    file), persists the canonical ``dacce.events.v1`` log per run and
    serves the merged many-producer view (``/cct``, ``/flame``,
    ``/top``, ``/metrics``) plus live SSE (``/events``).
    """
    from .ingest import IngestServer, IngestService

    spans = None
    span_stream = None
    if args.span_log:
        # Service-side spans continue the trace each frame propagates;
        # /spans serves the in-memory ring, this log is the durable copy.
        from .obs import RotatingTraceStream, SpanRecorder

        try:
            span_stream = RotatingTraceStream(args.span_log)
        except (OSError, ValueError) as error:
            return _fault("span log unwritable: %s" % error)
        spans = SpanRecorder("ingest", stream=span_stream)

    service = IngestService(data_dir=args.data_dir, spans=spans)
    recovery = service.recovery
    if recovery["events"] or recovery["torn_lines"]:
        # Crash recovery: the data dir already held canonical logs and
        # the service re-folded them (no re-ingestion) before serving.
        print(
            "recovered %d event(s) across %d run(s) from %s "
            "(%d torn line(s) truncated, %d bad line(s) skipped)"
            % (recovery["events"], recovery["runs"], args.data_dir,
               recovery["torn_lines"], recovery["bad_lines"]),
            flush=True,
        )
    try:
        server = IngestServer(service, host=args.host, port=args.port)
    except OSError as error:
        return _fault("cannot bind %s:%d: %s" % (args.host, args.port, error))

    # A recorded frame file is pre-loaded before the banner goes out:
    # once a client can learn the URL, /cct already reflects the file
    # (the banner is the readiness signal scripts key on).
    if getattr(args, "from_file", None):
        try:
            with open(args.from_file) as handle:
                summary = service.ingest_stream(handle, args.run)
        except OSError as error:
            server.shutdown()
            return _fault("frame file unreadable: %s" % error)
        print(
            "ingested %s: %d folded, %d skipped, %d rejected "
            "(run %s, sequence %d)"
            % (args.from_file, summary["folded"], summary["skipped"],
               summary["rejected"], args.run, summary["last_sequence"]),
            flush=True,
        )

    server.start()
    print("ingest server listening on %s" % server.url, flush=True)
    if args.data_dir:
        print("persisting canonical event logs under %s" % args.data_dir,
              flush=True)

    try:
        if args.stdin:
            summary = service.ingest_stream(sys.stdin, args.run)
            print(
                "ingested stdin: %d folded, %d skipped, %d rejected"
                % (summary["folded"], summary["skipped"], summary["rejected"]),
                flush=True,
            )
        deadline = (time.time() + args.duration) if args.duration else None
        while deadline is None or time.time() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        if spans is not None:
            spans.flush()
            span_stream.close()
    health = service.healthz()
    print(
        "served %d run(s): %d samples, total weight %g"
        % (health["runs"], health["samples"], health["weight"])
    )
    return 0


def cmd_events_record(args) -> int:
    """Run a synthetic producer; emit engine event frames.

    The producer contract: frames (and nothing else) go to the frame
    destination — stdout with ``--frames -`` (human output moves to
    stderr), a file, or an ingestion server via ``--url``.
    """
    from .ingest import FileFrameSink, FrameEmitter, HTTPFrameSink, SinkError
    from .ingest import SpoolingSink, StdoutFrameSink, new_run_id
    from .program.trace import run_workload_columnar

    run = args.run or new_run_id()
    to_stdout = args.url is None and args.frames == "-"
    human = sys.stderr if to_stdout else sys.stdout

    spans = None
    span_stream = None
    if args.span_log:
        # One trace per emitter flush; the ids travel in each frame's
        # additive `trace` field so `dacce spans waterfall` can stitch
        # this log together with the ingest service's.
        from .obs import RotatingTraceStream, SpanRecorder

        try:
            span_stream = RotatingTraceStream(args.span_log)
        except (OSError, ValueError) as error:
            return _fault("span log unwritable: %s" % error)
        spans = SpanRecorder("producer", stream=span_stream)

    spool_dir = None
    if args.url is not None:
        sink = HTTPFrameSink(args.url, run=run)
        if args.spool:
            # Durable delivery: failed flushes spill to CRC-framed
            # segments and retry with backoff; segments left by a
            # previous crashed producer of the *same run* are adopted.
            # The run id namespaces the directory because segments
            # store raw frame lines while the run identity travels in
            # the POST URL — replaying another run's segments would
            # deliver its frames into this run's sequence space.
            spool_dir = os.path.join(args.spool, run)
            sink = SpoolingSink(sink, spool_dir)
    elif to_stdout:
        sink = StdoutFrameSink()
    else:
        try:
            sink = FileFrameSink(args.frames)
        except OSError as error:
            return _fault("frame output unwritable: %s" % error)

    program = _record_program(args.seed)
    spec = WorkloadSpec(
        calls=args.calls,
        seed=args.seed + 1,
        sample_period=0,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=args.calls // 10)],
    )
    engine = DacceEngine(root=program.main, spans=spans)
    emitter = FrameEmitter(
        sink,
        run=run,
        producer="dacce-events-record",
        heartbeat_every=args.heartbeat,
        spans=spans,
    )
    emitter.attach(
        engine,
        every=args.sample_every,
        names={fn.id: fn.name for fn in program.functions()},
    )
    run_workload_columnar(program, spec, engine)
    emitter.complete()
    try:
        sink.flush()
    except SinkError as error:
        return _fault("frame delivery failed: %s" % error)
    if isinstance(sink, SpoolingSink):
        if args.drain_timeout > 0 and sink.pending():
            sink.drain(args.drain_timeout)
        if sink.pending_frames:
            # Durable, not lost: the spool outlives this process and a
            # later producer (or drain) delivers it, so this is success.
            print(
                "spooled: %d undelivered frame(s) kept under %s"
                % (sink.pending_frames, spool_dir),
                file=human,
            )
        if sink.frames_dropped:
            print(
                "dropped: %d frame(s) accounted via fault frames"
                % sink.frames_dropped,
                file=human,
            )
    sink.close()
    if spans is not None:
        spans.flush()
        span_stream.close()
        print(
            "spans: %d recorded to %s" % (spans.emitted, args.span_log),
            file=human,
        )
    print(
        "run %s: %d calls at 1/%d -> %d frames (%d samples), %d dropped"
        % (run, args.calls, args.sample_every, emitter.frames_emitted,
           emitter.samples_emitted, emitter.frames_dropped),
        file=human,
    )
    if emitter.sink_errors:
        return _fault("frame delivery failed %d time(s)" % emitter.sink_errors)
    return 0


def cmd_events_replay(args) -> int:
    """Rebuild service state from a canonical ``events.ndjson`` log.

    Validates the log (schema, strictly monotonic per-run sequence) and
    folds every envelope through the same path live ingestion uses, so
    ``--cct``/``--metrics`` outputs are byte-identical to what the live
    service served — the CI replay-determinism gate diffs exactly that.
    """
    from .ingest import ReplayError, replay_file

    try:
        service, report = replay_file(args.log, strict=not args.lenient)
    except OSError as error:
        return _fault("event log unreadable: %s" % error)
    except ReplayError as error:
        return _fault(str(error))
    outcomes = report.outcomes
    print(
        "replayed %d event(s) across %d run(s): %d folded, %d skipped, "
        "%d rejected"
        % (report.events, report.runs, outcomes.get("folded", 0),
           outcomes.get("skipped", 0), outcomes.get("rejected", 0))
    )
    for error_line in report.errors:
        print("  invalid: %s" % error_line)
    try:
        if args.cct:
            with open(args.cct, "w") as handle:
                handle.write(service.cct_json())
            print("wrote %s" % args.cct)
        if args.metrics:
            with open(args.metrics, "w") as handle:
                handle.write(service.metrics_text())
            print("wrote %s" % args.metrics)
        if args.flame:
            with open(args.flame, "w") as handle:
                handle.write(service.flame_text())
            print("wrote %s" % args.flame)
    except OSError as error:
        return _fault("replay output unwritable: %s" % error)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# span tracing (repro.obs.spans)
# ----------------------------------------------------------------------
def cmd_spans_report(args) -> int:
    """Per-stage latency summary over one or more span JSONL logs."""
    from .obs import load_span_records, stage_summary

    records = list(load_span_records(args.input, backups=args.backups))
    if not records:
        return _fault("no span records found in: %s" % ", ".join(args.input))
    summary = stage_summary(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    services = sorted({str(r.get("svc") or "?") for r in records})
    traces = {r["trace"] for r in records}
    print(
        "%d span(s) across %d trace(s) from %d service(s): %s"
        % (len(records), len(traces), len(services), ", ".join(services))
    )
    print()
    header = "%-8s %-24s %7s %10s %9s %9s %9s" % (
        "stage", "name", "count", "total(s)", "p50(ms)", "p95(ms)", "max(ms)"
    )
    print(header)
    print("-" * len(header))
    for row in summary.values():
        print(
            "%-8s %-24s %7d %10.4f %9.3f %9.3f %9.3f"
            % (
                row["stage"], row["name"], row["count"], row["total"],
                row["p50"] * 1e3, row["p95"] * 1e3, row["max"] * 1e3,
            )
        )
    return 0


def cmd_spans_waterfall(args) -> int:
    """Reconstruct per-trace span trees across producer + service logs.

    Pass every side's span log as ``--input`` (the producer's and the
    ingest service's); spans sharing a trace id are stitched into one
    tree even though they were recorded by different processes.  By
    default the single best trace is printed — the one covering the
    most pipeline stages — which is what a smoke run greps for.
    """
    from .obs import (
        PIPELINE_STAGES,
        build_waterfall,
        group_traces,
        load_span_records,
    )

    records = list(load_span_records(args.input, backups=args.backups))
    if not records:
        return _fault("no span records found in: %s" % ", ".join(args.input))
    traces = group_traces(records)

    if args.trace:
        if args.trace not in traces:
            return _fault(
                "trace %r not found (%d trace(s) in the log(s))"
                % (args.trace, len(traces))
            )
        selected = [args.trace]
    elif args.all:
        selected = sorted(traces, key=lambda t: traces[t][0]["ts"])
        if args.limit:
            selected = selected[: args.limit]
    else:
        def coverage(trace_id: str):
            stages = {r.get("stage") for r in traces[trace_id]}
            return (len(stages & set(PIPELINE_STAGES)), len(traces[trace_id]))

        selected = [max(traces, key=coverage)]

    covered: set = set()
    for trace_id in selected:
        spans = traces[trace_id]
        stages = [
            s for s in PIPELINE_STAGES
            if any(r.get("stage") == s for r in spans)
        ]
        covered.update(stages)
        print(
            "trace %s — %d span(s), stages %d/%d: %s"
            % (trace_id, len(spans), len(stages), len(PIPELINE_STAGES),
               " ".join(stages) or "-")
        )
        base = spans[0]["ts"]
        for depth, record in build_waterfall(spans):
            print(
                "  %-7s %s%s  svc=%s +%.3fms %.3fms"
                % (
                    record.get("stage") or "-",
                    "  " * depth,
                    record.get("name") or "?",
                    record.get("svc") or "?",
                    (float(record["ts"]) - base) * 1e3,
                    float(record["dur"]) * 1e3,
                )
            )
        print()

    if args.require_stages:
        required = (
            list(PIPELINE_STAGES)
            if args.require_stages == "all"
            else [s.strip() for s in args.require_stages.split(",") if s.strip()]
        )
        missing = [s for s in required if s not in covered]
        if missing:
            return _fault(
                "stage(s) missing from the printed trace(s): %s"
                % ", ".join(missing)
            )
        print("all required stages covered: %s" % " ".join(required))
    return 0


def cmd_experiments(args) -> int:
    """Write the paper-vs-measured EXPERIMENTS.md report."""
    from .analysis.experiments import write_experiments_report

    path = write_experiments_report(
        output=args.output, calls=args.calls, scale=args.scale, seed=args.seed
    )
    print("wrote %s" % path)
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--calls", type=int, default=30_000,
                        help="dynamic calls per benchmark run")
    parser.add_argument("--scale", type=float, default=0.4,
                        help="graph-size scale factor vs the paper's Table 1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark names (default: all)")
    parser.add_argument("--csv", default=None,
                        help="also export the results as CSV to this path")
    parser.add_argument("--verbose", action="store_true")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dacce",
        description="DACCE (CGO 2014) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
        ("table1", cmd_table1, "reproduce Table 1 (characteristics)"),
        ("fig8", cmd_fig8, "reproduce Figure 8 (runtime overhead)"),
        ("fig9", cmd_fig9, "reproduce Figure 9 (encoding progress)"),
        ("fig10", cmd_fig10, "reproduce Figure 10 (depth CDFs)"),
        ("experiments", cmd_experiments, "write EXPERIMENTS.md"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "experiments":
            p.add_argument("--output", default="EXPERIMENTS.md")

    p = sub.add_parser("validate", help="decode-vs-oracle cross validation")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--calls", type=int, default=25_000)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "record", help="run a workload, write compact log + decoding state"
    )
    p.add_argument("--prefix", default="dacce-run")
    p.add_argument("--calls", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("decode", help="offline-decode a recorded log")
    p.add_argument("--state", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--best-effort", action="store_true",
                   help="recover what is decodable from damaged inputs "
                        "instead of aborting on the first fault")
    p.add_argument("--jobs", type=int, default=1,
                   help="decode with N parallel workers (each loads the "
                        "state file read-only and memoizes hot contexts)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser(
        "doctor",
        help="validate a decoding-state file, a sample log, or a "
             "canonical events.ndjson run log offline",
    )
    p.add_argument("--state", default=None)
    p.add_argument("--log", default=None)
    p.add_argument("--events", default=None,
                   help="events.ndjson path (or run directory) to "
                        "validate: envelopes, monotonic sequence, "
                        "torn tail")
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser(
        "static",
        help="extract a static call graph (AST or synthetic) to a file",
    )
    p.add_argument("--source", default=None,
                   help="Python source tree to analyze")
    p.add_argument("--benchmark", default=None,
                   help="synthetic benchmark name to extract exactly")
    p.add_argument("--record-seed", type=int, default=None,
                   help="extract the program of `dacce record --seed N`")
    p.add_argument("--scale", type=float, default=0.4)
    p.add_argument("--output", default="dacce-static.json")
    p.set_defaults(fn=cmd_static)

    p = sub.add_parser(
        "lint",
        help="verify persisted encoding state against invariants "
             "and an optional static call graph",
    )
    p.add_argument("--state", required=True)
    p.add_argument("--static", default=None,
                   help="static graph file from `dacce static`")
    p.add_argument("--margin-bits", type=int, default=8,
                   help="id-space headroom (bits) below which to warn")
    p.add_argument("--targets", default=None,
                   help="targets.json sink manifest: verify the recording's "
                        "targeted plan covers every declared sink "
                        "(requires --static)")
    p.set_defaults(fn=cmd_lint)

    guard = sub.add_parser(
        "guard",
        help="targeted sink guards: record per-sink contexts, check "
             "them against allow/deny/rate-limit policies",
    )
    guard_sub = guard.add_subparsers(dest="guard_command", required=True)

    p = guard_sub.add_parser(
        "record",
        help="targeted run over a sink manifest; write state + guard log",
    )
    p.add_argument("--targets", required=True,
                   help="targets.json sink manifest")
    p.add_argument("--prefix", default="dacce-guard")
    p.add_argument("--calls", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_guard_record)

    p = guard_sub.add_parser(
        "check",
        help="re-decode a guard log and enforce a policy over its paths",
    )
    p.add_argument("--state", required=True,
                   help="state file from `dacce guard record`")
    p.add_argument("--guard", required=True,
                   help="guard log from `dacce guard record`")
    p.add_argument("--policy", required=True,
                   help="policy JSON: {default, rules:[{action,...}]}")
    p.add_argument("--baseline", default=None,
                   help="previous guard log to score context drift against")
    p.add_argument("--max-anomaly", type=float, default=None,
                   help="fail when the worst per-context anomaly score "
                        "exceeds this (0..1)")
    p.set_defaults(fn=cmd_guard_check)

    p = sub.add_parser(
        "metrics",
        help="run an instrumented workload; print the telemetry snapshot",
    )
    p.add_argument("--calls", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("prom", "json"), default="prom",
                   help="Prometheus text format (default) or JSON snapshot")
    p.add_argument("--output", default=None,
                   help="write to this path instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="run a span-traced workload; print the engine's JSONL span log",
    )
    p.add_argument("--calls", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--limit", type=int, default=50,
                   help="max records printed to stdout (0 = all)")
    p.add_argument("--output", default=None,
                   help="stream JSONL span records to this path instead")
    p.add_argument("--input", default=None,
                   help="print an existing JSONL log (reads rotated "
                        "shards PATH.N..PATH.1 then PATH, oldest first) "
                        "instead of running a workload")
    p.add_argument("--follow", action="store_true",
                   help="with --input: keep tailing the active file, "
                        "surviving size/age rotation mid-follow")
    p.add_argument("--poll", type=float, default=0.2,
                   help="with --follow: seconds between polls")
    p.add_argument("--duration", type=float, default=0.0,
                   help="with --follow: stop after this many seconds "
                        "(0 = until Ctrl-C or --limit)")
    p.set_defaults(fn=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="continuous calling-context profiler (CCT, flamegraphs, diffs)",
    )
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)

    p = profile_sub.add_parser(
        "record",
        help="run a hook-sampled workload; write log + state + names",
    )
    p.add_argument("--prefix", default="dacce-profile")
    p.add_argument("--calls", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sample-every", type=int, default=64,
                   help="capture one context every N applied calls")
    p.set_defaults(fn=cmd_profile_record)

    p = profile_sub.add_parser(
        "report", help="aggregate a recorded profile; print hot contexts"
    )
    p.add_argument("--state", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--names", default=None,
                   help="names sidecar from `dacce profile record`")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--by", choices=("self", "total"), default="self")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_profile_report)

    p = profile_sub.add_parser(
        "flame", help="export folded stacks (flamegraph.pl input)"
    )
    p.add_argument("--state", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--names", default=None)
    p.add_argument("--output", default=None,
                   help="write folded stacks here instead of stdout")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_profile_flame)

    p = profile_sub.add_parser(
        "diff", help="compare two profiles (recorded or folded)"
    )
    p.add_argument("--state-a", default=None)
    p.add_argument("--log-a", default=None)
    p.add_argument("--folded-a", default=None,
                   help="pre-exported folded file for side a")
    p.add_argument("--names-a", default=None)
    p.add_argument("--state-b", default=None)
    p.add_argument("--log-b", default=None)
    p.add_argument("--folded-b", default=None)
    p.add_argument("--names-b", default=None)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="min |delta|/max_total to call a path changed")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_profile_diff)

    p = profile_sub.add_parser(
        "serve", help="live profile server over a looping workload"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--calls", type=int, default=20_000,
                   help="calls per workload pass")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sample-every", type=int, default=64)
    p.add_argument("--duration", type=float, default=0.0,
                   help="stop after this many seconds (0 = until Ctrl-C)")
    p.add_argument("--trace-output", default=None,
                   help="mirror the engine's span log to this JSONL file "
                        "(size/age-rotated)")
    p.add_argument("--trace-max-bytes", type=int, default=None)
    p.add_argument("--trace-max-age", type=float, default=0.0)
    p.add_argument("--trace-backups", type=int, default=None)
    p.set_defaults(fn=cmd_profile_serve)

    p = sub.add_parser(
        "serve",
        help="fleet ingestion service: frames in (HTTP/stdin/file), "
             "canonical event log + merged live profile out",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--data-dir", default=None,
                   help="persist one events.ndjson per run under this "
                        "directory (enables /runs/<id>/events)")
    p.add_argument("--run", default="default",
                   help="run id for --stdin / --from frames")
    p.add_argument("--stdin", action="store_true",
                   help="also ingest frames piped on stdin")
    p.add_argument("--from", dest="from_file", default=None,
                   help="ingest a recorded frame file (NDJSON) at startup")
    p.add_argument("--duration", type=float, default=0.0,
                   help="stop after this many seconds (0 = until Ctrl-C)")
    p.add_argument("--span-log", default=None,
                   help="record service-side spans (admit/validate/fold/"
                        "publish) to this rotated JSONL file and enable "
                        "the /spans endpoint's span ring")
    p.set_defaults(fn=cmd_serve)

    events = sub.add_parser(
        "events",
        help="event ingestion plane: record producer frames, replay "
             "canonical run logs (docs/EVENTS.md)",
    )
    events_sub = events.add_subparsers(dest="events_command", required=True)

    p = events_sub.add_parser(
        "record",
        help="run a synthetic producer; emit dacce.engine.events.v1 frames",
    )
    p.add_argument("--frames", default="-",
                   help="frame destination path ('-' = stdout, with human "
                        "output on stderr)")
    p.add_argument("--url", default=None,
                   help="POST frames to a running `dacce serve` instead")
    p.add_argument("--run", default=None,
                   help="run id (default: generated)")
    p.add_argument("--calls", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sample-every", type=int, default=64)
    p.add_argument("--heartbeat", type=float, default=0.0,
                   help="emit a heartbeat frame at least every N seconds")
    p.add_argument("--spool", default=None,
                   help="with --url: spill undeliverable batches to "
                        "CRC-framed segments under DIR/<run> and "
                        "retry with backoff (durable at-least-once; "
                        "a restarted producer of the same run adopts "
                        "its leftover segments)")
    p.add_argument("--drain-timeout", type=float, default=0.0,
                   help="with --spool: keep retrying up to N seconds "
                        "after the run to empty the spool")
    p.add_argument("--span-log", default=None,
                   help="record producer-side spans (flush/spool/send) to "
                        "this rotated JSONL file and stamp trace ids into "
                        "emitted frames")
    p.set_defaults(fn=cmd_events_record)

    spans_parser = sub.add_parser(
        "spans",
        help="span tracing: per-stage latency reports and cross-process "
             "waterfalls from span JSONL logs (docs/OBSERVABILITY.md)",
    )
    spans_sub = spans_parser.add_subparsers(dest="spans_command", required=True)

    p = spans_sub.add_parser(
        "report", help="per-(stage, name) latency summary with percentiles"
    )
    p.add_argument("--input", nargs="+", required=True,
                   help="span JSONL log path(s); rotated shards folded in")
    p.add_argument("--backups", type=int, default=None,
                   help="max rotated shards to scan per input")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON instead of a table")
    p.set_defaults(fn=cmd_spans_report)

    p = spans_sub.add_parser(
        "waterfall",
        help="stitch producer + service span logs into per-trace trees",
    )
    p.add_argument("--input", nargs="+", required=True,
                   help="span JSONL log path(s) from every side of the wire")
    p.add_argument("--backups", type=int, default=None)
    p.add_argument("--trace", default=None,
                   help="print this trace id (default: the trace covering "
                        "the most pipeline stages)")
    p.add_argument("--all", action="store_true", help="print every trace")
    p.add_argument("--limit", type=int, default=0,
                   help="with --all: max traces printed (0 = all)")
    p.add_argument("--require-stages", default=None,
                   help="comma-separated stage list (or 'all') that the "
                        "printed trace(s) must cover; exit 1 otherwise")
    p.set_defaults(fn=cmd_spans_waterfall)

    p = events_sub.add_parser(
        "replay",
        help="rebuild aggregator + metrics state from an events.ndjson log",
    )
    p.add_argument("--log", required=True,
                   help="canonical events.ndjson written by `dacce serve`")
    p.add_argument("--cct", default=None,
                   help="write the reconstructed /cct JSON here")
    p.add_argument("--metrics", default=None,
                   help="write the reconstructed /metrics text here")
    p.add_argument("--flame", default=None,
                   help="write the reconstructed folded stacks here")
    p.add_argument("--lenient", action="store_true",
                   help="report validation errors instead of failing")
    p.set_defaults(fn=cmd_events_replay)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
