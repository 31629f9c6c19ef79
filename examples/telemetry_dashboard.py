"""Live telemetry for a DACCE run, rendered as a terminal dashboard.

Runs a phase-shifting multi-threaded synthetic workload with telemetry
and span tracing enabled, then renders what the metrics registry, the
engine's re-encoding pass reports and its span log captured:

* event throughput and indirect-dispatch hit rate,
* the ccStack depth histogram (the Figure 10 signal, live),
* one line per re-encoding pass: which Section 4 trigger fired, what
  the pass changed, and what it cost.

Everything shown here is also available machine-readable via
``telemetry.to_prometheus()`` / ``telemetry.to_json()`` or the
``dacce metrics`` / ``dacce trace`` commands.
"""

from collections import Counter

from repro import DacceEngine, GeneratorConfig, Telemetry, generate_program
from repro.obs import SpanRecorder
from repro.program.trace import (
    PhaseSpec,
    ThreadSpec,
    TraceExecutor,
    WorkloadSpec,
)


def bar(fraction: float, width: int = 30) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    program = generate_program(
        GeneratorConfig(
            seed=11,
            recursive_sites=4,
            indirect_fraction=0.12,
            tail_fraction=0.05,
            library_functions=6,
        )
    )
    spec = WorkloadSpec(
        calls=30_000,
        seed=3,
        sample_period=61,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=3, spawn_at_call=3_000)],
        phases=[PhaseSpec(at_call=15_000, seed=9)],
    )

    telemetry = Telemetry()
    spans = SpanRecorder("engine")
    engine = DacceEngine(root=program.main, telemetry=telemetry, spans=spans)
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)

    registry = telemetry.registry
    registry.collect()

    print("=" * 64)
    print("DACCE telemetry dashboard")
    print("=" * 64)

    stats = engine.stats
    hits, misses = stats.indirect_hits, stats.indirect_misses
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    print(
        "events      calls=%d returns=%d samples=%d"
        % (stats.calls, stats.returns, stats.samples)
    )
    print(
        "indirect    hits=%d misses=%d  hit-rate %5.1f%%  [%s]"
        % (hits, misses, 100 * hit_rate, bar(hit_rate))
    )
    promotions = engine.indirect.total_promotions()
    print(
        "            sites=%d hash-sites=%d promotions=%d"
        % (len(engine.indirect), engine.indirect.num_hash_sites(), promotions)
    )

    print("\nccStack depth at each operation (logical depth):")
    depth = registry.get("ccstack_depth").data()
    previous = 0
    for le, cumulative in depth.cumulative():
        count = cumulative - previous
        previous = cumulative
        if count == 0:
            continue
        label = "<= %4s" % ("inf" if le == float("inf") else "%g" % le)
        print(
            "  %s  %6d  [%s]" % (label, count, bar(count / depth.count))
        )

    print("\nre-encoding passes (gTS | trigger reasons | effect | cost):")
    for report in engine.reencode_passes:
        print(
            "  gTS=%-3d %-40s edges=%-4d maxID=%-5d %6.2fms"
            % (
                report.timestamp,
                ",".join(report.reasons),
                report.edges,
                report.max_id,
                1000 * report.duration_seconds,
            )
        )
    counts = Counter(
        reason for report in engine.reencode_passes for reason in report.reasons
    )
    print(
        "\ntrigger totals: %s"
        % "  ".join("%s=%d" % item for item in sorted(counts.items()))
    )
    print(
        "spans: %d engine span records emitted (%d retained)"
        % (spans.emitted, len(spans))
    )


if __name__ == "__main__":
    main()
