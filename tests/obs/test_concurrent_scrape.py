"""Concurrent scrape safety.

Scrapers (a ``/metrics`` poller, a dashboard) read engine statistics
and the Prometheus exposition from daemon threads while the workload
thread is inside ``process_batch`` — including mid-stream re-encoding
passes.  The
engine gives no stronger guarantee than "reads never raise and counters
never go backwards"; this suite pins exactly that.
"""

import threading

from repro.core.engine import DacceEngine
from repro.obs import Telemetry
from repro.prof import CCTAggregator
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import TraceExecutor, ThreadSpec, WorkloadSpec


def build_workload(calls=60_000):
    program = generate_program(
        GeneratorConfig(seed=13, recursive_sites=3, indirect_fraction=0.12)
    )
    spec = WorkloadSpec(
        calls=calls,
        seed=14,
        sample_period=0,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=calls // 10)],
    )
    return program, spec


MONOTONIC_KEYS = ("calls", "returns", "reencodings", "profile_samples")


def test_scrapes_survive_batched_ingest_and_reencode():
    program, spec = build_workload()
    telemetry = Telemetry()
    engine = DacceEngine(root=program.main, telemetry=telemetry)
    aggregator = CCTAggregator()
    aggregator.bind_metrics(telemetry.registry)
    engine.install_sample_hook(
        64, lambda sample, weight: aggregator.add_decoded(
            engine.decoder().decode_best_effort(sample),
            weight,
            timestamp=sample.timestamp,
        )
    )

    errors = []
    done = threading.Event()

    def scrape():
        last = {key: 0 for key in MONOTONIC_KEYS}
        last_prof = 0.0
        while not done.is_set():
            try:
                snapshot = engine.stats_snapshot()
                for key in MONOTONIC_KEYS:
                    value = snapshot[key]
                    assert value >= last[key], (
                        "%s went backwards: %s -> %s" % (key, last[key], value)
                    )
                    last[key] = value
                text = telemetry.to_prometheus()
                assert "dacce_events_total" in text
                assert "dacce_prof_samples_total" in text
                stats = aggregator.stats()
                weight = float(stats["weight"])
                assert weight >= last_prof, "prof weight went backwards"
                last_prof = weight
                engine.ccstack_stats()
            except Exception as error:  # noqa: BLE001 - the assertion target
                errors.append(error)
                return

    scrapers = [threading.Thread(target=scrape) for _ in range(4)]
    for thread in scrapers:
        thread.start()
    try:
        # Feed the fast lane in small slices so scrapes interleave with
        # many process_batch calls, several of which re-encode.
        batch = []
        for record in TraceExecutor(program, spec).compact_events():
            batch.append(record)
            if len(batch) == 256:
                engine.process_batch(batch)
                batch.clear()
        if batch:
            engine.process_batch(batch)
    finally:
        done.set()
        for thread in scrapers:
            thread.join(timeout=30)

    assert not errors, "scrape raised: %r" % errors[0]
    assert engine.stats.reencodings >= 1, "no re-encoding happened mid-stream"
    assert engine.stats.profile_samples > 0
    final = engine.stats_snapshot()
    assert final["calls"] == engine.stats.calls
    # The scrape has a consistent post-run view too.
    assert aggregator.stats()["samples"] == engine.stats.profile_samples


def test_scrape_during_explicit_reencode():
    """Drive reencode() directly (not via triggers) under scrape load."""
    program, spec = build_workload(calls=20_000)
    telemetry = Telemetry()
    engine = DacceEngine(root=program.main, telemetry=telemetry)

    errors = []
    done = threading.Event()

    def scrape():
        while not done.is_set():
            try:
                engine.stats_snapshot()
                telemetry.to_prometheus()
            except Exception as error:  # noqa: BLE001
                errors.append(error)
                return

    scraper = threading.Thread(target=scrape)
    scraper.start()
    try:
        events = list(TraceExecutor(program, spec).compact_events())
        third = len(events) // 3
        engine.process_batch(events[:third])
        engine.reencode(reasons=("scrape-test",))
        engine.process_batch(events[third:2 * third])
        engine.reencode(reasons=("scrape-test",))
        engine.process_batch(events[2 * third:])
    finally:
        done.set()
        scraper.join(timeout=30)
    assert not errors, "scrape raised: %r" % errors[0]
    assert engine.stats.reencodings >= 2
