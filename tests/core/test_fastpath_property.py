"""Differential property tests: the fast lane changes speed, not behaviour.

The contract of ``DacceEngine.process_columns`` and its code-generated
dispatch kernel is *exact* equivalence with one-event-at-a-time
dispatch: byte-identical decoding state, identical collected samples,
identical statistics/metrics/cost accounting — across re-encoding
(mid-batch and mid-stream), warm-start seeding, and fault-policy
recovery.  ``process_batch`` is ``process_columns`` over
``EventColumns.from_compact``, so the suite has two arms: columns and
per-event.  Hypothesis drives random programs, workloads, batch sizes,
adaptive check intervals and corruptions through both and compares
everything observable — including the adaptive policy's recursion
counters and compressed set, every thread's frames and ccStack entries,
and the telemetry registry.  Dense recursion (affinity 0.9) and a
16-call check interval make re-encodings fire from general-path events
handled inside the kernel, which exercises its stale-table exit; draws
over the compression mode and telemetry cover every back-edge shape the
kernel handles.  A third arm replays recursion streams recorded from
the real Python tracer (fib, mutual and tree recursion).

The same discipline is applied to the decode side:
``decode_log_parallel`` must reproduce sequential ``decode_log`` output
exactly, including best-effort ``PartialDecode`` fault ordering.
"""

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

import random

from repro.core.adaptive import AdaptiveConfig
from repro.core.columnar import EventColumns
from repro.core.engine import CompressionMode, DacceConfig, DacceEngine
from repro.core.events import EV_CALL, EV_RETURN, EV_SAMPLE, inflate
from repro.core.faults import FaultPolicy
from repro.core.serialize import decoding_state_to_dict
from repro.obs import Telemetry
from repro.program.generator import GeneratorConfig, generate_program
from repro.pytrace import PythonDacceTracer
from repro.program.trace import ThreadSpec, TraceExecutor, WorkloadSpec
from repro.static.synthetic import extract_program
from repro.static.warmstart import build_warmstart


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _stream(program_seed, workload_seed, calls, threads, affinity):
    program = generate_program(
        GeneratorConfig(
            seed=program_seed,
            functions=30,
            edges=80,
            indirect_fraction=0.08,
            tail_fraction=0.05,
            recursive_sites=2,
        )
    )
    spec = WorkloadSpec(
        calls=calls,
        seed=workload_seed,
        sample_period=53,
        recursion_affinity=affinity,
        threads=[
            ThreadSpec(thread=i + 1, entry=3 + i, spawn_at_call=40 * (i + 1))
            for i in range(threads)
        ],
    )
    return program, list(TraceExecutor(program, spec).compact_events())


def _drive_per_event(engine, records, reencode_at=None):
    for index, record in enumerate(records):
        if reencode_at is not None and index == reencode_at:
            engine.reencode()
        engine.on_event(inflate(record))


def _drive_columnar(engine, records, batch_size, reencode_at=None):
    """Feed ``records`` in ``batch_size`` column slabs, optionally forcing
    a re-encoding pass between the slabs before and after ``reencode_at``."""
    cut = len(records) if reencode_at is None else reencode_at
    for index, part in enumerate((records[:cut], records[cut:])):
        if index == 1 and reencode_at is not None:
            engine.reencode()
        for start in range(0, len(part), batch_size):
            engine.process_columns(
                EventColumns.from_compact(part[start : start + batch_size])
            )


def _observable(engine):
    """Everything the fast lane must leave bit-identical."""
    snapshot = engine.stats_snapshot()
    # The specialisation counters themselves are the *only* permitted
    # difference between the two paths (pass reports also carry their
    # wall-clock duration).
    snapshot.pop("fastpath")
    for report in snapshot.get("reencode_passes", ()):
        report.pop("duration_seconds")
    return {
        "state": decoding_state_to_dict(engine),
        "stats": engine.stats,
        "samples": engine.samples,
        "cost": dataclasses.asdict(engine.cost.report),
        "snapshot": snapshot,
        "ccstack": engine.ccstack_stats(),
        "faults": [record.to_dict() for record in engine.faults.records()],
        "recursion_pushes": engine.policy.recursion_pushes,
        "compressed": engine.policy.compressed_edges,
        "threads": {
            thread: (
                state.id_value,
                list(state.frames),
                [
                    (e.id, e.callsite, e.target, e.count, e.discovery)
                    for e in state.ccstack._entries
                ],
                state.ccstack.depth(),
            )
            for thread, state in engine._threads.items()
        },
        "telemetry": {
            name: metric
            for name, metric in engine.telemetry.snapshot().items()
            if name not in SPECIALISATION_METRICS
        },
    }


#: Telemetry series allowed to differ: the fast-path counters and the
#: wall-clock pass durations.
SPECIALISATION_METRICS = (
    "dacce_fastpath_total",
    "dacce_reencode_duration_seconds",
)


def _config(check_interval, **kwargs):
    return DacceConfig(
        adaptive=AdaptiveConfig(check_interval=check_interval), **kwargs
    )


def _engine(config, telemetry=False):
    return DacceEngine(
        config=config, telemetry=Telemetry() if telemetry else None
    )


def _assert_equivalent(per_event, columnar):
    observed_a = _observable(per_event)
    observed_b = _observable(columnar)
    for key in observed_a:
        assert observed_a[key] == observed_b[key], "diverged in %r" % key


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(
    program_seed=st.integers(0, 50),
    workload_seed=st.integers(0, 50),
    calls=st.integers(200, 1500),
    threads=st.integers(0, 2),
    affinity=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
    check_interval=st.sampled_from([16, 512]),
    batch_size=st.sampled_from([1, 7, 64, 4096]),
    reencode_frac=st.one_of(st.none(), st.floats(0.1, 0.9)),
    compression=st.sampled_from(list(CompressionMode)),
    telemetry=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_process_batch_equals_per_event(
    program_seed, workload_seed, calls, threads, affinity, check_interval,
    batch_size, reencode_frac, compression, telemetry,
):
    _, records = _stream(program_seed, workload_seed, calls, threads, affinity)
    reencode_at = (
        None if reencode_frac is None else int(len(records) * reencode_frac)
    )
    config = _config(check_interval, compression=compression)
    per_event = _engine(config, telemetry)
    _drive_per_event(per_event, records, reencode_at)
    columnar = _engine(config, telemetry)
    _drive_columnar(columnar, records, batch_size, reencode_at)
    _assert_equivalent(per_event, columnar)
    # The generated dispatch kernel actually ran (not a silent fallback).
    assert columnar.fastpath.compiles >= 1
    assert columnar.fastpath.batches >= 1


@given(
    program_seed=st.integers(0, 30),
    workload_seed=st.integers(0, 30),
    calls=st.integers(200, 800),
    affinity=st.sampled_from([0.3, 0.9]),
    check_interval=st.sampled_from([16, 512]),
    batch_size=st.sampled_from([1, 32, 4096]),
)
@settings(max_examples=15, deadline=None)
def test_process_batch_equals_per_event_warm_start(
    program_seed, workload_seed, calls, affinity, check_interval, batch_size
):
    program, records = _stream(program_seed, workload_seed, calls, 0, affinity)
    plan = build_warmstart(extract_program(program))

    # NB: each engine needs its own freshly built plan — a WarmStartPlan
    # installs CallEdge objects by reference, so sharing one between two
    # engines would share (and double-consume) edge.invocations.
    def fresh():
        return DacceEngine(
            config=_config(check_interval),
            warm_start=build_warmstart(extract_program(program)),
        )

    assert plan.seeded_edges > 0
    per_event = fresh()
    _drive_per_event(per_event, records, reencode_at=len(records) // 2)
    columnar = fresh()
    _drive_columnar(
        columnar, records, batch_size, reencode_at=len(records) // 2
    )
    assert columnar.stats.warmstart_handler_hits_avoided > 0
    _assert_equivalent(per_event, columnar)


def _corrupt(records, seed, rate=0.02):
    """Inject malformed records (wrong caller, bogus thread, spurious
    returns) that the recover policy must quarantine identically."""
    rng = random.Random(seed)
    corrupted = []
    for record in records:
        corrupted.append(record)
        if rng.random() >= rate:
            continue
        choice = rng.randrange(3)
        if choice == 0 and record[0] == EV_CALL:
            # Caller mismatch: resynchronised against the shadow stack.
            corrupted.append(
                (EV_CALL, record[1], record[2], record[3] + 977, record[4], 0)
            )
        elif choice == 1:
            corrupted.append((EV_CALL, 555, 1, 0, 1, 0))  # unknown thread
        else:
            corrupted.append((EV_RETURN, record[1]))  # spurious return
    return corrupted


@given(
    program_seed=st.integers(0, 30),
    workload_seed=st.integers(0, 30),
    corruption_seed=st.integers(0, 100),
    calls=st.integers(200, 800),
    affinity=st.sampled_from([0.3, 0.9]),
    check_interval=st.sampled_from([16, 512]),
    batch_size=st.sampled_from([1, 32, 4096]),
)
@settings(max_examples=15, deadline=None)
def test_process_batch_equals_per_event_under_fault_recovery(
    program_seed, workload_seed, corruption_seed, calls, affinity,
    check_interval, batch_size,
):
    _, records = _stream(program_seed, workload_seed, calls, 1, affinity)
    records = _corrupt(records, corruption_seed)
    per_event = DacceEngine(
        config=_config(check_interval, fault_policy=FaultPolicy.RECOVER)
    )
    _drive_per_event(per_event, records)
    columnar = DacceEngine(
        config=_config(check_interval, fault_policy=FaultPolicy.RECOVER)
    )
    _drive_columnar(columnar, records, batch_size)
    _assert_equivalent(per_event, columnar)


# ----------------------------------------------------------------------
# recorded real-Python recursion
# ----------------------------------------------------------------------
def _record_tracer(program):
    """The compact event stream a traced run feeds its engine.

    Column batches are captured as the tracer drains them and each
    ``tracer.sample()`` becomes a sample record at its position.
    """
    tracer = PythonDacceTracer()
    engine = tracer.engine
    records = []
    process_columns = engine.process_columns
    on_sample = engine.on_sample

    def recording_columns(cols):
        records.extend(cols.iter_compact())
        process_columns(cols)

    def recording_sample(event):
        records.append((EV_SAMPLE, event.thread))
        return on_sample(event)

    engine.process_columns = recording_columns
    engine.on_sample = recording_sample
    tracer.run(program, tracer)
    return records


def _fib_program(tracer):
    def fib(n):
        if n < 2:
            if n:
                tracer.sample()
            return n
        return fib(n - 1) + fib(n - 2)

    return fib(13)


def _mutual_program(tracer):
    def is_even(n):
        if n == 0:
            tracer.sample()
            return True
        return is_odd(n - 1)

    def is_odd(n):
        if n == 0:
            return False
        return is_even(n - 1)

    return [is_even(n) for n in (10, 31, 64, 7, 120)]


def _tree_program(tracer):
    rng = random.Random(5)
    children = [[] for _ in range(80)]
    for node in range(1, 80):
        children[rng.randrange(max(0, node - 3), node)].append(node)

    def tree_sum(node):
        if not children[node]:
            tracer.sample()
            return node
        return node + sum(tree_sum(child) for child in children[node])

    return [tree_sum(0) for _ in range(6)]


PYTHON_PROGRAMS = {
    "fib": _fib_program,
    "mutual": _mutual_program,
    "tree": _tree_program,
}


@functools.lru_cache(maxsize=None)
def _python_stream(name):
    return tuple(_record_tracer(PYTHON_PROGRAMS[name]))


@given(
    name=st.sampled_from(sorted(PYTHON_PROGRAMS)),
    check_interval=st.sampled_from([16, 64, 512]),
    batch_size=st.sampled_from([1, 7, 64, 4096]),
    reencode_frac=st.one_of(st.none(), st.floats(0.1, 0.9)),
    compression=st.sampled_from(list(CompressionMode)),
    telemetry=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_recorded_python_recursion_equals_per_event(
    name, check_interval, batch_size, reencode_frac, compression, telemetry
):
    records = list(_python_stream(name))
    reencode_at = (
        None if reencode_frac is None else int(len(records) * reencode_frac)
    )
    config = _config(check_interval, compression=compression)
    per_event = _engine(config, telemetry)
    _drive_per_event(per_event, records, reencode_at)
    columnar = _engine(config, telemetry)
    _drive_columnar(columnar, records, batch_size, reencode_at)
    _assert_equivalent(per_event, columnar)
    assert columnar.stats.back_edge_calls > 100
    assert columnar.stats.samples > 0
