"""Differential property tests: the fast lane changes speed, not behaviour.

The contract of ``DacceEngine.process_columns`` and its columnar
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
the real Python tracer (fib, mutual and tree recursion).  A targeted
arm runs synthetic programs under a ``build_targeted`` plan (boundary
crossings, interior untracked calls and tail calls across the
boundary) and replays a targeted stream recorded from the real tracer.
The main and targeted synthetic arms also draw a continuous-profiling
sample hook (period 1, 3 or 17) whose callback may remove it, or swap
it for one with another period, mid-run; both arms must deliver the
same hook samples with the same weights.

The same discipline is applied to the decode side:
``decode_log_parallel`` must reproduce sequential ``decode_log`` output
exactly, including best-effort ``PartialDecode`` fault ordering.
"""

import dataclasses
import functools
import tempfile

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
from repro.static.targeted import build_targeted
from repro.static.warmstart import build_warmstart
from tests.pytrace import targeted_program


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _stream(
    program_seed, workload_seed, calls, threads, affinity, tail_fraction=0.05
):
    program = generate_program(
        GeneratorConfig(
            seed=program_seed,
            functions=30,
            edges=80,
            indirect_fraction=0.08,
            tail_fraction=tail_fraction,
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
                state.ccstack.entries(),
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


#: A sample-hook draw: ``None`` (no hook) or ``(period, action, firing)``.
#: At its ``firing``-th sample the callback removes the hook
#: (``"remove"``) or replaces it with one of the next period
#: (``"swap"``); ``"keep"`` leaves it installed.
HOOKS = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([1, 3, 17]),
        st.sampled_from(["keep", "remove", "swap"]),
        st.sampled_from([1, 5]),
    ),
)
_NEXT_PERIOD = {1: 3, 3: 17, 17: 1}


def _install_hook(engine, hook):
    """Install the drawn sample hook on ``engine``; returns its log of
    ``(sample, weight)`` pairs."""
    log = []
    if hook is None:
        return log
    period, action, firing = hook

    def callback(sample, weight):
        log.append((sample, weight))
        if len(log) == firing and action != "keep":
            engine.remove_sample_hook()
            if action == "swap":
                engine.install_sample_hook(_NEXT_PERIOD[period], callback)

    engine.install_sample_hook(period, callback)
    return log


def _assert_same_hook_logs(per_event_log, columnar_log, hook):
    assert per_event_log == columnar_log
    if hook is not None:
        assert per_event_log


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
    hook=HOOKS,
)
@settings(max_examples=30, deadline=None)
def test_process_batch_equals_per_event(
    program_seed, workload_seed, calls, threads, affinity, check_interval,
    batch_size, reencode_frac, compression, telemetry, hook,
):
    _, records = _stream(program_seed, workload_seed, calls, threads, affinity)
    reencode_at = (
        None if reencode_frac is None else int(len(records) * reencode_frac)
    )
    config = _config(check_interval, compression=compression)
    per_event = _engine(config, telemetry)
    per_event_log = _install_hook(per_event, hook)
    _drive_per_event(per_event, records, reencode_at)
    columnar = _engine(config, telemetry)
    columnar_log = _install_hook(columnar, hook)
    _drive_columnar(columnar, records, batch_size, reencode_at)
    _assert_equivalent(per_event, columnar)
    _assert_same_hook_logs(per_event_log, columnar_log, hook)
    # The dispatch kernel actually ran (not a silent fallback).
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
def _record_tracer(program, tracer):
    """The compact event stream a traced run feeds its engine.

    Column batches are captured as the tracer drains them and each
    ``tracer.sample()`` becomes a sample record at its position.
    """
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
    return tuple(_record_tracer(PYTHON_PROGRAMS[name], PythonDacceTracer()))


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


# ----------------------------------------------------------------------
# targeted mode
# ----------------------------------------------------------------------
def _targeted_engine(config, telemetry, plan):
    return DacceEngine(
        config=config,
        targeted=plan,
        telemetry=Telemetry() if telemetry else None,
    )


@given(
    program_seed=st.integers(0, 40),
    workload_seed=st.integers(0, 40),
    calls=st.integers(200, 1500),
    threads=st.integers(0, 1),
    affinity=st.sampled_from([0.0, 0.4, 0.9]),
    tail_fraction=st.sampled_from([0.05, 0.3]),
    sinks=st.lists(st.integers(1, 29), min_size=1, max_size=3, unique=True),
    check_interval=st.sampled_from([16, 512]),
    batch_size=st.sampled_from([1, 7, 64, 4096]),
    reencode_frac=st.one_of(st.none(), st.floats(0.1, 0.9)),
    telemetry=st.booleans(),
    hook=HOOKS,
)
@settings(max_examples=30, deadline=None)
def test_targeted_process_columns_equals_per_event(
    program_seed, workload_seed, calls, threads, affinity, tail_fraction,
    sinks, check_interval, batch_size, reencode_frac, telemetry, hook,
):
    program, records = _stream(
        program_seed, workload_seed, calls, threads, affinity, tail_fraction
    )
    static = extract_program(program)
    names = ["fn_%03d" % sink for sink in sinks]
    reencode_at = (
        None if reencode_frac is None else int(len(records) * reencode_frac)
    )
    config = _config(check_interval)

    # Each engine gets its own plan: a warm start installs its CallEdge
    # objects by reference.
    def fresh():
        return _targeted_engine(
            config, telemetry, build_targeted(static, names)
        )

    per_event = fresh()
    per_event_log = _install_hook(per_event, hook)
    _drive_per_event(per_event, records, reencode_at)
    columnar = fresh()
    columnar_log = _install_hook(columnar, hook)
    _drive_columnar(columnar, records, batch_size, reencode_at)
    _assert_equivalent(per_event, columnar)
    _assert_same_hook_logs(per_event_log, columnar_log, hook)
    assert columnar.fastpath.compiles >= 1


@functools.lru_cache(maxsize=None)
def _targeted_python_stream():
    """A py_targeted-shaped stream recorded from the real tracer, and
    the static graph its plans are built from."""
    with tempfile.TemporaryDirectory() as directory:
        tracer = None

        def probe():
            tracer.sample()

        module, graph = targeted_program.load(directory, probe)
        tracer = PythonDacceTracer(
            targeted=targeted_program.plan_for(graph), source_root=directory
        )
        records = _record_tracer(
            lambda _tracer: module.run_iteration(24), tracer
        )
    return tuple(records), graph


@given(
    check_interval=st.sampled_from([16, 64, 512]),
    batch_size=st.sampled_from([1, 7, 64, 4096]),
    reencode_frac=st.one_of(st.none(), st.floats(0.1, 0.9)),
    telemetry=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_recorded_python_targeted_equals_per_event(
    check_interval, batch_size, reencode_frac, telemetry
):
    stream, graph = _targeted_python_stream()
    records = list(stream)
    reencode_at = (
        None if reencode_frac is None else int(len(records) * reencode_frac)
    )
    config = _config(check_interval)
    per_event = _targeted_engine(
        config, telemetry, targeted_program.plan_for(graph)
    )
    _drive_per_event(per_event, records, reencode_at)
    columnar = _targeted_engine(
        config, telemetry, targeted_program.plan_for(graph)
    )
    _drive_columnar(columnar, records, batch_size, reencode_at)
    _assert_equivalent(per_event, columnar)
    stats = columnar.stats
    assert stats.boundary_crossings > 100
    assert stats.back_edge_calls == 0
    assert stats.samples > 0
    # The crossings ran in the kernel: the general path saw only the
    # samples and the root edge's discovery push and pop.
    assert columnar.fastpath.misses <= stats.samples + 2


# ----------------------------------------------------------------------
# mid-stream thread state
# ----------------------------------------------------------------------
def _thread_states(engine):
    """Every thread's id, frames (with their ccStack checkpoints),
    ccStack entries, depth and operation counters."""
    return {
        thread: (
            state.id_value,
            list(state.frames),
            state.ccstack.entries(),
            state.ccstack.depth(),
            state.ccstack.stats,
        )
        for thread, state in engine._threads.items()
    }


def _assert_lockstep(per_event, columnar, records, batch_size):
    """Feed both engines slab by slab and compare the live thread state
    after every slab, where the kernel's deferred frames and ccStack
    locals have just been materialised and folded."""
    for start in range(0, len(records), batch_size):
        part = records[start : start + batch_size]
        for record in part:
            per_event.on_event(inflate(record))
        columnar.process_columns(EventColumns.from_compact(part))
        assert _thread_states(columnar) == _thread_states(per_event), start
        assert columnar.ccstack_stats() == per_event.ccstack_stats(), start


@given(
    program_seed=st.integers(0, 40),
    workload_seed=st.integers(0, 40),
    calls=st.integers(200, 1000),
    threads=st.integers(0, 1),
    tail_fraction=st.sampled_from([0.05, 0.3]),
    batch_size=st.sampled_from([7, 29, 64]),
    compression=st.sampled_from(list(CompressionMode)),
    targeted=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_live_thread_state_equals_per_event_at_every_slab(
    program_seed, workload_seed, calls, threads, tail_fraction, batch_size,
    compression, targeted,
):
    program, records = _stream(
        program_seed, workload_seed, calls, threads, 0.9, tail_fraction
    )
    config = _config(512, compression=compression)
    if targeted:
        static = extract_program(program)

        def fresh():
            return _targeted_engine(
                config, False, build_targeted(static, ["fn_007", "fn_019"])
            )
    else:

        def fresh():
            return _engine(config)

    per_event = fresh()
    columnar = fresh()
    _assert_lockstep(per_event, columnar, records, batch_size)
    _assert_equivalent(per_event, columnar)


@given(
    name=st.sampled_from(sorted(PYTHON_PROGRAMS)),
    batch_size=st.sampled_from([7, 29, 64]),
    compression=st.sampled_from(list(CompressionMode)),
)
@settings(max_examples=10, deadline=None)
def test_recorded_recursion_live_state_equals_per_event_at_every_slab(
    name, batch_size, compression
):
    records = list(_python_stream(name))
    config = _config(64, compression=compression)
    per_event = _engine(config)
    columnar = _engine(config)
    _assert_lockstep(per_event, columnar, records, batch_size)
    assert columnar.stats.back_edge_calls > 100
