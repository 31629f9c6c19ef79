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
real Python (fib, mutual and tree recursion) by a test-only recording
hook, :class:`_Recorder`, which resolves calls as the tracer's front
end does.  A targeted arm runs synthetic programs under a
``build_targeted`` plan (boundary crossings, interior untracked calls
and tail calls across the boundary) and replays a targeted stream
recorded the same way.  The main and targeted synthetic arms also draw
a continuous-profiling sample hook (period 1, 3 or 17) whose callback
may remove it, or swap it for one with another period, mid-run; both
arms must deliver the same hook samples with the same weights.  An
indirect arm draws indirect- and PLT-dense programs and hash thresholds
of 1, 4 and 64, so inline caches and hash tables both run on the
kernel, with re-encoding passes forced mid-batch from a sample-hook
callback: passes that commit, or that alternately commit and roll back
at the commit gate or after re-patching.  Further arms force the
promotion of inline-cache sites to hash tables mid-batch, tail-call out
of a kernel-handled indirect frame, and warm-start with seeded
indirect patches.

The Python tracer's profile hook is the table's second driver.  The
last arm runs the front-end golden corpus and the recursion programs
under the hook-resident tracer and, separately, as their recorded
streams through ``process_columns``, and requires the same samples,
hook samples, fast-path hits/misses/compiles, ccStack statistics, cost
charges, thread state and decodes.

The same discipline is applied to the decode side:
``decode_log_parallel`` must reproduce sequential ``decode_log`` output
exactly, including best-effort ``PartialDecode`` fault ordering.
"""

import contextlib
import dataclasses
import functools
import gc
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import random

from repro.core.adaptive import AdaptiveConfig
from repro.core.columnar import EventColumns
from repro.core.engine import CompressionMode, DacceConfig, DacceEngine
from repro.core.events import (
    EV_CALL,
    EV_RETURN,
    EV_SAMPLE,
    KIND_CODE,
    CallKind,
    SampleEvent,
    inflate,
)
from repro.core.fastpath import FRAME_CHAIN, FRAME_FUNCTION, FRAME_KIND
from repro.core.faults import FaultPolicy
from repro.core.serialize import decoding_state_to_dict
from repro.obs import Telemetry
from repro.program.generator import GeneratorConfig, generate_program
from repro.core.ccstack import UNTRACKED_FUNCTION
from repro.pytrace import PythonDacceTracer
from repro.pytrace.tracer import ROOT_FUNCTION, _SKIP as SKIP
from repro.program.trace import ThreadSpec, TraceExecutor, WorkloadSpec
from repro.static.graph import Confidence
from repro.static.pyextract import FunctionIndex, extract_package
from repro.static.synthetic import extract_program
from repro.static.targeted import build_targeted
from repro.static.warmstart import build_warmstart
from tests.pytrace import targeted_program
from tests.pytrace import test_frontend_golden as golden


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _stream(
    program_seed, workload_seed, calls, threads, affinity, tail_fraction=0.05,
    indirect_fraction=0.08, indirect_targets=(2, 4), library_functions=8,
):
    program = generate_program(
        GeneratorConfig(
            seed=program_seed,
            functions=30,
            edges=80,
            indirect_fraction=indirect_fraction,
            indirect_targets=indirect_targets,
            tail_fraction=tail_fraction,
            recursive_sites=2,
            library_functions=library_functions,
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
    seed_indirect=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_process_batch_equals_per_event_warm_start(
    program_seed, workload_seed, calls, affinity, check_interval, batch_size,
    seed_indirect,
):
    program, records = _stream(
        program_seed, workload_seed, calls, 0, affinity,
        indirect_fraction=0.3 if seed_indirect else 0.08,
    )
    # Observed indirect targets are MEDIUM-confidence static edges: a
    # MEDIUM seed pre-patches their sites.
    confidence = Confidence.MEDIUM if seed_indirect else Confidence.HIGH

    # NB: each engine needs its own freshly built plan — a WarmStartPlan
    # installs CallEdge objects by reference, so sharing one between two
    # engines would share (and double-consume) edge.invocations.
    def plan():
        return build_warmstart(extract_program(program), min_confidence=confidence)

    def fresh():
        return DacceEngine(config=_config(check_interval), warm_start=plan())

    assert plan().seeded_edges > 0
    per_event = fresh()
    _drive_per_event(per_event, records, reencode_at=len(records) // 2)
    columnar = fresh()
    if seed_indirect:
        # The seeded patches are in the kernel's first table.
        assert plan().indirect_sites()
        assert columnar._ensure_fastpath().indirect_entries
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
# indirect and PLT calls
# ----------------------------------------------------------------------
#: Re-encoding passes forced from a sample-hook callback, i.e.
#: mid-batch: none, passes that commit, or passes that alternately
#: commit and roll back, at the commit gate or at the pass's last
#: fallible step (a thread regeneration that raises).
FORCED = st.sampled_from([None, "commit", "gate", "regenerate"])


def _assert_table_matches_patches(engine):
    """The table the engine would run with agrees with the live patches."""
    table = engine._ensure_fastpath()
    for (callsite, callee), entry in table.indirect_entries.items():
        site = engine.indirect.get(callsite)
        assert entry[3] is site
        assert entry[4:] == (site.hit_comparisons(callee), site.hashed)


def _site_patches(indirect):
    return {
        site.callsite: (site.strategy, tuple(site.order), site.promotions)
        for site in indirect.sites()
    }


def _force_passes(engine, forced, period=17):
    """Force a re-encoding pass at every ``period``-th call.

    Returns a log of ``(promoted, rolled_back)`` per pass: whether the
    pass moved a patched inline-cache site to a hash table, and whether
    it rolled back.  A rolled-back pass must leave every site patched as
    it was, and an injected regeneration failure must have fired.
    """
    log = []
    if forced is None:
        return log
    indirect = engine.indirect

    def callback(sample, weight):
        inline = [s.callsite for s in indirect.sites() if s.order and not s.hashed]
        before = _site_patches(indirect)
        fired = []
        inject = forced in ("gate", "regenerate") and len(log) % 2 == 1
        if inject and forced == "gate":
            engine._commit_gate = lambda dictionary: ["injected violation"]
        elif inject:

            def explode(state, dictionary):
                fired.append(state)
                raise RuntimeError("injected")

            engine._regenerated = explode
        try:
            committed = engine.reencode(("forced",))
        finally:
            vars(engine).pop("_commit_gate", None)
            vars(engine).pop("_regenerated", None)
        assert committed is not inject
        if inject and forced == "regenerate":
            assert fired
        if not committed:
            assert _site_patches(indirect) == before
        _assert_table_matches_patches(engine)
        promoted = any(indirect.get(cs).hashed for cs in inline)
        log.append((promoted, not committed))

    engine.install_sample_hook(period, callback)
    return log


def _count_general_dispatches(engine):
    """Count the indirect dispatches ``engine``'s general path makes."""
    counts = [0]
    dispatch = engine._dispatch_indirect

    def counting(state, event, edge):
        counts[0] += 1
        return dispatch(state, event, edge)

    engine._dispatch_indirect = counting
    return counts


@given(
    program_seed=st.integers(0, 40),
    workload_seed=st.integers(0, 40),
    calls=st.integers(200, 1500),
    threads=st.integers(0, 1),
    indirect_fraction=st.sampled_from([0.08, 0.3, 0.6]),
    indirect_targets=st.sampled_from([(2, 4), (3, 9)]),
    library_functions=st.sampled_from([8, 20]),
    tail_fraction=st.sampled_from([0.05, 0.3]),
    hash_threshold=st.sampled_from([1, 4, 64]),
    check_interval=st.sampled_from([16, 512]),
    batch_size=st.sampled_from([1, 7, 64, 4096]),
    forced=FORCED,
    telemetry=st.booleans(),
)
# A workload whose indirect edges mostly appear just before the passes
# that "gate" rolls back: 58 of its 100 INDIRECT calls miss, on the
# kernel and per event alike.
@example(
    program_seed=40, workload_seed=15, calls=251, threads=1,
    indirect_fraction=0.3, indirect_targets=(2, 4), library_functions=20,
    tail_fraction=0.05, hash_threshold=1, check_interval=512, batch_size=1,
    forced="gate", telemetry=False,
)
@settings(max_examples=40, deadline=None)
def test_indirect_and_plt_dense_process_columns_equals_per_event(
    program_seed, workload_seed, calls, threads, indirect_fraction,
    indirect_targets, library_functions, tail_fraction, hash_threshold,
    check_interval, batch_size, forced, telemetry,
):
    _, records = _stream(
        program_seed, workload_seed, calls, threads, 0.3, tail_fraction,
        indirect_fraction, indirect_targets, library_functions,
    )
    config = _config(
        check_interval, hash_threshold=hash_threshold,
        fault_policy=FaultPolicy.RECOVER,
    )
    per_event = _engine(config, telemetry)
    per_event_log = _force_passes(per_event, forced)
    _drive_per_event(per_event, records)
    columnar = _engine(config, telemetry)
    columnar_log = _force_passes(columnar, forced)
    general = _count_general_dispatches(columnar)
    _drive_columnar(columnar, records, batch_size)
    _assert_equivalent(per_event, columnar)
    assert per_event_log == columnar_log
    # Every INDIRECT call is dispatched exactly once, by the kernel or
    # the general path, and the general path sees only the misses: every
    # call the encoding covers is dispatched by the kernel.
    indirect_calls = sum(1 for r in records if r[0] == EV_CALL and r[5] == 1)
    stats = columnar.stats
    assert stats.indirect_hits + stats.indirect_misses == indirect_calls
    assert general[0] == stats.indirect_misses
    if forced == "commit" and indirect_calls >= 100:
        # Passes every 17 calls encode the indirect edges early: the
        # kernel dispatches most INDIRECT calls itself.  "gate" and
        # "regenerate" roll every other pass back, which leaves as many
        # misses as skipping those passes does.
        assert general[0] < indirect_calls / 2, (general[0], indirect_calls)


@given(
    program_seed=st.integers(0, 40),
    workload_seed=st.integers(0, 40),
    calls=st.integers(600, 1500),
    forced=st.sampled_from(["commit", "gate", "regenerate"]),
    batch_size=st.sampled_from([7, 64, 4096]),
    telemetry=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_promoted_and_rolled_back_patches_equal_per_event(
    program_seed, workload_seed, calls, forced, batch_size, telemetry
):
    # Up to nine targets per site against a hash threshold of two: a
    # site patched as an inline cache early is promoted by a later
    # committed pass once its third target has been found, and the
    # kernel then serves its hash-table entries.  A rolled-back pass
    # must leave the kernel on the old patches: the commit gate and a
    # failed thread regeneration both reject before re-patching.
    _, records = _stream(
        program_seed, workload_seed, calls, 0, 0.3,
        indirect_fraction=0.6, indirect_targets=(3, 9),
    )
    config = _config(512, hash_threshold=2, fault_policy=FaultPolicy.RECOVER)
    per_event = _engine(config, telemetry)
    per_event_log = _force_passes(per_event, forced)
    _drive_per_event(per_event, records)
    columnar = _engine(config, telemetry)
    columnar_log = _force_passes(columnar, forced)
    _drive_columnar(columnar, records, batch_size)
    _assert_equivalent(per_event, columnar)
    assert per_event_log == columnar_log
    # About one draw in a hundred finds every target of a site before
    # its first patch, which then starts out hashed; a pass that finds
    # nothing new re-patches every site as it was.
    assume(any(promoted for promoted, _ in columnar_log))
    if forced != "commit":
        assert any(rolled_back for _, rolled_back in columnar_log)
    assert any(entry[5] for entry in columnar._fastpath.indirect_entries.values())


@pytest.mark.parametrize("hash_threshold", [1, 4])
def test_tail_call_from_a_kernel_indirect_frame_records_its_kind(hash_threshold):
    # root 0 calls 1 or 3 through indirect site 10; 1 tail-calls 2.
    def columns(targets):
        cols = EventColumns()
        for target in targets:
            cols.push_call(0, 10, 0, target, KIND_CODE[CallKind.INDIRECT])
            if target == 1:
                cols.push_call(0, 11, 1, 2, KIND_CODE[CallKind.TAIL])
            cols.push_return(0)
        return cols

    def feed(cols):
        for record in cols.to_compact():
            per_event.on_event(inflate(record))
        columnar.process_columns(cols)

    config = _config(512, hash_threshold=hash_threshold)
    per_event = _engine(config, True)
    columnar = _engine(config, True)
    feed(columns([3, 1, 3]))
    per_event.reencode()
    columnar.reencode()
    site = columnar.indirect.get(10)
    assert site.order == [3, 1] and site.hashed == (hash_threshold == 1)

    # One batch: the kernel dispatches the call to 1, then hands its
    # frame back before the tail call deoptimises.
    probe = EventColumns()
    probe.push_call(0, 10, 0, 1, KIND_CODE[CallKind.INDIRECT])
    probe.push_call(0, 11, 1, 2, KIND_CODE[CallKind.TAIL])
    hits = columnar.fastpath.hits
    feed(probe)
    assert columnar.fastpath.hits == hits + 1
    for engine in (per_event, columnar):
        top = engine._threads[0].frames[-1]
        assert (top[FRAME_FUNCTION], top[FRAME_KIND]) == (2, CallKind.TAIL)
        assert top[FRAME_CHAIN] == ((1, 10, CallKind.INDIRECT),)
    assert _thread_states(columnar) == _thread_states(per_event)

    done = EventColumns()
    done.push_return(0)
    feed(done)
    feed(columns([1, 3]))
    _assert_equivalent(per_event, columnar)
    assert columnar.stats.tail_calls == 3


# ----------------------------------------------------------------------
# recorded real-Python recursion
# ----------------------------------------------------------------------
class _Recorder:
    """A test-only stand-in for a tracer that records instead of encoding.

    Its profile hook is the front end's call resolution from before the
    hook encoded at the call: the tracer's code cache, ``_classify`` and
    call-site tables, the caller from the top of a shadow stack, and
    targeted regions (an in-region call emits nothing, a re-entry comes
    from ``<untracked>``, a departure from its real call site).  Each
    call and return becomes a compact record, as the tracer's column
    slab once held them; ``sample()`` and ``sample_every`` become sample
    records at their positions.  The tracer's engine sees nothing.
    """

    def __init__(self, tracer):
        self.records = []
        self.tracer = tracer
        self.since_sample = 0
        self.live = []  # (frame, entry, emits events?)
        self.skip = {_Recorder.sample.__code__, _Recorder.run.__code__}

    def sample(self):
        self.records.append((EV_SAMPLE, 0))

    def run(self, fn, *args):
        self.since_sample = 0
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            while self.live:
                if self.live.pop()[2]:
                    self.records.append((EV_RETURN, 0))

    def _hook(self, frame, event, arg):
        tracer = self.tracer
        live = self.live
        if event == "call":
            code = frame.f_code
            if code in self.skip:
                return
            entry = tracer._code_cache.get(id(code)) or tracer._classify(code)
            callee = entry[1]
            if callee == SKIP:
                return
            parent = frame.f_back
            in_region = bool(live) and live[-1][1][1] == UNTRACKED_FUNCTION
            if live:
                caller = live[-1][1]
                lasti = parent.f_lasti if parent is not None else 0
            else:
                caller = tracer._entry(None, ROOT_FUNCTION)
                lasti = 0
            site = None
            if tracer._plan_fns is not None:
                if callee != UNTRACKED_FUNCTION:
                    if in_region:
                        caller = tracer._entry(None, UNTRACKED_FUNCTION)
                        lasti = 0
                    site = caller[3].get(callee)
                elif in_region:
                    live.append((frame, entry, False))
                    return
                elif live and parent is not live[-1][0]:
                    lasti = 0
            if site is None:
                sites = caller[2]
                site = sites.get(lasti)
                if site is None:
                    site = sites[lasti] = tracer._callsite_id()
            self.records.append((EV_CALL, 0, site, caller[1], callee, 0))
            live.append((frame, entry, True))
            if tracer.sample_every:
                self.since_sample += 1
                if self.since_sample >= tracer.sample_every:
                    self.since_sample = 0
                    self.sample()
        elif event == "return":
            if live and live[-1][0] is frame and live.pop()[2]:
                self.records.append((EV_RETURN, 0))


@contextlib.contextmanager
def _gc_off():
    """No collection mid-trace: a finalizer traced under one side only
    would be an event the other side lacks."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _record_tracer(program, tracer):
    """The call/return/sample stream ``program(recorder)`` produces when
    ``tracer`` resolves its calls (see :class:`_Recorder`)."""
    recorder = _Recorder(tracer)
    with _gc_off():
        recorder.run(program, recorder)
    return recorder.records


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
        recorder = None

        def probe():
            recorder.sample()

        module, graph = targeted_program.load(directory, probe)
        recorder = _Recorder(
            PythonDacceTracer(
                targeted=targeted_program.plan_for(graph), source_root=directory
            )
        )
        with _gc_off():
            recorder.run(lambda _recorder: module.run_iteration(24), recorder)
        records = recorder.records
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
    """Feed both engines slab by slab and compare the live thread state,
    the statistics and the cost report after every slab, where the
    kernel's last stay has just handed its deferred frames, ccStack
    locals and counters back."""
    for start in range(0, len(records), batch_size):
        part = records[start : start + batch_size]
        for record in part:
            per_event.on_event(inflate(record))
        columnar.process_columns(EventColumns.from_compact(part))
        assert _thread_states(columnar) == _thread_states(per_event), start
        assert columnar.ccstack_stats() == per_event.ccstack_stats(), start
        assert columnar.stats == per_event.stats, start
        assert columnar.cost.report == per_event.cost.report, start


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


# ----------------------------------------------------------------------
# the hook-resident tracer against its recorded stream
# ----------------------------------------------------------------------
def _golden_program(name, directory):
    """``(tracer kwargs, run)`` for one program of the front-end golden
    corpus or the recursion corpus.  ``run(target)`` traces the program
    with ``target`` (a tracer or a :class:`_Recorder`) as the golden test
    does: two runs, samples through ``target.sample``."""
    if name in PYTHON_PROGRAMS:
        program = PYTHON_PROGRAMS[name]
        return {}, lambda target: target.run(program, target)
    expect = None
    kwargs = {}
    if name in ("static", "targeted"):
        module = golden._package(directory)
        graph = extract_package(directory, index=FunctionIndex(first_id=1))
        namespaces = [vars(module)]
        kwargs["source_root"] = directory
        if name == "static":
            outside = golden._namespace(golden.OUTSIDE, "outside")
            outside["main"] = module.main
            entry = functools.partial(outside["outside"], 3)
            kwargs["static_graph"] = graph
        else:
            entry = module.main
            kwargs["sample_every"] = 5
            kwargs["targeted"] = lambda: build_targeted(
                graph, ["sink_op"], root=ROOT_FUNCTION
            )
    else:
        source = {
            "flat": golden._flat_source(),
            "sampled": golden._flat_source(),
            "recursive": golden.RECURSIVE,
            "generators": golden.GENERATORS,
            "exceptions": golden.EXCEPTIONS,
            "callbacks": golden.CALLBACKS,
        }[name]
        namespace = golden._namespace(source, name)
        namespaces = [namespace]
        entry = namespace["main"]
        if name == "sampled":
            kwargs["sample_every"] = 41
        if name == "exceptions":
            expect = RuntimeError

    def run(target):
        for namespace in namespaces:
            namespace["probe"] = target.sample
        for _ in range(golden.RUNS):
            try:
                target.run(entry)
            except RuntimeError:
                assert expect is RuntimeError
            else:
                assert expect is None

    return kwargs, run


def _new_tracer(kwargs, config, telemetry):
    kwargs = dict(kwargs)
    if "targeted" in kwargs:
        kwargs["targeted"] = kwargs["targeted"]()  # a fresh plan per engine
    return PythonDacceTracer(
        config=config, telemetry=Telemetry() if telemetry else None, **kwargs
    )


def _replay(engine, records, batch_size):
    """Feed a recorded stream to ``engine`` as the old tracer fed its
    slab: events through ``process_columns`` in ``batch_size`` slabs, and
    each sample straight to ``on_sample`` after the events before it."""
    samples = []
    pending = []

    def drain():
        for start in range(0, len(pending), batch_size):
            engine.process_columns(
                EventColumns.from_compact(pending[start : start + batch_size])
            )
        pending.clear()

    for record in records:
        if record[0] == EV_SAMPLE:
            drain()
            samples.append(engine.on_sample(SampleEvent(0)))
        else:
            pending.append(record)
    drain()
    return samples


GOLDEN_PROGRAMS = sorted(golden.PROGRAMS) + sorted(PYTHON_PROGRAMS)


@given(
    name=st.sampled_from(GOLDEN_PROGRAMS),
    check_interval=st.sampled_from([16, 64, 512]),
    batch_size=st.sampled_from([1, 7, 64, 4096]),
    compression=st.sampled_from(list(CompressionMode)),
    telemetry=st.booleans(),
    hook=HOOKS,
)
@settings(max_examples=40, deadline=None)
def test_hook_resident_tracer_equals_its_recorded_stream(
    name, check_interval, batch_size, compression, telemetry, hook
):
    config = _config(check_interval, compression=compression)
    with tempfile.TemporaryDirectory() as directory:
        kwargs, run = _golden_program(name, directory)
        hooked = _new_tracer(kwargs, config, telemetry)
        hooked_log = _install_hook(hooked.engine, hook)
        with _gc_off():
            run(hooked)
        recorder = _Recorder(_new_tracer(kwargs, config, False))
        with _gc_off():
            run(recorder)
    engine = hooked.engine
    replayed = _new_tracer(kwargs, config, telemetry).engine
    replayed_log = _install_hook(replayed, hook)
    samples = _replay(replayed, recorder.records, batch_size)

    assert engine.fastpath.batches == 0 and engine.fastpath_stats()["enabled"]
    assert hooked.samples == samples
    assert hooked.sample_weights == [1.0] * len(samples)
    _assert_same_hook_logs(hooked_log, replayed_log, hook)
    for key in ("hits", "misses", "compiles"):
        assert engine.fastpath_stats()[key] == replayed.fastpath_stats()[key], key
    _assert_equivalent(engine, replayed)
    assert _thread_states(engine) == _thread_states(replayed)
    hooked_decoder = engine.decoder()
    replayed_decoder = replayed.decoder()
    for sample in samples:
        assert hooked_decoder.decode(sample) == replayed_decoder.decode(sample)


def _frames_at_samples(engine):
    """Log a copy of thread 0's frames at every ``on_sample``."""
    log = []
    on_sample = engine.on_sample

    def logging_on_sample(event):
        log.append(list(engine._threads[0].frames))
        return on_sample(event)

    engine.on_sample = logging_on_sample
    return log


@pytest.mark.parametrize("compression", list(CompressionMode))
@pytest.mark.parametrize("name", sorted(PYTHON_PROGRAMS))
def test_hook_frames_equal_per_event_frames_at_every_sample(name, compression):
    # Each program samples deep in its recursion, where the hook has
    # just left: every live frame, with the ccStack checkpoint the hook
    # kept for it, must be the frame per-event processing pushed.
    config = _config(64, compression=compression)
    hooked = _new_tracer({}, config, False)
    hooked_frames = _frames_at_samples(hooked.engine)
    with _gc_off():
        hooked.run(PYTHON_PROGRAMS[name], hooked)
    per_event = _engine(config)
    per_event_frames = _frames_at_samples(per_event)
    for record in _python_stream(name):
        if record[0] == EV_SAMPLE:
            per_event.on_sample(SampleEvent(0))
        else:
            per_event.on_event(inflate(record))
    assert max(len(frames) for frames in hooked_frames) > 10
    assert hooked_frames == per_event_frames
