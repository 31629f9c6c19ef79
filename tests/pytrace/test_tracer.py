"""Python-frontend tests: real interpreter execution through DACCE."""

import sys

import pytest

from repro.core.engine import CompressionMode, DacceConfig
from repro.core.errors import TraceError
from repro.core.events import (
    CallEvent,
    ReturnEvent,
    ThreadExitEvent,
    ThreadStartEvent,
)
from repro.core.faults import FaultKind, FaultPolicy, RecoveryAction
from repro.pytrace import PythonDacceTracer, contexts_agree, walk_stack

from .hit_paths import collector_off, each


def simple_chain(tracer):
    def inner():
        return tracer.sample()

    def middle():
        return inner()

    def outer():
        return middle()

    return tracer.run(outer)


def test_simple_chain_decodes_by_name():
    tracer = PythonDacceTracer()
    sample = simple_chain(tracer)
    names = tracer.format_context(tracer.decode(sample))
    assert names.endswith("outer -> middle -> inner")
    assert names.startswith("<root>")


def test_decode_matches_oracle_for_recursion():
    tracer = PythonDacceTracer()
    checks = []

    def fib(n):
        if n < 2:
            decoded = tracer.decode(tracer.sample())
            expected = tracer.expected_context()
            checks.append(
                [s.function for s in decoded.steps]
                == [s.function for s in expected.steps]
            )
            return n
        return fib(n - 1) + fib(n - 2)

    tracer.run(fib, 9)
    assert checks and all(checks)


def test_decode_matches_stack_walk():
    tracer = PythonDacceTracer()
    agreements = []

    def leaf():
        decoded = tracer.decode(tracer.sample())
        walked = walk_stack(tracer)  # starts at this frame
        agreements.append(contexts_agree(decoded, walked))

    def level2():
        leaf()

    def level1():
        level2()
        leaf()

    tracer.run(level1)
    assert agreements == [True, True]


def test_mutual_recursion():
    tracer = PythonDacceTracer()
    oks = []

    def is_even(n):
        return True if n == 0 else is_odd(n - 1)

    def is_odd(n):
        if n == 0:
            decoded = tracer.decode(tracer.sample())
            expected = tracer.expected_context()
            oks.append(decoded.functions() == expected.functions())
            return False
        return is_even(n - 1)

    assert tracer.run(is_even, 9) is False  # descends to is_odd(0)
    assert oks and all(oks)


def test_exception_unwind_keeps_balance():
    tracer = PythonDacceTracer()

    def thrower():
        raise ValueError("boom")

    def catcher():
        try:
            thrower()
        except ValueError:
            pass
        return tracer.decode(tracer.sample())

    decoded = tracer.run(catcher)
    names = tracer.format_context(decoded)
    assert names.endswith("catcher")
    assert "thrower" not in names


def test_generators_stay_balanced():
    tracer = PythonDacceTracer()

    def gen():
        for value in range(3):
            yield value

    def consume():
        total = sum(gen())
        return tracer.decode(tracer.sample())

    decoded = tracer.run(consume)
    assert tracer.format_context(decoded).endswith("consume")


def test_automatic_sampling():
    tracer = PythonDacceTracer(sample_every=5)

    def spin(n):
        if n == 0:
            return 0
        return 1 + spin(n - 1)

    tracer.run(spin, 40)
    assert len(tracer.samples) >= 8
    decoder = tracer.engine.decoder()
    for sample in tracer.samples:
        decoder.decode(sample)  # all samples decodable


def test_engine_adapts_during_python_run():
    tracer = PythonDacceTracer()

    def workload():
        def a():
            return b()

        def b():
            return 1

        total = 0
        for _ in range(3000):
            total += a()
        return total

    tracer.run(workload)
    assert tracer.engine.stats.reencodings >= 1
    assert tracer.engine.max_id >= 0


def test_double_start_rejected():
    tracer = PythonDacceTracer()
    tracer.start()
    try:
        with pytest.raises(TraceError):
            tracer.start()
    finally:
        tracer.stop()


def test_stop_is_idempotent():
    tracer = PythonDacceTracer()
    tracer.start()
    tracer.stop()
    tracer.stop()


def test_function_info_lookup():
    tracer = PythonDacceTracer()

    def named_thing():
        return tracer.sample()

    sample = tracer.run(named_thing)
    decoded = tracer.decode(sample)
    info = tracer.function_info(decoded.steps[-1].function)
    assert info.name == "named_thing"
    with pytest.raises(TraceError):
        tracer.function_info(99999)


def test_traced_run_never_calls_process_columns():
    """The profile hook encodes at the call: no column batch is built."""
    tracer = PythonDacceTracer()
    engine = tracer.engine
    batches = []
    process_columns = engine.process_columns

    def recording(cols):
        batches.append(len(cols))
        process_columns(cols)

    engine.process_columns = recording

    def leaf():
        return 1

    def fanout():
        return sum(leaf() for _ in range(300))

    for _ in range(3):
        assert tracer.run(fanout) == 300
    assert batches == []
    assert engine.fastpath.batches == 0
    assert engine.fastpath.hits > 0
    assert engine.fastpath_stats()["enabled"]
    stats = engine.stats
    assert stats.calls == stats.returns > 0


def test_engine_work_runs_with_the_hook_detached():
    """Engine work reached from traced code never runs under the hook."""
    tracer = PythonDacceTracer()
    seen = []
    tracer.engine.install_sample_hook(
        1, lambda sample, weight: seen.append(sys.getprofile())
    )
    after = []

    def leaf():
        return 1

    def body():
        # Far fewer events than the slab holds, so the only drains are
        # the ones tracer.sample() makes from traced code.
        total = leaf() + leaf()
        tracer.sample()
        after.append(sys.getprofile())
        return total + leaf()

    assert tracer.run(body) == 3
    assert seen and all(profile is None for profile in seen)
    assert after == [tracer._hook]
    assert sys.getprofile() is None


#: Skipped code, as the tracer skips frozen stdlib modules: ``relay``
#: records its caller's bytecode offset, then calls back.
FROZEN_RELAY = """
import sys

def relay(fn, lastis):
    lastis.append(sys._getframe(1).f_lasti)
    return fn()
"""


@each
def test_a_callback_through_skipped_code_takes_the_callers_site():
    skipped = {}
    exec(compile(FROZEN_RELAY, "<frozen test>", "exec"), skipped)
    relay = skipped["relay"]
    lastis = []

    def callback():
        return 1

    def caller():
        return relay(callback, lastis) + relay(callback, lastis)

    tracer = PythonDacceTracer()
    assert tracer.run(caller) == 2
    callee = tracer._function_id(callback.__code__)
    # Each callback is filed under the call in ``caller`` that led into
    # the skipped code, not at ``relay``'s own offset, which both share.
    sites = tracer._caller_sites[tracer._function_id(caller.__code__)]
    assert len(set(lastis)) == 2
    assert sorted(sites) == sorted(lastis)
    edges = {
        (edge.callsite, edge.callee)
        for edge in tracer.engine.graph.edges()
        if edge.callee == callee
    }
    assert edges == {(sites[lasti], callee) for lasti in lastis}


def _failing_tracer(policy, program, *args):
    """A tracer warmed up on ``program``, so that its edges are known
    and the forward ones encoded, whose general path then raises a
    ``TraceError`` mid-apply on the first-seen call of ``_fault_point``:
    after ``_push_unencoded`` has pushed the ccStack and set the id,
    before the call's frame exists."""
    tracer = PythonDacceTracer(config=DacceConfig(fault_policy=policy))
    tracer.run(program, *args)
    engine = tracer.engine
    assert engine.reencode()
    push = engine._push_unencoded

    def failing(state, event, edge):
        action = push(state, event, edge)
        if tracer.name_of(event.callee) == "_fault_point":
            raise TraceError("injected fault calling _fault_point")
        return action

    engine._push_unencoded = failing
    return tracer


def _fault_point(reached):
    reached.append(True)
    return 0


def _countdown(n, reached=None):
    """Recurse ``n`` deep; at the bottom, given a ``reached`` list, call
    ``_fault_point``, which records that it ran."""
    if n:
        return _countdown(n - 1, reached) + 1
    return 0 if reached is None else _fault_point(reached)


@pytest.mark.faultinject
@each
def test_injected_error_in_real_recursion_is_quarantined_and_resynced():
    tracer = _failing_tracer(FaultPolicy.RECOVER, _countdown, 6)
    engine = tracer.engine
    hits = engine.fastpath.hits
    reached = []
    assert tracer.run(_countdown, 8, reached) == 8
    assert engine.fastpath.hits > hits  # the hook ran up to the failure
    assert reached == [True]  # the failed call ran, untracked
    trace_errors = [
        record
        for record in engine.faults.records()
        if record.kind is FaultKind.TRACE_ERROR
    ]
    assert len(trace_errors) == 1
    assert trace_errors[0].recovery is RecoveryAction.RESYNCED
    assert "injected fault" in trace_errors[0].message
    # The quarantined call's return makes no engine event: no later
    # return pops a frame the resync left (no return-bottom fault).
    assert engine.faults.kinds() == (FaultKind.TRACE_ERROR,)
    agreements = []

    def probe():
        decoded = tracer.decode(tracer.sample())
        agreements.append(contexts_agree(decoded, walk_stack(tracer)))

    def leaf(n):
        if n == 0:
            probe()
            return 0
        return leaf(n - 1) + 1

    for _ in range(3):
        assert tracer.run(leaf, 5) == 5
    assert agreements == [True] * 3


def _fault_point_with_calls(reached):
    reached.append(True)
    return _leaf(0) + _leaf(1)


def _leaf(n):
    return n


def _countdown_to_calls(n, reached=None):
    """``_countdown``, whose bottom call makes calls of its own."""
    if n:
        return _countdown_to_calls(n - 1, reached) + 1
    return 0 if reached is None else _fault_point_with_calls(reached)


@pytest.mark.faultinject
@each
def test_calls_inside_a_quarantined_call_pop_no_engine_frame():
    tracer = PythonDacceTracer(config=DacceConfig(fault_policy=FaultPolicy.RECOVER))
    tracer.run(_countdown_to_calls, 6)
    engine = tracer.engine
    assert engine.reencode()
    push = engine._push_unencoded

    def failing(state, event, edge):
        action = push(state, event, edge)
        if tracer.name_of(event.callee) == "_fault_point_with_calls":
            raise TraceError("injected fault calling _fault_point_with_calls")
        return action

    engine._push_unencoded = failing
    reached = []
    suppressed = tracer.suppressed_events
    assert tracer.run(_countdown_to_calls, 8, reached) == 9
    assert reached == [True]
    # The quarantined call runs without an engine frame, so the hook
    # suppresses the calls it makes, as it does a targeted region's
    # interior: the quarantine is the only fault, and no return, theirs
    # or its own, pops a frame the engine holds for a live caller.
    counts = engine.faults.counts_by_kind()
    assert counts == {"trace-error": 1}, counts
    # Its return, and the call and return of each of its two calls.
    assert tracer.suppressed_events - suppressed == 1 + 2 * 2
    assert engine.stats.calls - engine.stats.returns == 1  # the failed call
    assert len(engine._threads[0].frames) == 1


@pytest.mark.faultinject
@each
def test_injected_error_in_real_recursion_surfaces_under_strict():
    caught = []

    def body(reached=None):
        try:
            _countdown(8, reached)
        except TraceError as error:
            caught.append((error, sys.getprofile(), len(tracer.live_frames())))
        return len(caught)

    tracer = _failing_tracer(FaultPolicy.STRICT, body)
    engine = tracer.engine
    assert caught == []
    reached = []
    assert tracer.run(body, reached) == 1
    ((error, profile, live),) = caught
    assert "injected fault" in str(error)
    # Raised from the hook at the call of _fault_point, so CPython
    # removed the profile hook; the failed call never started.
    assert profile is None
    assert reached == []
    assert live == 10  # body and nine _countdown frames
    assert sys.getprofile() is None
    stats = engine.stats
    # on_call counts the failed call before it raises, and it never
    # returns; every call the engine applied has returned.
    assert stats.calls == stats.returns + 1
    assert len(engine._threads[0].frames) == 1
    assert engine.faults.total == 0


def _dive(n, bottom, *args):
    """Recurse ``n`` deep, then call ``bottom(*args)``."""
    if n:
        return _dive(n - 1, bottom, *args) + 1
    return bottom(*args)


def _commit_pass(tracer, committed):
    committed.append(tracer._detached(tracer.engine.reencode))
    return 0


@pytest.mark.faultinject
@each
def test_one_counter_set_over_exits_resyncs_and_passes():
    config = DacceConfig(
        compression=CompressionMode.ALWAYS, fault_policy=FaultPolicy.RECOVER
    )
    tracer = PythonDacceTracer(config=config)
    # A collection inside the traced runs would trace a ``gc.callbacks``
    # entry as one more call and move the exact counts below.
    with collector_off():
        tracer.run(_dive, 4, _leaf, 0)
        engine = tracer.engine
        assert engine.reencode()
        push = engine._push_unencoded

        def failing(state, event, edge):
            action = push(state, event, edge)  # counts before the fault
            if tracer.name_of(event.callee) == "_fault_point":
                raise TraceError("injected fault calling _fault_point")
            return action

        engine._push_unencoded = failing
        before = engine.ccstack_stats()
        # An engine thread of its own, spawned at _dive, recurses 7 deep
        # (depth 8 with its clone entry) and exits: one clone push, one
        # back-edge push and six compressions, unwound.
        dive = tracer._function_id(_dive.__code__)
        engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=dive))
        for _ in range(7):
            engine.on_event(CallEvent(thread=1, callsite=10**6, caller=dive, callee=dive))
        for _ in range(7):
            engine.on_event(ReturnEvent(thread=1))
        engine.on_event(ThreadExitEvent(thread=1))
        hits = engine.fastpath.hits
        # Each 5-deep recursion on thread 0 pushes twice (the first entry
        # holds the root edge's id, not maxID + 1), compresses three times
        # and unwinds on the hit path.
        assert tracer.run(_dive, 5, _leaf, 0) == 5
        # The first call of _fault_point pushes a discovery entry, fails and
        # resyncs the thread from its shadow stack without counting.
        reached = []
        assert tracer.run(_dive, 5, _fault_point, reached) == 5
        assert reached == [True]
        # A pass commits under _commit_pass's discovery push: the replay
        # counts nothing, and encodes the edge, so its return pops nothing.
        committed = []
        assert tracer.run(_dive, 5, _commit_pass, tracer, committed) == 5
        assert committed == [True]
        assert engine.fastpath.hits > hits
        assert engine.ccstack_stats() == {
            "pushes": before["pushes"] + 2 + 2 + (2 + 1) + (2 + 1),
            "pops": before["pops"] + 1 + 2 + 2 + 2,
            "compressions": before["compressions"] + 6 + 3 + 3 + 3,
            "decompressions": before["decompressions"] + 6 + 3 + 3 + 3,
            # The exited thread was the deepest of all.
            "max_depth": 8,
        }
    counts = engine.faults.counts_by_kind()
    assert counts == {"trace-error": 1}, counts
