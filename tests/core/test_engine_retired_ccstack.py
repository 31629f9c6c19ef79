"""The engine's one ccStack counter set (Table 1 sums whole-run traffic).

Every ccStack of an engine counts into the same ``CcStackStats``, so
``ccstack_stats()`` covers exited threads without a merge, and
``max_depth`` is the deepest any thread's stack has been.
"""

import pytest

from repro.core.columnar import EventColumns
from repro.core.engine import CompressionMode, DacceConfig, DacceEngine
from repro.core.errors import TraceError
from repro.core.events import (
    CallEvent,
    ReturnEvent,
    ThreadExitEvent,
    ThreadStartEvent,
    compact,
)
from repro.core.faults import FaultKind, FaultPolicy, RecoveryAction

A, B, C, D, E = 0, 1, 2, 3, 4


def _spawn_recurse_exit(engine, thread, entry, callsite, depth):
    """Spawn ``thread`` at ``entry``, self-recurse ``depth`` times, exit."""
    engine.on_event(ThreadStartEvent(thread=thread, parent=0, entry=entry))
    for _ in range(depth):
        engine.on_event(
            CallEvent(thread=thread, callsite=callsite, caller=entry,
                      callee=entry)
        )
    for _ in range(depth):
        engine.on_event(ReturnEvent(thread=thread))
    engine.on_event(ThreadExitEvent(thread=thread))


def test_single_retired_thread_counters_merged():
    engine = DacceEngine(root=A)
    _spawn_recurse_exit(engine, thread=1, entry=B, callsite=50, depth=2)
    # Spawn push (clone sentinel) + 2 recursive back-edge pushes, of
    # which only the recursion is popped on return; the thread is gone
    # and its traffic stays counted.
    assert engine.ccstack_stats() == {
        "pushes": 3,
        "pops": 2,
        "compressions": 0,
        "decompressions": 0,
        "max_depth": 3,
    }
    assert 1 not in engine.live_threads()


def test_multiple_retired_threads_sum_and_max():
    engine = DacceEngine(root=A)
    _spawn_recurse_exit(engine, thread=1, entry=B, callsite=50, depth=2)
    _spawn_recurse_exit(engine, thread=2, entry=C, callsite=60, depth=4)
    stats = engine.ccstack_stats()
    assert stats["pushes"] == 3 + 5
    assert stats["pops"] == 2 + 4
    # max_depth is a maximum, not a sum: thread 2 reached depth 5.
    assert stats["max_depth"] == 5


def test_compressions_survive_retirement():
    config = DacceConfig(compression=CompressionMode.ALWAYS)
    engine = DacceEngine(root=A, config=config)
    _spawn_recurse_exit(engine, thread=1, entry=B, callsite=50, depth=3)
    # First recursion pushes, the identical repetitions compress, and
    # the compressed repetitions decompress on the unwind.
    assert engine.ccstack_stats() == {
        "pushes": 2,  # clone sentinel + first recursion
        "pops": 1,
        "compressions": 2,
        "decompressions": 2,
        "max_depth": 4,  # the clone entry and three recursions
    }


def test_live_and_retired_totals_combine():
    engine = DacceEngine(root=A)
    _spawn_recurse_exit(engine, thread=1, entry=B, callsite=50, depth=2)
    # Thread 0 now produces its own ccStack traffic (recursive root call).
    engine.on_event(CallEvent(thread=0, callsite=70, caller=A, callee=A))
    stats = engine.ccstack_stats()
    assert stats["pushes"] == 3 + 1
    assert stats["pops"] == 2
    # A reading is a copy: the next one sees the live thread's return.
    engine.on_event(ReturnEvent(thread=0))
    assert stats["pops"] == 2
    assert engine.ccstack_stats()["pops"] == 3


def test_exit_with_live_frames_rejected():
    engine = DacceEngine(root=A)
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=B))
    engine.on_event(
        CallEvent(thread=1, callsite=50, caller=B, callee=B)
    )
    with pytest.raises(TraceError):
        engine.on_event(ThreadExitEvent(thread=1))


# ----------------------------------------------------------------------
# one counter set under every driver
# ----------------------------------------------------------------------
def _calls(thread, callsite, caller, callee, n):
    return [CallEvent(thread, callsite, caller, callee)] * n


def _returns(thread, n):
    return [ReturnEvent(thread)] * n


#: Before the pass: thread 0 discovers A->C and C->C and returns; thread
#: 1 recurses 5 deep and exits; thread 2 recurses 2 deep and stays.
BEFORE_PASS = (
    _calls(0, 60, A, C, 1) + _calls(0, 61, C, C, 1) + _returns(0, 2)
    + [ThreadStartEvent(1, 0, B)] + _calls(1, 50, B, B, 5) + _returns(1, 5)
    + [ThreadExitEvent(1), ThreadStartEvent(2, 0, D)] + _calls(2, 70, D, D, 2)
)
#: After it: thread 0 recurses 4 deep over encoded and back edges;
#: thread 2's call of E fails mid-apply and resyncs the thread; both
#: unwind and thread 2 exits.
AFTER_PASS = (
    _calls(0, 60, A, C, 1) + _calls(0, 61, C, C, 4)
    + _calls(2, 71, D, E, 1)
    + _returns(0, 5) + _returns(2, 2) + [ThreadExitEvent(2)]
)


def _run(columnar):
    config = DacceConfig(
        compression=CompressionMode.ALWAYS, fault_policy=FaultPolicy.RECOVER
    )
    engine = DacceEngine(root=A, config=config)
    push = engine._push_unencoded

    def failing(state, event, edge):
        # Fails after the push, which therefore counts.
        action = push(state, event, edge)
        if event.callee == E:
            raise TraceError("injected fault calling E")
        return action

    engine._push_unencoded = failing

    def feed(events):
        if columnar:
            engine.process_columns(
                EventColumns.from_compact([compact(e) for e in events])
            )
        else:
            engine.run(events)

    feed(BEFORE_PASS)
    before = engine.ccstack_stats()
    assert engine.reencode()
    # The pass replays thread 2's clone entry, push and compression.
    assert engine.ccstack_stats() == before
    feed(AFTER_PASS)
    return engine, before


@pytest.mark.parametrize("columnar", [False, True], ids=["general", "kernel"])
def test_one_counter_set_over_exits_resyncs_and_passes(columnar):
    engine, before = _run(columnar)
    # Thread 0: a discovery push for A->C and a back-edge push for C->C.
    # Thread 1: its clone entry, one push and four compressions (depth
    # 6), all unwound.  Thread 2: its clone entry, a push and a
    # compression.  A compression needs the top entry to hold the id
    # the previous push set (maxID + 1).
    assert before == {
        "pushes": 2 + 2 + 2,
        "pops": 2 + 1,
        "compressions": 4 + 1,
        "decompressions": 4,
        "max_depth": 6,
    }
    # Thread 0 encodes A->C now, so C->C pushes twice (the first entry
    # holds A->C's id, not maxID + 1) and compresses twice.  Thread 2's
    # discovery push of D->E counts, then the resync replays its stack
    # without counting.  Each thread unwinds its compressed repetitions
    # first.  The exited thread 1 stays the deepest.
    assert engine.ccstack_stats() == {
        "pushes": 6 + 2 + 1,
        "pops": 3 + 2 + 1,
        "compressions": 5 + 2,
        "decompressions": 4 + 2 + 1,
        "max_depth": 6,
    }
    [fault] = engine.faults.records()
    assert (fault.kind, fault.recovery) == (
        FaultKind.TRACE_ERROR,
        RecoveryAction.RESYNCED,
    )
    assert engine.live_threads() == [0]
    if columnar:
        # The kernel pushed, compressed and popped thread 0's recursion
        # after the pass, and unwound thread 2's replayed stack.
        assert engine.fastpath.hits >= 4 + 5 + 2


def test_kernel_and_general_path_count_alike():
    general, _ = _run(columnar=False)
    kernel, _ = _run(columnar=True)
    assert kernel.ccstack_stats() == general.ccstack_stats()
    assert kernel.stats == general.stats
