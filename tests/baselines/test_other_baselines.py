"""Stack-walking, CCT and PCC baseline tests."""

import pytest

from repro.baselines.cct import CctEngine
from repro.baselines.pcc import PccEngine
from repro.baselines.stackwalk import StackWalkEngine
from repro.core.events import (
    CallEvent,
    CallKind,
    ReturnEvent,
    SampleEvent,
    ThreadExitEvent,
    ThreadStartEvent,
)
from repro.program.trace import TraceExecutor, WorkloadSpec


def drive(engine, events):
    for event in events:
        engine.on_event(event)
    return engine


def simple_events():
    return [
        CallEvent(thread=0, callsite=1, caller=0, callee=1),
        CallEvent(thread=0, callsite=2, caller=1, callee=2),
        SampleEvent(thread=0),
        ReturnEvent(thread=0),
        CallEvent(thread=0, callsite=3, caller=1, callee=3),
        SampleEvent(thread=0),
        ReturnEvent(thread=0),
        ReturnEvent(thread=0),
    ]


class TestStackWalk:
    def test_contexts_recorded_at_samples(self):
        engine = drive(StackWalkEngine(root=0), simple_events())
        assert len(engine.contexts) == 2
        assert engine.contexts[0].functions() == (0, 1, 2)
        assert engine.contexts[1].functions() == (0, 1, 3)

    def test_walk_cost_proportional_to_depth(self):
        engine = drive(StackWalkEngine(root=0), simple_events())
        assert engine.stats.walked_frames == 3 + 3

    def test_walk_every_call_mode_charges_more(self):
        light = drive(StackWalkEngine(root=0), simple_events())
        heavy = drive(
            StackWalkEngine(root=0, walk_every_call=True), simple_events()
        )
        assert (
            heavy.cost.report.charges["stackwalk"]
            > light.cost.report.charges["stackwalk"]
        )

    def test_tail_call_replaces_frame(self):
        events = [
            CallEvent(thread=0, callsite=1, caller=0, callee=1),
            CallEvent(thread=0, callsite=2, caller=1, callee=2,
                      kind=CallKind.TAIL),
        ]
        engine = drive(StackWalkEngine(root=0), events)
        assert engine.current_context().functions() == (0, 2)

    def test_threads_tracked(self):
        events = [
            ThreadStartEvent(thread=1, parent=0, entry=5),
            CallEvent(thread=1, callsite=9, caller=5, callee=6),
            SampleEvent(thread=1),
            ReturnEvent(thread=1),
            ThreadExitEvent(thread=1),
        ]
        engine = drive(StackWalkEngine(root=0), events)
        assert engine.contexts[0].functions() == (5, 6)


class TestCct:
    def test_tree_builds_and_positions_track(self):
        engine = drive(CctEngine(root=0), simple_events())
        assert engine.num_nodes == 4  # root, 1, 2, 3
        assert len(engine.sampled_nodes) == 2
        first = engine.context_of(engine.sampled_nodes[0])
        assert first.functions() == (0, 1, 2)

    def test_repeated_paths_reuse_nodes(self):
        events = simple_events() + simple_events()
        engine = drive(CctEngine(root=0), events)
        assert engine.num_nodes == 4
        assert engine.stats.lookups == 6

    def test_tail_call_hangs_child_under_logical_parent(self):
        events = [
            CallEvent(thread=0, callsite=1, caller=0, callee=1),
            CallEvent(thread=0, callsite=2, caller=1, callee=2,
                      kind=CallKind.TAIL),
            SampleEvent(thread=0),
            ReturnEvent(thread=0),  # unwinds the whole chain
        ]
        engine = drive(CctEngine(root=0), events)
        sampled = engine.context_of(engine.sampled_nodes[0])
        assert sampled.functions() == (0, 1, 2)
        assert engine.current_context().functions() == (0,)

    def test_every_call_pays_a_lookup(self, small_program):
        spec = WorkloadSpec(calls=1000, seed=1)
        engine = CctEngine(root=small_program.main)
        engine.run(TraceExecutor(small_program, spec).events())
        assert engine.stats.lookups == 1000
        assert "cct" in engine.cost.report.charges


class TestPcc:
    def test_values_restore_on_return(self):
        engine = drive(PccEngine(root=0), simple_events())
        assert engine._values[0] == 0  # fully unwound

    def test_sampled_values_probabilistically_distinct(self, small_program):
        spec = WorkloadSpec(calls=5000, seed=2, sample_period=17)
        engine = PccEngine(root=small_program.main)
        engine.run(TraceExecutor(small_program, spec).events())
        stats = engine.finalize_stats()
        assert stats.samples > 100
        # PCC is probabilistic: collisions happen (that is the paper's
        # criticism of it), but most contexts get distinct values.
        assert stats.distinct_values >= stats.distinct_contexts * 0.9
        assert stats.collisions < stats.distinct_contexts * 0.1

    def test_same_context_same_value(self):
        events = simple_events() + simple_events()
        engine = drive(PccEngine(root=0), events)
        assert engine.sampled_values[0] == engine.sampled_values[2]
        assert engine.sampled_values[1] == engine.sampled_values[3]

    def test_different_contexts_different_values(self):
        engine = drive(PccEngine(root=0), simple_events())
        assert engine.sampled_values[0] != engine.sampled_values[1]

    def test_tail_call_keeps_chain_restore_value(self):
        events = [
            CallEvent(thread=0, callsite=1, caller=0, callee=1),
            CallEvent(thread=0, callsite=2, caller=1, callee=2,
                      kind=CallKind.TAIL),
            ReturnEvent(thread=0),
        ]
        engine = drive(PccEngine(root=0), events)
        assert engine._values[0] == 0
        assert engine.current_context().functions() == (0,)


@pytest.mark.parametrize("engine_class", [StackWalkEngine, CctEngine, PccEngine])
def test_every_call_of_a_generated_stream_is_counted(engine_class, small_program):
    spec = WorkloadSpec(calls=3000, seed=2, sample_period=97,
                        recursion_affinity=0.4)
    engine = engine_class(root=small_program.main)
    engine.run(TraceExecutor(small_program, spec).events())
    assert engine.stats.calls == 3000
