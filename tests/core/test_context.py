"""Context value-object and event-model tests."""

import pytest

from repro.core.ccstack import CcStack
from repro.core.context import (
    CallingContext,
    CcStackEntry,
    CollectedSample,
    ContextStep,
)
from repro.core.errors import TraceError
from repro.core.events import (
    CallEvent,
    CallKind,
    ReturnEvent,
    ThreadStartEvent,
)


class TestContextStep:
    def test_defaults(self):
        step = ContextStep(5)
        assert step.callsite is None
        assert step.count == 0

    def test_frozen(self):
        step = ContextStep(5, 1)
        with pytest.raises(Exception):
            step.function = 9


class TestCallingContext:
    def context(self):
        return CallingContext(
            (ContextStep(0), ContextStep(1, 10), ContextStep(2, 11, count=2))
        )

    def test_functions_expand_counts(self):
        assert self.context().functions() == (0, 1, 2, 2, 2)

    def test_depth_counts_repetitions(self):
        assert self.context().depth() == 5
        assert len(self.context()) == 3

    def test_iteration(self):
        assert [s.function for s in self.context()] == [0, 1, 2]

    def test_from_functions(self):
        context = CallingContext.from_functions([3, 4, 5])
        assert context.functions() == (3, 4, 5)
        assert all(s.callsite is None for s in context.steps)

    def test_equality(self):
        a = CallingContext((ContextStep(0), ContextStep(1, 10)))
        b = CallingContext((ContextStep(0), ContextStep(1, 10)))
        assert a == b


class TestCollectedSample:
    def test_ccstack_depth_includes_counts(self):
        sample = CollectedSample(
            timestamp=0,
            context_id=5,
            function=1,
            ccstack=(CcStackEntry(0, 1, 2), CcStackEntry(3, 4, 5, count=3)),
        )
        assert sample.ccstack_depth() == 5

    def test_defaults(self):
        sample = CollectedSample(timestamp=1, context_id=2, function=3)
        assert sample.ccstack == ()
        assert sample.thread == 0

    def test_hashable_and_frozen(self):
        sample = CollectedSample(timestamp=1, context_id=2, function=3)
        assert hash(sample)
        with pytest.raises(Exception):
            sample.context_id = 9


class TestEvents:
    def test_call_event_defaults_to_normal(self):
        event = CallEvent(thread=0, callsite=1, caller=0, callee=1)
        assert event.kind is CallKind.NORMAL

    def test_events_are_frozen(self):
        event = ReturnEvent(thread=0)
        with pytest.raises(Exception):
            event.thread = 5

    def test_kinds_enumerated(self):
        assert {k.value for k in CallKind} == {
            "normal", "indirect", "tail", "plt"
        }

    def test_thread_start_carries_entry(self):
        event = ThreadStartEvent(thread=2, parent=0, entry=7)
        assert (event.thread, event.parent, event.entry) == (2, 0, 7)


class TestCcStackCapacity:
    def test_overflow_guard_trips(self):
        stack = CcStack(capacity=2)
        stack.push(0, 1, 2)
        stack.push(0, 2, 3)
        with pytest.raises(TraceError):
            stack.push(0, 3, 4)

    def test_compression_defeats_overflow(self):
        """Figure 5(e)'s point: repetitive recursion no longer grows."""
        stack = CcStack(capacity=2)
        for _ in range(100):
            stack.push(7, 1, 2, allow_compress=True)
        assert len(stack) == 1
        assert stack.depth() == 100

    def test_unbounded_by_default(self):
        stack = CcStack()
        for n in range(1000):
            stack.push(n, n, n)
        assert len(stack) == 1000
