"""ccStack tests: push/pop, recursion compression, snapshots, stats."""

import sys

import pytest

from repro.core.ccstack import CLONE_CALLSITE, CcStack
from repro.core.errors import TraceError


def test_push_pop_roundtrip():
    stack = CcStack()
    stack.push(7, 10, 2)
    assert len(stack) == 1
    assert stack.depth() == 1
    assert stack.pop() == 7
    assert len(stack) == 0


def test_pop_empty_raises():
    with pytest.raises(TraceError):
        CcStack().pop()


def test_top_returns_frozen_entry():
    stack = CcStack()
    stack.push(3, 11, 5)
    top = stack.top()
    assert (top.id, top.callsite, top.target, top.count) == (3, 11, 5, 0)
    assert CcStack().top() is None


def test_compression_merges_identical_pushes():
    stack = CcStack()
    assert not stack.push(4, 10, 2, allow_compress=True)
    assert stack.push(4, 10, 2, allow_compress=True)  # compressed
    assert len(stack) == 1
    assert stack.top().count == 1
    assert stack.depth() == 2


def test_entries_lists_every_field_bottom_to_top():
    stack = CcStack()
    stack.push(4, 10, 2, allow_compress=True)
    stack.push(4, 10, 2, allow_compress=True)
    stack.push(9, 12, 3, discovery=True)
    assert stack.entries() == [(4, 10, 2, 1, False), (9, 12, 3, 0, True)]
    assert CcStack().entries() == []


def test_kernel_fold_takes_back_the_kernel_locals():
    stack = CcStack(capacity=8)
    stack.push(4, 10, 2)
    entries, depth, max_depth, limit = stack.kernel_view()
    assert (depth, max_depth, limit) == (1, 1, 8)
    entries.append([5, 11, 3, 0, False])  # the kernel pushes in place
    stack.kernel_fold(2, 2, 1, 0, 0, 0)
    assert stack.entries()[-1] == (5, 11, 3, 0, False)
    assert stack.depth() == 2
    assert (stack.stats.pushes, stack.stats.max_depth) == (2, 2)
    assert CcStack().kernel_view()[3] == sys.maxsize


def test_compression_requires_exact_match():
    stack = CcStack()
    stack.push(4, 10, 2, allow_compress=True)
    assert not stack.push(5, 10, 2, allow_compress=True)  # id differs
    assert not stack.push(5, 11, 2, allow_compress=True)  # callsite differs
    assert len(stack) == 3


def test_pop_unwinds_compression_first():
    """Figure 5(e): the compressed branch restores id and decrements."""
    stack = CcStack()
    stack.push(4, 10, 2, allow_compress=True)
    stack.push(4, 10, 2, allow_compress=True)  # count -> 1
    assert stack.pop() == 4  # decompression: count -> 0, entry stays
    assert len(stack) == 1
    assert stack.top().count == 0
    assert stack.pop() == 4  # physical pop
    assert len(stack) == 0


def test_stats_track_all_operation_kinds():
    stack = CcStack()
    stack.push(1, 10, 2, allow_compress=True)
    stack.push(1, 10, 2, allow_compress=True)
    stack.pop()
    stack.pop()
    stats = stack.stats
    assert stats.pushes == 1
    assert stats.compressions == 1
    assert stats.decompressions == 1
    assert stats.pops == 1
    assert stats.operations == 4
    assert stats.max_depth == 2


def test_snapshot_is_frozen_and_ordered():
    stack = CcStack()
    stack.push(1, 10, 2)
    stack.push(9, 11, 3)
    snap = stack.snapshot()
    assert [entry.id for entry in snap] == [1, 9]
    stack.pop()
    assert len(snap) == 2  # unaffected by later mutation


def test_saved_state_restore_truncates():
    stack = CcStack()
    stack.push(1, 10, 2)
    state = stack.saved_state()
    stack.push(2, 11, 3)
    stack.push(3, 12, 4)
    stack.restore(state)
    assert len(stack) == 1
    assert stack.top().id == 1


def test_saved_state_restores_top_count():
    stack = CcStack()
    stack.push(1, 10, 2, allow_compress=True)
    state = stack.saved_state()
    stack.push(1, 10, 2, allow_compress=True)  # compress: count -> 1
    stack.restore(state)
    assert stack.top().count == 0


def test_restore_deeper_state_rejected():
    stack = CcStack()
    stack.push(1, 10, 2)
    state = stack.saved_state()
    stack.pop()
    with pytest.raises(TraceError):
        stack.restore(state)


def test_replace_content():
    from repro.core.context import CcStackEntry

    stack = CcStack()
    stack.replace([CcStackEntry(5, 10, 2, 1)])
    assert stack.depth() == 2
    assert stack.top().count == 1


def test_clone_callsite_is_reserved():
    assert CLONE_CALLSITE < 0
