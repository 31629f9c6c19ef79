"""Triggered re-encoding passes that would change nothing commit nothing.

Recursion keeps trigger (c) ("the ccStack is frequently accessed")
firing, but back-edge traffic cannot be encoded away: over a graph that
stopped growing, each such pass reproduces the current dictionary.  A
no-op pass bumps no gTimeStamp, adds no dictionary, regenerates no
thread, stays out of ``reencode_log``, calls no listener and keeps the
fast-path table; the policy then ignores ``ccstack-traffic``-only
decisions for 1, 2, 4, ... windows.
"""

import pytest

from repro.core.adaptive import (
    NOOP_BACKOFF_CAP,
    AdaptiveConfig,
    AdaptivePolicy,
    WindowStats,
)
from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.obs import SpanRecorder, Telemetry


def recursion_columns(rounds=200, depth=5):
    """root -> f, then ``rounds`` descents of ``depth`` self-recursive calls."""
    cols = EventColumns()
    cols.push_call(0, 1, 0, 1)
    for _ in range(rounds):
        for _ in range(depth):
            cols.push_call(0, 2, 1, 1)
        for _ in range(depth):
            cols.push_return(0)
    cols.push_return(0)
    return cols


def recursive_engine(**kwargs):
    config = DacceConfig(adaptive=AdaptiveConfig(check_interval=16))
    return DacceEngine(root=0, config=config, **kwargs)


@pytest.fixture
def recursed():
    telemetry = Telemetry()
    spans = SpanRecorder("noop-test")
    engine = recursive_engine(telemetry=telemetry, spans=spans)
    listened = []
    engine.reencode_listeners.append(listened.append)
    engine.process_columns(recursion_columns())
    return engine, telemetry, spans, listened


class TestNoopPass:
    def test_commits_nothing(self, recursed):
        engine, _telemetry, _spans, listened = recursed
        # The pass over the discovered graph commits, the next one
        # gives the repetitive back edge its compressing instrumentation;
        # every later ccstack-traffic pass finds nothing to change.
        assert engine.stats.reencodings == 2
        assert engine.policy.compressed_edges == {(2, 1)}
        assert engine.stats.reencode_noops >= 3
        assert engine.timestamp == 2
        assert engine.dictionaries.timestamps() == [0, 1, 2]
        assert [r.timestamp for r in engine.reencode_log] == [1, 2]
        assert listened == engine.reencode_log
        # One table per dictionary — no-ops keep the table.
        assert engine.fastpath.compiles == 3
        assert engine.fastpath.hit_rate > 0.95

    def test_reported_with_outcome(self, recursed):
        engine, telemetry, spans, _listened = recursed
        reports = list(engine.reencode_passes)
        outcomes = [report.outcome for report in reports]
        assert outcomes[:2] == ["committed", "committed"]
        assert outcomes.count("no-op") == engine.stats.reencode_noops
        for report in reports[2:]:
            assert report.outcome == "no-op"
            assert report.reasons == ("ccstack-traffic",)
            assert report.timestamp == 2
            assert report.threads_regenerated == 0
            assert report.to_dict()["outcome"] == "no-op"
        passes = spans.spans(name="engine.reencode")
        assert [r["attrs"]["outcome"] for r in passes] == outcomes
        snapshot = telemetry.snapshot()
        runtime = {
            series["labels"]["stat"]: series["value"]
            for series in snapshot["dacce_runtime_total"]["series"]
        }
        assert runtime["reencode_noops"] == engine.stats.reencode_noops

    def test_explicit_reencode_always_commits(self, recursed):
        engine, _telemetry, _spans, listened = recursed
        before = engine.current_dictionary
        assert engine.reencode() is True
        assert engine.timestamp == 3
        assert engine.current_dictionary is not before
        assert engine.current_dictionary.same_encoding(before)
        assert len(listened) == 3

    def test_backoff_bounds_noop_passes(self):
        engine = recursive_engine()
        engine.process_columns(recursion_columns(rounds=2_000))
        # ~625 windows of pure recursion: without backoff every one of
        # them would run a pass.
        windows = engine.stats.calls // 16
        assert windows > 600
        assert engine.stats.reencodings == 2
        assert engine.stats.reencode_noops <= 12

    def test_new_edge_commits_after_noops(self):
        engine = recursive_engine()
        engine.process_columns(recursion_columns())
        assert engine.stats.reencode_noops >= 1
        cols = EventColumns()
        cols.push_call(0, 3, 0, 2)  # a new edge root -> g
        cols.push_return(0)
        engine.process_columns(cols)
        engine.process_columns(recursion_columns(rounds=20))
        assert engine.stats.reencodings == 3
        assert engine.current_dictionary.encoding(3, 2) is not None


class TestBackoffPolicy:
    TRAFFIC = WindowStats(calls=100, ccstack_ops=100)

    def ignored_runs(self, policy, noops):
        runs = []
        for _ in range(noops):
            policy.note_noop()
            ignored = 0
            while not policy.evaluate(self.TRAFFIC, 0).reencode:
                ignored += 1
            runs.append(ignored)
        return runs

    def test_doubles_up_to_the_cap(self):
        runs = self.ignored_runs(AdaptivePolicy(), 10)
        assert runs == [1, 2, 4, 8, 16, 32, 64, 128, 128, 128]
        assert NOOP_BACKOFF_CAP == 128

    def test_commit_resets(self):
        policy = AdaptivePolicy()
        self.ignored_runs(policy, 3)
        policy.note_noop()
        policy.note_commit()
        assert policy.evaluate(self.TRAFFIC, 0).reencode
        assert self.ignored_runs(policy, 1) == [1]

    def test_new_edges_reset(self):
        policy = AdaptivePolicy()
        policy.note_noop()
        policy.note_noop()
        decision = policy.evaluate(self.TRAFFIC, 1)
        assert decision.reasons == ["ccstack-traffic"]
        assert policy.evaluate(self.TRAFFIC, 0).reencode

    def test_other_triggers_always_fire(self):
        policy = AdaptivePolicy()
        policy.note_noop()
        policy.note_noop()
        decision = policy.evaluate(
            WindowStats(calls=100, unencoded_calls=50, ccstack_ops=100), 0
        )
        assert decision.reasons == ["hot-paths-changed", "ccstack-traffic"]

    def test_ignored_decision_is_not_counted_as_fired(self):
        policy = AdaptivePolicy()
        policy.note_noop()
        assert not policy.evaluate(self.TRAFFIC, 0).reencode
        assert (policy.evaluations, policy.fired) == (1, 0)
