"""Tests for the downstream tools (event log, coverage, race logger)."""

import pytest

from repro.core.engine import DacceConfig, DacceEngine
from repro.core.events import (
    CallEvent,
    ThreadStartEvent,
)
from repro.core.faults import FaultPolicy
from repro.tools import ContextCoverage, ContextEventLog, RaceLogger
from tests.conftest import A, B, C, D


@pytest.fixture
def recover_engine():
    """An engine that quarantines a sample on an unknown thread."""
    engine = DacceEngine(
        root=A, config=DacceConfig(fault_policy=FaultPolicy.RECOVER)
    )
    engine.on_event(CallEvent(thread=0, callsite=1, caller=A, callee=B))
    return engine


@pytest.fixture
def busy_driver(driver):
    driver.call(B, callsite=1)
    driver.call(C, callsite=2)
    return driver


class TestEventLog:
    def test_first_occurrence_retained(self, busy_driver):
        log = ContextEventLog(busy_driver.engine)
        record = log.record("alloc")
        assert record is not None
        assert len(log) == 1
        assert log.stats.observed == 1
        assert log.stats.reduction == 0.0

    def test_redundant_events_suppressed(self, busy_driver):
        log = ContextEventLog(busy_driver.engine)
        first = log.record("alloc")
        for _ in range(9):
            assert log.record("alloc") is None
        assert len(log) == 1
        assert log.stats.observed == 10
        assert log.stats.suppressed == 9
        assert log.stats.reduction == pytest.approx(0.9)
        assert log.occurrences(first) == 10

    def test_different_kinds_are_distinct(self, busy_driver):
        log = ContextEventLog(busy_driver.engine)
        assert log.record("alloc") is not None
        assert log.record("free") is not None
        assert len(log.by_kind("alloc")) == 1
        assert len(log.by_kind("free")) == 1

    def test_different_contexts_are_distinct(self, driver):
        log = ContextEventLog(driver.engine)
        driver.call(B, callsite=1)
        assert log.record("alloc") is not None
        driver.call(C, callsite=2)
        assert log.record("alloc") is not None
        assert len(log) == 2

    def test_decode_retained_record(self, busy_driver):
        log = ContextEventLog(busy_driver.engine)
        record = log.record("alloc")
        context = log.decode(record)
        assert [s.function for s in context.steps] == [A, B, C]

    def test_records_survive_reencoding(self, driver):
        log = ContextEventLog(driver.engine)
        driver.call(B, callsite=1)
        record = log.record("alloc")
        driver.ret()
        driver.engine.reencode()
        driver.call(C, callsite=5)
        log.record("alloc")
        assert [s.function for s in log.decode(record).steps] == [A, B]

    def test_quarantined_sample_observed_not_retained(self, recover_engine):
        log = ContextEventLog(recover_engine)
        assert log.record("alloc", thread=9) is None
        assert len(log) == 0
        assert log.stats.observed == 1
        assert log.stats.retained == 0
        assert log.record("alloc") is not None


class TestCoverage:
    def test_new_contexts_counted_once(self, busy_driver):
        coverage = ContextCoverage(busy_driver.engine)
        assert coverage.touch() is True
        assert coverage.touch() is False
        assert coverage.distinct_contexts == 1

    def test_per_function_counts(self, driver):
        coverage = ContextCoverage(driver.engine)
        driver.call(B, callsite=1)
        driver.call(C, callsite=2)
        coverage.touch()
        driver.ret()
        driver.ret()
        driver.call(D, callsite=3)
        driver.call(C, callsite=4)
        coverage.touch()
        report = coverage.report()
        assert report.contexts == 2
        assert report.contexts_of(C) == 2
        assert report.hotspots(1)[0][0] == C

    def test_diff_between_runs(self, driver):
        baseline = ContextCoverage(driver.engine)
        driver.call(B, callsite=1)
        baseline.touch()
        fresh = ContextCoverage(driver.engine)
        fresh.touch()  # same context as the baseline saw
        driver.call(C, callsite=2)
        fresh.touch()  # new context
        assert fresh.new_versus(baseline) == 1

    def test_quarantined_sample_covers_nothing(self, recover_engine):
        coverage = ContextCoverage(recover_engine)
        assert coverage.touch(thread=9) is False
        assert coverage.distinct_contexts == 0
        assert coverage.touch() is True


class TestRaceLogger:
    def _threaded_engine(self):
        engine = DacceEngine(root=A)
        engine.on_event(CallEvent(thread=0, callsite=1, caller=A, callee=B))
        engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=C))
        engine.on_event(CallEvent(thread=1, callsite=9, caller=C, callee=D))
        return engine

    def test_conflicts_require_two_threads_and_a_write(self):
        engine = self._threaded_engine()
        logger = RaceLogger(engine)
        logger.access("x", thread=0, is_write=True)
        logger.access("x", thread=0, is_write=True)  # same thread: no
        assert logger.conflict_count == 0
        logger.access("x", thread=1, is_write=False)  # cross-thread: yes
        assert logger.conflict_count == 1
        logger.access("y", thread=0, is_write=False)
        logger.access("y", thread=1, is_write=False)  # read/read: no
        assert logger.conflict_count == 1

    def test_reports_decode_both_sides(self):
        engine = self._threaded_engine()
        logger = RaceLogger(engine)
        logger.access("x", thread=0, is_write=True)
        logger.access("x", thread=1, is_write=True)
        report = logger.reports()[0]
        assert report.location == "x"
        assert [s.function for s in report.first_context.steps] == [A, B]
        # The second side stitches the spawning context in.
        assert [s.function for s in report.second_context.steps] == [A, B, C, D]

    def test_quarantined_access_not_logged(self, recover_engine):
        logger = RaceLogger(recover_engine)
        logger.access("x", thread=0, is_write=True)
        logger.access("x", thread=9, is_write=True)
        assert len(logger.accesses) == 1
        assert logger.conflict_count == 0

    def test_decode_fraction_small_for_clean_runs(self):
        engine = self._threaded_engine()
        logger = RaceLogger(engine)
        for n in range(100):
            logger.access(("loc", n), thread=0)
        assert logger.conflict_count == 0
        assert logger.decode_fraction == 0.0
