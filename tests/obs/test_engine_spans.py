"""Engine-side spans: reencode passes and kernel compiles."""

import pytest

from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.core.errors import ReencodeError
from repro.core.events import CallEvent, ReturnEvent
from repro.core.faults import FaultPolicy
from repro.obs import NULL_SPANS, SpanRecorder, Telemetry
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import TraceExecutor, WorkloadSpec


def make_engine(**kwargs):
    spans = SpanRecorder("engine-test")
    return DacceEngine(spans=spans, **kwargs), spans


def discovery_batch(calls=20):
    """Cold-start columns: every call opens a new edge, so the compiled
    kernel hands every call to the general path."""
    cols = EventColumns()
    for index in range(calls):
        cols.push_call(0, 100 + index, 0, 10 + index)
        cols.push_return(0)
    return cols


class TestReencodeSpans:
    def test_manual_reencode_records_span(self):
        engine, spans = make_engine()
        engine.reencode()
        (record,) = spans.spans(name="engine.reencode")
        assert record["stage"] == "engine"
        assert record["svc"] == "engine-test"
        assert record["attrs"]["reasons"] == "manual"
        assert record["attrs"]["gts"] == engine.timestamp
        assert record["attrs"]["max_id"] == engine.max_id
        assert record["dur"] >= 0.0

    def test_span_identity_linked_into_pass_report(self):
        telemetry = Telemetry()
        engine = DacceEngine(
            telemetry=telemetry, spans=SpanRecorder("engine-test")
        )
        engine.reencode()
        (record,) = engine.spans.spans(name="engine.reencode")
        report = telemetry.pass_reports.last()
        assert report.span == {
            "trace": record["trace"],
            "span": record["span"],
        }
        assert report.to_dict()["span"] == report.span

    def test_untraced_report_omits_span_key(self):
        telemetry = Telemetry()
        engine = DacceEngine(telemetry=telemetry)
        engine.reencode()
        report = telemetry.pass_reports.last()
        assert report.span is None
        assert "span" not in report.to_dict()

    def test_rollback_span_records_error(self):
        engine, spans = make_engine()
        engine._commit_gate = lambda dictionary: ["injected violation"]
        with pytest.raises(ReencodeError):
            engine.reencode()
        (record,) = spans.spans(name="engine.reencode")
        assert record["attrs"]["error"] == "ReencodeError"
        assert record["attrs"]["rolled_back"] is True
        # The span closed despite the raise: nothing left open.
        assert spans.current() is None

    def test_recover_policy_rollback_span(self):
        engine, spans = make_engine(
            config=DacceConfig(fault_policy=FaultPolicy.RECOVER)
        )
        engine._commit_gate = lambda dictionary: ["injected violation"]
        assert engine.reencode() is False
        (record,) = spans.spans(name="engine.reencode")
        assert record["attrs"]["rolled_back"] is True

    def test_adaptive_passes_each_record_one_span(self):
        program = generate_program(
            GeneratorConfig(seed=13, recursive_sites=3, indirect_fraction=0.1)
        )
        spans = SpanRecorder("engine-test")
        engine = DacceEngine(root=program.main, spans=spans)
        spec = WorkloadSpec(calls=6_000, seed=9, recursion_affinity=0.4)
        for event in TraceExecutor(program, spec).events():
            engine.on_event(event)
        passes = spans.spans(name="engine.reencode")
        assert len(passes) == (
            engine.stats.reencodings + engine.stats.reencode_noops
        )
        assert engine.stats.reencodings > 0
        assert all("rolled_back" not in r.get("attrs", {}) for r in passes)
        outcomes = [r["attrs"]["outcome"] for r in passes]
        assert outcomes.count("committed") == engine.stats.reencodings
        assert outcomes.count("no-op") == engine.stats.reencode_noops


@pytest.fixture
def empty_kernel_cache(monkeypatch):
    """A process-wide kernel cache with nothing generated yet."""
    import repro.core.fastpath as fastpath

    monkeypatch.setattr(fastpath, "_KERNELS", {})


class TestColumnarSpans:
    def test_kernel_compile_span(self, empty_kernel_cache):
        engine, spans = make_engine()
        engine.process_columns(discovery_batch())
        (record,) = spans.spans(name="engine.kernel_compile")
        assert record["stage"] == "engine"
        assert record["attrs"]["interval"] == 512
        assert record["attrs"]["profiled"] is False

    def test_kernel_compile_span_closes_when_codegen_raises(
        self, monkeypatch, empty_kernel_cache
    ):
        import repro.core.engine as engine_module

        def broken(*args, **kwargs):
            raise RuntimeError("codegen failed")

        engine, spans = make_engine()
        monkeypatch.setattr(engine_module, "compile_columnar_kernel", broken)
        with pytest.raises(RuntimeError):
            engine.process_columns(discovery_batch())
        (record,) = spans.spans(name="engine.kernel_compile")
        assert record["attrs"]["error"] == "RuntimeError"
        # Nothing left open to parent later engine spans.
        assert spans.current() is None

    def test_traced_and_untraced_columnar_states_agree(self):
        traced, _ = make_engine()
        plain = DacceEngine()
        traced.process_columns(discovery_batch())
        plain.process_columns(discovery_batch())
        assert traced.stats.calls == plain.stats.calls
        assert traced.stats.returns == plain.stats.returns
        assert traced.timestamp == plain.timestamp
        assert traced.max_id == plain.max_id


class TestUntracedEngine:
    def test_untraced_engine_shares_null_recorder(self):
        engine = DacceEngine()
        assert engine.spans is NULL_SPANS
        engine.process_columns(discovery_batch())
        engine.on_event(CallEvent(thread=0, callsite=1, caller=0, callee=50))
        engine.on_event(ReturnEvent(thread=0))
        engine.reencode()
        assert len(NULL_SPANS) == 0
        assert NULL_SPANS.spans() == []
