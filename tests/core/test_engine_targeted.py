"""Engine targeted mode: boundary discipline, decode parity, id space."""

import pytest

from repro.analysis.validate import validate_run
from repro.core.ccstack import UNTRACKED_CALLSITE, UNTRACKED_FUNCTION
from repro.core.engine import DacceEngine
from repro.core.events import (
    CallEvent,
    ReturnEvent,
    SampleEvent,
    ThreadStartEvent,
)
from repro.core.serialize import (
    decoder_from_dict,
    decoding_state_to_dict,
)
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import (
    ThreadSpec,
    WorkloadSpec,
    run_workload,
    run_workload_columnar,
)
from repro.static import extract_program
from repro.static.graph import StaticCallGraph, StaticEdge, StaticFunction
from repro.static.targeted import build_targeted


def _plan():
    """main(0) -> a(1) -> sink(2); noise(3), noise2(4) untracked.

    Statically, noise never reaches the sink, so it stays outside the
    plan.  The runtime re-entry events below (noise -> a) model a call
    the extractor missed — the interesting boundary case.
    """
    graph = StaticCallGraph(root=0)
    for fid, name in enumerate(["main", "a", "sink", "noise", "noise2"]):
        graph.add_function(StaticFunction(id=fid, qualname=name, module="m"))
    graph.add_edge(StaticEdge(caller=0, callee=1, callsite=1))
    graph.add_edge(StaticEdge(caller=1, callee=2, callsite=2))
    graph.add_edge(StaticEdge(caller=0, callee=3, callsite=3))
    graph.add_edge(StaticEdge(caller=3, callee=4, callsite=4))
    return build_targeted(graph, ["sink"])


def _decode_path(engine, sample):
    decoder = engine.decoder()
    return [step.function for step in decoder.decode(sample).steps]


def test_rejects_conflicting_construction():
    plan = _plan()
    with pytest.raises(Exception):
        DacceEngine(targeted=plan, warm_start=plan.warm_start)


def test_departure_pushes_one_untracked_frame():
    engine = DacceEngine(targeted=_plan())
    engine.on_event(CallEvent(thread=0, callsite=3, caller=0, callee=3))
    engine.on_event(CallEvent(thread=0, callsite=4, caller=3, callee=4))
    sample = engine.on_sample(SampleEvent(thread=0))
    assert sample.function == UNTRACKED_FUNCTION
    assert _decode_path(engine, sample) == [0, UNTRACKED_FUNCTION]
    assert engine.stats.boundary_crossings == 1
    assert engine.stats.untracked_calls >= 1


def test_reentry_decodes_through_untracked_region():
    engine = DacceEngine(targeted=_plan())
    events = [
        CallEvent(thread=0, callsite=3, caller=0, callee=3),   # departure
        CallEvent(thread=0, callsite=4, caller=3, callee=4),   # interior
        ReturnEvent(thread=0),
        CallEvent(thread=0, callsite=5, caller=3, callee=1),   # re-entry
        CallEvent(thread=0, callsite=2, caller=1, callee=2),
    ]
    for event in events:
        engine.on_event(event)
    sample = engine.on_sample(SampleEvent(thread=0))
    assert sample.function == 2
    assert _decode_path(engine, sample) == [0, UNTRACKED_FUNCTION, 1, 2]
    # Oracle agrees, including the collapsed pseudo-frame.
    expected = [
        step.function for step in engine.expected_context(0).steps
    ]
    assert expected == [0, UNTRACKED_FUNCTION, 1, 2]
    assert engine.stats.boundary_crossings == 2


def test_interior_untracked_calls_never_grow_the_dictionary():
    engine = DacceEngine(targeted=_plan())
    before = engine.max_id
    engine.on_event(CallEvent(thread=0, callsite=3, caller=0, callee=3))
    for _ in range(50):
        engine.on_event(CallEvent(thread=0, callsite=4, caller=3, callee=4))
        engine.on_event(ReturnEvent(thread=0))
    assert engine.max_id == before
    assert engine.stats.untracked_calls >= 50


def test_returns_unwind_boundary_frames():
    engine = DacceEngine(targeted=_plan())
    engine.on_event(CallEvent(thread=0, callsite=3, caller=0, callee=3))
    engine.on_event(CallEvent(thread=0, callsite=5, caller=3, callee=1))
    engine.on_event(ReturnEvent(thread=0))   # back into the region
    engine.on_event(ReturnEvent(thread=0))   # back to main
    engine.on_event(CallEvent(thread=0, callsite=1, caller=0, callee=1))
    sample = engine.on_sample(SampleEvent(thread=0))
    assert _decode_path(engine, sample) == [0, 1]


def test_thread_entry_is_force_tracked():
    engine = DacceEngine(targeted=_plan())
    engine.on_event(ThreadStartEvent(thread=1, parent=0, entry=3))
    engine.on_event(CallEvent(thread=1, callsite=5, caller=3, callee=1))
    engine.on_event(CallEvent(thread=1, callsite=2, caller=1, callee=2))
    sample = engine.on_sample(SampleEvent(thread=1))
    path = _decode_path(engine, sample)
    # The untracked-at-plan-time entry function is tracked for thread 1,
    # so the thread context starts at a real frame, not <untracked>.
    assert path[-3:] == [3, 1, 2]


def _record_plan(calls=8000, seed=1):
    program = generate_program(
        GeneratorConfig(
            seed=seed, recursive_sites=3, indirect_fraction=0.1,
            library_functions=6,
        )
    )
    spec = WorkloadSpec(
        calls=calls,
        seed=seed + 1,
        sample_period=max(10, calls // 200),
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=calls // 10)],
    )
    static = extract_program(program)
    plan = build_targeted(static, ["fn_005", "fn_013", "fn_029"])
    return program, spec, static, plan


def test_validate_run_decode_matches_oracle_in_targeted_mode():
    program, spec, _, plan = _record_plan()
    engine = DacceEngine(targeted=plan)
    result = validate_run(program, spec, engine)
    assert result.ok, (result.mismatches, result.undecodable)
    assert result.samples > 0
    assert engine.stats.boundary_crossings > 0


def test_targeted_id_space_strictly_smaller_than_full():
    program, spec, _, plan = _record_plan()
    full = DacceEngine(root=program.main)
    run_workload(program, spec, full)
    targeted = DacceEngine(targeted=plan)
    run_workload(program, spec, targeted)
    assert targeted.max_id < full.max_id
    assert targeted.max_id == plan.report.proof.max_id


def _collapse(path, tracked):
    out = []
    for function in path:
        if function in tracked:
            out.append(function)
        elif not out or out[-1] != UNTRACKED_FUNCTION:
            out.append(UNTRACKED_FUNCTION)
    return out


def test_differential_full_vs_targeted_sample_decodes():
    """Every sample's targeted decode == the projected full decode."""
    from repro.program.trace import TraceExecutor

    program, spec, _, plan = _record_plan(calls=5000)
    full = DacceEngine(root=program.main)
    targeted = DacceEngine(targeted=plan)
    events = list(TraceExecutor(program, spec).events())
    for event in events:
        full.on_event(event)
        targeted.on_event(event)
    assert len(full.samples) == len(targeted.samples) > 0

    # Thread entries are force-tracked in targeted mode; project with
    # the same extension.
    tracked = set(plan.functions) | {program.main}
    tracked.update(t.entry for t in spec.threads)
    full_decoder = full.decoder()
    targeted_decoder = targeted.decoder()
    for sample_full, sample_targeted in zip(
        full.samples, targeted.samples
    ):
        path_full = [
            step.function
            for step in full_decoder.decode(sample_full).steps
        ]
        path_targeted = [
            step.function
            for step in targeted_decoder.decode(sample_targeted).steps
        ]
        assert path_targeted == _collapse(path_full, tracked)


def test_reencode_mid_flight_keeps_boundary_decodes():
    program, spec, _, plan = _record_plan(calls=4000)
    engine = DacceEngine(targeted=plan)
    run_workload(program, spec, engine)
    before = list(engine.samples)
    engine.reencode()
    run_workload(program, spec, engine)
    decoder = engine.decoder()
    # Samples from before the re-encoding still decode (older epoch),
    # and the collapsed boundary pseudo-frames survive the transition.
    for sample in before:
        path = [step.function for step in decoder.decode(sample).steps]
        assert path  # decodable
    assert engine.stats.reencodings >= 1


def test_batched_processing_matches_per_event():
    program, spec, _, plan = _record_plan(calls=4000)
    per_event = DacceEngine(targeted=plan)
    run_workload(program, spec, per_event)
    batched = DacceEngine(targeted=plan)
    run_workload_columnar(program, spec, batched)
    assert len(per_event.samples) == len(batched.samples)
    decoder_a = per_event.decoder()
    decoder_b = batched.decoder()
    for sample_a, sample_b in zip(per_event.samples, batched.samples):
        path_a = [s.function for s in decoder_a.decode(sample_a).steps]
        path_b = [s.function for s in decoder_b.decode(sample_b).steps]
        assert path_a == path_b


def test_serialized_state_carries_targeted_section():
    program, spec, _, plan = _record_plan(calls=3000)
    engine = DacceEngine(targeted=plan)
    run_workload(program, spec, engine)
    data = decoding_state_to_dict(engine)
    section = data["targeted"]
    assert set(section["functions"]) >= set(plan.functions)
    assert set(section["sinks"]) == set(plan.sinks)
    # An offline decoder rebuilt from the document decodes boundary
    # samples identically to the live engine.
    offline = decoder_from_dict(data)
    live = engine.decoder()
    boundary_seen = False
    for sample in engine.samples:
        path_live = [s.function for s in live.decode(sample).steps]
        path_offline = [s.function for s in offline.decode(sample).steps]
        assert path_live == path_offline
        if UNTRACKED_FUNCTION in path_live:
            boundary_seen = True
            step = next(
                s for s in offline.decode(sample).steps
                if s.function == UNTRACKED_FUNCTION
            )
            assert step.callsite in (None, UNTRACKED_CALLSITE)
    assert boundary_seen
