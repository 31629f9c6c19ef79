"""Parallel memoized decode: equivalence with the sequential pipeline."""

import pytest

from repro.core.context import CollectedSample
from repro.core.engine import DacceEngine
from repro.core.faults import PartialDecode
from repro.core.parallel import _chunk_ranges, decode_log_parallel
from repro.core.samplelog import SampleLog
from repro.core.serialize import (
    decode_log,
    export_decoding_state,
    load_decoder,
)
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, WorkloadSpec, run_workload_columnar


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded run: state file + sample log + live engine."""
    program = generate_program(
        GeneratorConfig(seed=7, functions=35, edges=90, recursive_sites=2)
    )
    spec = WorkloadSpec(
        calls=12_000,
        seed=4,
        sample_period=23,
        recursion_affinity=0.35,
        threads=[ThreadSpec(thread=1, entry=4, spawn_at_call=300)],
    )
    engine = DacceEngine()
    run_workload_columnar(program, spec, engine)
    log = SampleLog()
    log.extend(engine.samples)
    state_path = str(tmp_path_factory.mktemp("decode") / "run.state.json")
    export_decoding_state(engine, state_path)
    return state_path, log


def test_chunk_ranges_partition_exactly():
    for total, jobs in [(0, 4), (1, 4), (7, 2), (100, 4), (5, 16)]:
        ranges = _chunk_ranges(total, jobs)
        flat = [i for start, stop in ranges for i in range(start, stop)]
        assert flat == list(range(total))
        assert all(stop > start for start, stop in ranges)


def test_parallel_equals_sequential_strict(recorded):
    state_path, log = recorded
    decoder = load_decoder(state_path)
    sequential = list(decode_log(decoder, log))
    stats = {}
    parallel = decode_log_parallel(
        state_path, log.samples(), jobs=4, stats=stats
    )
    assert parallel == sequential
    assert stats["jobs"] == 4 and stats["chunks"] > 1
    assert stats["cache_hits"] + stats["cache_misses"] >= len(log)


def test_parallel_equals_sequential_in_process(recorded):
    state_path, log = recorded
    decoder = load_decoder(state_path)
    sequential = list(decode_log(decoder, log))
    assert decode_log_parallel(state_path, log.samples(), jobs=1) == sequential


def _with_corruption(log):
    """Samples with a few undecodable records spliced in (huge ids and
    unknown timestamps), so best-effort decoding must emit faults."""
    samples = list(log.samples())
    bad_id = CollectedSample(
        timestamp=0, context_id=10**9, function=samples[0].function, thread=0
    )
    stale = CollectedSample(
        timestamp=999_999, context_id=1, function=samples[0].function, thread=0
    )
    corrupted = []
    for index, sample in enumerate(samples):
        corrupted.append(sample)
        if index % 37 == 5:
            corrupted.append(bad_id)
        if index % 53 == 11:
            corrupted.append(stale)
    return corrupted


def test_parallel_best_effort_fault_ordering(recorded):
    state_path, log = recorded
    samples = _with_corruption(log)
    decoder = load_decoder(state_path, best_effort=True)
    sequential = list(decode_log(decoder, samples, best_effort=True))
    parallel = decode_log_parallel(
        state_path, samples, jobs=4, best_effort=True, best_effort_state=True
    )
    assert len(parallel) == len(sequential) == len(samples)
    assert any(
        isinstance(r, PartialDecode) and not r.complete for r in parallel
    )
    # Exact positional equality covers fault *ordering*, not just counts.
    assert parallel == sequential


def test_samplelog_samples_cached_and_invalidated(recorded):
    _, log = recorded
    first = log.samples()
    assert log.samples() is first  # cached
    assert list(log) == first
    log.append(first[0])
    second = log.samples()
    assert second is not first
    assert len(second) == len(first) + 1
