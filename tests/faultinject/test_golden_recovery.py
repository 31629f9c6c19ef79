"""Golden differential test: fault handling is pinned per seed.

A fixed corpus of fault-injected streams (40 seeds, each a fault list
drawn from ``random.Random(seed)`` over :data:`FAULT_CLASSES`) runs
through three drivers:

* ``recover`` via per-event ``on_event``;
* ``recover`` via ``process_columns`` (the generated kernel deopts every
  malformed event to the general path);
* ``strict`` via ``on_event``, stopping at the first raise.

For each seed the fixture stores the quarantine's ``counts_by_kind``, a
SHA-256 over the canonical JSON of everything recovery leaves behind
(fault records, ``stats``, ``summary()``, per-thread id/ccStack/frames
and the retained samples) for both recover drivers, and strict's
first-raise ``(index, exception class)``.  Any change to how a fault is
detected, recorded or recovered from shows up as a hash mismatch.

Regenerate the fixture (only for a deliberate behaviour change, named in
the change log) with::

    PYTHONPATH=src python -m tests.faultinject.test_golden_recovery
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.columnar import EventColumns
from repro.core.engine import DacceConfig, DacceEngine
from repro.core.errors import DacceError
from repro.core.events import compact
from repro.core.faults import FaultPolicy
from repro.program.generator import GeneratorConfig, generate_program
from repro.program.trace import ThreadSpec, TraceExecutor, WorkloadSpec

from .inject import FAULT_CLASSES, inject

pytestmark = pytest.mark.faultinject

FIXTURE = pathlib.Path(__file__).with_name("golden_recovery.json")
SEEDS = range(40)
BATCH = 256


def _workload():
    """The fault-injection property suite's workload (test_properties)."""
    program = generate_program(
        GeneratorConfig(
            seed=11,
            functions=25,
            edges=60,
            recursive_sites=3,
            indirect_fraction=0.1,
            tail_fraction=0.05,
        )
    )
    spec = WorkloadSpec(
        calls=2_000,
        seed=7,
        sample_period=31,
        recursion_affinity=0.4,
        threads=[ThreadSpec(thread=1, entry=2, spawn_at_call=300)],
    )
    return program, list(TraceExecutor(program, spec).events())


def _faults(seed: int) -> List[Tuple[str, int]]:
    rng = random.Random(seed)
    return [
        (rng.choice(FAULT_CLASSES), rng.randrange(10**6))
        for _ in range(rng.randint(1, 8))
    ]


def _engine(program, policy: FaultPolicy) -> DacceEngine:
    return DacceEngine(
        root=program.main,
        config=DacceConfig(fault_policy=policy, self_validate=True),
    )


def _digest(engine: DacceEngine) -> str:
    threads = []
    for thread in sorted(engine._threads):
        state = engine._threads[thread]
        threads.append(
            [
                thread,
                state.id_value,
                [
                    [e.id, e.callsite, e.target, e.count, e.discovery]
                    for e in state.ccstack._entries
                ],
                [
                    [
                        f.function,
                        f.callsite,
                        f.restore_id,
                        list(f.cc_state),
                        f.action.name,
                        f.kind.value,
                        [[fn, cs, kind.value] for fn, cs, kind in f.chain],
                    ]
                    for f in state.frames
                ],
            ]
        )
    document = {
        "faults": [record.to_dict() for record in engine.faults.records()],
        "stats": dataclasses.asdict(engine.stats),
        "summary": engine.summary(),
        "threads": threads,
        "samples": [list(sample) for sample in engine.samples],
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _first_raise(program, events) -> List[Any]:
    engine = _engine(program, FaultPolicy.STRICT)
    for index, event in enumerate(events):
        try:
            engine.on_event(event)
        except DacceError as error:
            return [index, type(error).__name__]
    return [None, None]


def _run_seed(program, events, seed: int) -> Dict[str, Any]:
    faults = _faults(seed)
    mutated = inject(events, faults)

    per_event = _engine(program, FaultPolicy.RECOVER)
    for event in mutated:
        per_event.on_event(event)

    columnar = _engine(program, FaultPolicy.RECOVER)
    records = [compact(event) for event in mutated]
    for start in range(0, len(records), BATCH):
        columnar.process_columns(
            EventColumns.from_compact(records[start : start + BATCH])
        )

    return {
        "faults": [list(fault) for fault in faults],
        "counts_by_kind": per_event.faults.counts_by_kind(),
        "columnar_counts_by_kind": columnar.faults.counts_by_kind(),
        "on_event_sha256": _digest(per_event),
        "process_columns_sha256": _digest(columnar),
        "strict_first_raise": _first_raise(program, mutated),
    }


def _corpus() -> Dict[str, Dict[str, Any]]:
    program, events = _workload()
    return {str(seed): _run_seed(program, events, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def corpus() -> Dict[str, Dict[str, Any]]:
    return _corpus()


def test_fixture_covers_every_seed(golden):
    assert sorted(golden, key=int) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("seed", [str(seed) for seed in SEEDS])
def test_fault_handling_matches_golden(golden, corpus, seed):
    assert corpus[seed] == golden[seed]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_corpus(), indent=1, sort_keys=True) + "\n")
    print("wrote %s" % FIXTURE)
