"""Figure 9 — the progress of encodings over time.

The paper plots, for four representative benchmarks (445.gobmk,
483.xalancbmk, 458.sjeng, 433.milc), how the number of encoded nodes and
edges and the maximum encoding context id evolve as the program runs:
re-encodings cluster at start-up, the encoding reaches a steady state
quickly, and later phase changes trigger occasional adjustments (with
xalancbmk's famous maxID *decrease* when a re-encoding reclassifies a
back edge).

The engine already logs every committed re-encoding
(``engine.reencode_log``); this module turns that log into an evenly
sampled time series comparable with the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..bench.suite import BenchmarkSpec
from ..core.engine import DacceEngine
from ..program.generator import generate_program
from ..program.trace import TraceExecutor


@dataclass
class ProgressPoint:
    """Encoding state after a given number of dynamic calls."""

    at_call: int
    nodes: int
    edges: int
    max_id: int
    timestamp: int


@dataclass
class ProgressSeries:
    """The full Figure 9 series for one benchmark."""

    name: str
    points: List[ProgressPoint]
    total_calls: int

    def max_id_decreased(self) -> bool:
        """Did any re-encoding *lower* maxID (the xalancbmk anecdote)?"""
        values = [point.max_id for point in self.points]
        return any(b < a for a, b in zip(values, values[1:]))


def progress_from_engine(
    engine: DacceEngine, name: str, total_calls: Optional[int] = None
) -> ProgressSeries:
    """Build the series from an engine's re-encoding log."""
    points = [
        ProgressPoint(
            at_call=record.at_call,
            nodes=record.nodes,
            edges=record.edges,
            max_id=record.max_id,
            timestamp=record.timestamp,
        )
        for record in engine.reencode_log
    ]
    final_calls = total_calls if total_calls is not None else engine.stats.calls
    points.append(
        ProgressPoint(
            at_call=final_calls,
            nodes=engine.graph.num_nodes,
            edges=engine.graph.num_edges,
            max_id=engine.max_id,
            timestamp=engine.timestamp,
        )
    )
    return ProgressSeries(name=name, points=points, total_calls=final_calls)


def run_progress(
    benchmark: BenchmarkSpec,
    calls: int = 40_000,
    scale: float = 1.0,
    seed: int = 1,
) -> ProgressSeries:
    """Run DACCE over the benchmark and extract its Figure 9 series."""
    program = generate_program(benchmark.generator_config(scale))
    spec = benchmark.workload_spec(calls=calls, seed=seed)
    engine = DacceEngine(root=program.main)
    for event in TraceExecutor(program, spec).events():
        engine.on_event(event)
    return progress_from_engine(engine, benchmark.name)


#: The four representative benchmarks the paper shows in Figure 9.
FIGURE9_BENCHMARKS = ("445.gobmk", "483.xalancbmk", "458.sjeng", "433.milc")
