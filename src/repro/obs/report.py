"""Structured re-encoding pass reports.

Every ``gTimeStamp`` bump answers three questions the scattered counters
could not: *why* did the pass fire (which Section 4 triggers), *what*
did it change (edges reclassified, dictionary size, maxID movement),
and *what did it cost* (wall-clock pass duration plus the cost-model
cycles).  :class:`ReencodePassReport` captures all of it per pass;
:class:`PassReportLog` keeps the run's history and aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ReencodePassReport:
    """One adaptive re-encoding pass, from trigger to regenerated world."""

    #: ``gTimeStamp`` *after* the bump — the dictionary this pass produced.
    timestamp: int
    #: The Section 4 trigger reasons that fired ("new-edges",
    #: "hot-paths-changed", "ccstack-traffic") or ("manual",).
    reasons: Tuple[str, ...]
    #: Dynamic call count when the pass started.
    at_call: int
    #: Graph shape at encoding time.
    nodes: int
    edges: int
    #: Edges whose back/non-back classification flipped this pass.
    edges_reclassified: int
    #: Edges discovered since the previous pass (trigger-1 pressure).
    new_edges: int
    #: Dictionary size: encoded (non-back) edges and the id-space bound.
    encoded_edges: int
    max_id: int
    #: maxID of the previous dictionary — lets consumers spot the paper's
    #: Section 6.4 anecdote where re-encoding *shrinks* the id space.
    previous_max_id: int
    #: Threads whose live id/ccStack were regenerated.
    threads_regenerated: int
    #: Indirect call sites re-patched hottest-first.
    indirect_sites_patched: int
    #: Back edges with compressing instrumentation after this pass.
    compressed_edges: int
    #: Measured wall-clock duration of the pass, seconds.
    duration_seconds: float
    #: Modelled cost in cycles (the Figure 8 accounting).
    cost_cycles: float
    #: Raw window counters behind the trigger decision, when available.
    window: Optional[Dict[str, int]] = None
    #: Span identity of the ``engine.reencode`` span covering this pass
    #: (``{"trace": ..., "span": ...}``), when span tracing is on.
    span: Optional[Dict[str, str]] = None
    #: ``"committed"``, or ``"no-op"`` for a triggered pass whose
    #: candidate changed nothing (no gTimeStamp bump; ``timestamp`` is
    #: then the unchanged current one).
    outcome: str = "committed"

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "timestamp": self.timestamp,
            "reasons": list(self.reasons),
            "at_call": self.at_call,
            "nodes": self.nodes,
            "edges": self.edges,
            "edges_reclassified": self.edges_reclassified,
            "new_edges": self.new_edges,
            "encoded_edges": self.encoded_edges,
            "max_id": self.max_id,
            "previous_max_id": self.previous_max_id,
            "threads_regenerated": self.threads_regenerated,
            "indirect_sites_patched": self.indirect_sites_patched,
            "compressed_edges": self.compressed_edges,
            "duration_seconds": self.duration_seconds,
            "cost_cycles": self.cost_cycles,
            "window": dict(self.window) if self.window else None,
            "outcome": self.outcome,
        }
        # Additive: only span-traced passes carry the key, so existing
        # report consumers see an unchanged shape when tracing is off.
        if self.span is not None:
            out["span"] = dict(self.span)
        return out


@dataclass
class PassReportLog:
    """The run's re-encoding history with simple aggregates."""

    reports: List[ReencodePassReport] = field(default_factory=list)

    def append(self, report: ReencodePassReport) -> None:
        self.reports.append(report)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def last(self) -> Optional[ReencodePassReport]:
        return self.reports[-1] if self.reports else None

    @property
    def total_duration_seconds(self) -> float:
        return sum(r.duration_seconds for r in self.reports)

    def reason_counts(self) -> Dict[str, int]:
        """How often each trigger reason fired across the run."""
        counts: Dict[str, int] = {}
        for report in self.reports:
            for reason in report.reasons:
                counts[reason] = counts.get(reason, 0) + 1
        return counts

    def to_list(self) -> List[Dict[str, Any]]:
        return [report.to_dict() for report in self.reports]
