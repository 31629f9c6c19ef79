"""Structured re-encoding pass reports.

Every re-encoding pass answers three questions the scattered counters
could not: *why* did the pass fire (which Section 4 triggers), *what*
did it change (edges reclassified, dictionary size, maxID movement),
and *what did it cost* (wall-clock pass duration plus the cost-model
cycles).  :class:`ReencodePassReport` captures all of it per pass.  It
is the only record of a pass: the engine keeps one list of them
(``engine.reencode_passes``) and every export — ``reencode_log``, the
``engine.reencode`` span, the ``reencode.pass`` frame, the metrics and
the JSON snapshots — is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


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
    #: ``"committed"``, or ``"no-op"`` for a triggered pass whose
    #: candidate changed nothing (no gTimeStamp bump; ``timestamp`` is
    #: then the unchanged current one).
    outcome: str = "committed"

    def to_dict(self) -> Dict[str, Any]:
        return {
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
