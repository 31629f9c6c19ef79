"""Adaptive re-encoding policy (Section 4).

The paper initiates a re-encoding pass when any of three conditions is
detected at runtime:

1. the number of newly identified call edges reaches a threshold,
2. the frequently invoked call paths have changed — hot traffic is
   flowing through edges the current encoding does not cover,
3. the ccStack is frequently accessed.

:class:`AdaptivePolicy` evaluates those triggers over observation windows.
The re-encoding pass itself then (a) reclassifies back edges so that hot
edges stay encoded ("cold edges will not affect the encodings of hot
edges", Section 6.4 — the paper's 483.xalancbmk anecdote where maxID
*decreases* after a re-encoding comes from exactly this reclassification),
(b) orders each node's in-edges by invocation frequency so the hottest
gets encoding 0, and (c) enables ccStack compression on highly repetitive
recursive edges (Figure 5(e)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import CallEdge, CallGraph
from .events import CallSiteId, FunctionId

EdgeKey = Tuple[CallSiteId, FunctionId]

#: Longest run of windows a ``ccstack-traffic``-only decision is ignored
#: for after consecutive no-op passes (the backoff doubles 1, 2, 4, ...
#: up to this cap).
NOOP_BACKOFF_CAP = 128


@dataclass
class AdaptiveConfig:
    """Thresholds for the three re-encoding triggers.

    The paper does not publish its constants.  With these defaults the
    reproduction's Table 1 subset (``benchmarks/bench_table1.py``)
    measures 1-32 committed re-encodings (``gTS``) per benchmark, and the
    trigger ablation's most aggressive setting reaches 91; triggered
    passes that would change nothing are not counted (they commit
    nothing, see ``DacceEngine.reencode``).
    """

    #: Trigger 1 — re-encode when this many edges were discovered since
    #: the last pass.
    new_edge_threshold: int = 16
    #: Trigger 2 — re-encode when more than this fraction of window calls
    #: travelled edges that currently have no encoding (excluding back
    #: edges, which can never be encoded).
    hot_unencoded_fraction: float = 0.02
    #: Trigger 3 — re-encode when ccStack operations per call in the
    #: window exceed this rate.
    ccstack_rate_threshold: float = 0.25
    #: How many calls between trigger evaluations.
    check_interval: int = 512
    #: A back edge whose repetitive-push fraction exceeds this gets the
    #: compressing instrumentation of Figure 5(e) at the next re-encoding.
    compression_repetition_fraction: float = 0.5
    #: Minimum observations before compression is considered.
    compression_min_pushes: int = 16


@dataclass
class WindowStats:
    """What the engine observed since the last policy evaluation."""

    calls: int = 0
    unencoded_calls: int = 0
    ccstack_ops: int = 0
    new_edges: int = 0


@dataclass
class TriggerDecision:
    """Outcome of one policy evaluation, with the reasons that fired.

    Carries the evidence behind the decision (the observed window and
    the pending new-edge count) so telemetry can report *why* a
    re-encoding pass started, not just that it did.
    """

    reencode: bool
    reasons: List[str] = field(default_factory=list)
    window: Optional[WindowStats] = None
    pending_new_edges: int = 0

    def window_dict(self) -> Optional[Dict[str, int]]:
        """The window counters as plain data (for pass reports)."""
        if self.window is None:
            return None
        return {
            "calls": self.window.calls,
            "unencoded_calls": self.window.unencoded_calls,
            "ccstack_ops": self.window.ccstack_ops,
            "pending_new_edges": self.pending_new_edges,
        }


class AdaptivePolicy:
    """Evaluates the Section 4 triggers over engine-supplied windows."""

    def __init__(self, config: Optional[AdaptiveConfig] = None):
        self.config = config or AdaptiveConfig()
        #: (callsite, callee) -> [pushes, repetitive pushes] per back edge.
        self._recursion_pushes: Dict[EdgeKey, List[int]] = {}
        self._compressed_edges: Set[EdgeKey] = set()
        #: Telemetry: evaluations performed / evaluations that fired.
        self.evaluations = 0
        self.fired = 0
        #: No-op backoff: windows per ignore run (0 = none) and windows
        #: still to ignore in the current run.
        self._backoff_span = 0
        self._backoff_left = 0

    # -- trigger evaluation --------------------------------------------
    def evaluate(self, window: WindowStats, pending_new_edges: int) -> TriggerDecision:
        """Check the three triggers against the latest window.

        Trigger (c) backs off after passes that changed nothing: while
        a backoff run is active (see :meth:`note_noop`) a decision whose
        only reason is ``ccstack-traffic`` is ignored.  ``new-edges`` and
        ``hot-paths-changed`` always fire, and any pending new edge
        ends the backoff — a pass over a grown graph always commits.
        """
        config = self.config
        self.evaluations += 1
        reasons: List[str] = []
        if pending_new_edges >= config.new_edge_threshold:
            reasons.append("new-edges")
        if window.calls > 0:
            unencoded_rate = window.unencoded_calls / window.calls
            if unencoded_rate > config.hot_unencoded_fraction:
                reasons.append("hot-paths-changed")
            ccstack_rate = window.ccstack_ops / window.calls
            if ccstack_rate > config.ccstack_rate_threshold:
                reasons.append("ccstack-traffic")
        if pending_new_edges:
            self.note_commit()
        elif self._backoff_left and reasons == ["ccstack-traffic"]:
            self._backoff_left -= 1
            reasons = []
        if reasons:
            self.fired += 1
        return TriggerDecision(
            reencode=bool(reasons),
            reasons=reasons,
            window=window,
            pending_new_edges=pending_new_edges,
        )

    def note_commit(self) -> None:
        """A pass committed (or the graph grew): end any backoff."""
        self._backoff_span = 0
        self._backoff_left = 0

    def note_noop(self) -> None:
        """A triggered pass changed nothing: ignore trigger (c) for a while.

        Consecutive no-ops double the ignored run of windows — 1, 2, 4,
        ... up to :data:`NOOP_BACKOFF_CAP`.
        """
        span = self._backoff_span
        self._backoff_span = min(2 * span, NOOP_BACKOFF_CAP) if span else 1
        self._backoff_left = self._backoff_span

    # -- recursion compression -----------------------------------------
    def observe_back_edge_push(self, key: EdgeKey, repetitive: bool) -> None:
        """Record one back-edge ccStack push and whether it repeated the top."""
        counters = self.push_counters(key)
        counters[0] += 1
        if repetitive:
            counters[1] += 1

    def push_counters(self, key: EdgeKey) -> List[int]:
        """The live ``[pushes, repetitive pushes]`` list of one back edge.

        The engine's compiled kernel bumps this list in place; it is
        created (zeroed) on first request.
        """
        return self._recursion_pushes.setdefault(key, [0, 0])

    @property
    def recursion_pushes(self) -> Dict[EdgeKey, Tuple[int, int]]:
        """Observed ``(pushes, repetitive pushes)`` per pushed back edge."""
        return {
            key: (pushes, repetitive)
            for key, (pushes, repetitive) in self._recursion_pushes.items()
            if pushes
        }

    def refresh_compressed_edges(self) -> Set[EdgeKey]:
        """Recompute which back edges deserve compressing instrumentation.

        Called during the re-encoding pass ("analyze the contents on
        ccStack of collected contexts; if they are highly repetitive,
        adjust the encoding algorithm on recursive calls").
        """
        config = self.config
        for key, (pushes, repetitive) in self._recursion_pushes.items():
            if (
                pushes
                and pushes >= config.compression_min_pushes
                and repetitive / pushes >= config.compression_repetition_fraction
            ):
                self._compressed_edges.add(key)
        return set(self._compressed_edges)

    def is_compressed(self, key: EdgeKey) -> bool:
        return key in self._compressed_edges

    @property
    def compressed_edges(self) -> Set[EdgeKey]:
        return set(self._compressed_edges)

    def restore_compressed(self, edges: Set[EdgeKey]) -> None:
        """Reset the compressed-edge set (re-encoding rollback)."""
        self._compressed_edges = set(edges)


# ----------------------------------------------------------------------
# back-edge reclassification
# ----------------------------------------------------------------------
def strongly_connected_components(graph: CallGraph) -> List[List[FunctionId]]:
    """Tarjan's SCC algorithm over *all* edges of the call graph.

    Iterative formulation — recursion depth would otherwise be bounded by
    the call-graph diameter, which reaches thousands of nodes for
    xalancbmk-sized graphs.
    """
    index: Dict[FunctionId, int] = {}
    lowlink: Dict[FunctionId, int] = {}
    on_stack: Set[FunctionId] = set()
    stack: List[FunctionId] = []
    components: List[List[FunctionId]] = []
    counter = [0]

    for start in graph.functions():
        if start in index:
            continue
        work: List[Tuple[FunctionId, int]] = [(start, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            out_edges = graph.out_edges(node)
            advanced = False
            while edge_pos < len(out_edges):
                successor = out_edges[edge_pos].callee
                edge_pos += 1
                if successor not in index:
                    work.append((node, edge_pos))
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def classify_back_edges(graph: CallGraph, priority: str = "frequency", seed: int = 0) -> int:
    """Re-pick the back-edge set for the whole graph.

    Edges crossing strongly connected components can never be on a cycle
    and are always non-back.  Within each non-trivial SCC the edges are
    inserted one by one into an acyclic subset; an edge that would close
    a cycle becomes a back edge.  Self edges are always back.

    ``priority`` chooses the insertion order and therefore *which* edge
    of each cycle gets trapped:

    * ``"frequency"`` — hottest first: hot edges stay encodable.  This is
      DACCE's adaptive re-encoding behaviour ("cold edges will not
      affect the encodings of hot edges", Section 6.4).
    * ``"random"`` — a seeded shuffle, modelling the frequency-blind
      classification of static tools: in a cycle formed by a
      never-executed edge and hot edges, the *hot* edge is trapped with
      uniform probability — the root cause of PCCE's extra ccStack
      traffic on 400.perlbench / 483.xalancbmk.

    Returns the number of edges whose classification changed.  Rebuilding
    from scratch lets a formerly encoded edge *become* the back edge of a
    newly closed cycle, which is how the paper's maximum id can decrease
    across re-encodings (the Figure 9 xalancbmk anecdote).
    """
    component_of: Dict[FunctionId, int] = {}
    components = strongly_connected_components(graph)
    for number, members in enumerate(components):
        for member in members:
            component_of[member] = number

    nontrivial: Dict[int, List[CallEdge]] = {}
    changed = 0
    for edge in graph.edges():
        if edge.caller == edge.callee:
            if not edge.is_back:
                changed += 1
            edge.is_back = True
            continue
        if component_of[edge.caller] != component_of[edge.callee]:
            if edge.is_back:
                changed += 1
            edge.is_back = False
            continue
        nontrivial.setdefault(component_of[edge.caller], []).append(edge)

    rng = random.Random(seed)
    for edges in nontrivial.values():
        changed += _classify_within_component(edges, priority, rng)
    if changed:
        graph.generation += 1
    return changed


def _classify_within_component(
    edges: List[CallEdge], priority: str, rng: random.Random
) -> int:
    """Greedy acyclic subset selection inside one SCC."""
    if priority == "random":
        ordered = list(edges)
        rng.shuffle(ordered)
    else:
        ordered = sorted(edges, key=lambda e: (-e.invocations, e.callsite))
    adjacency: Dict[FunctionId, List[FunctionId]] = {}
    changed = 0
    for edge in ordered:
        if _reaches(adjacency, edge.callee, edge.caller):
            if not edge.is_back:
                changed += 1
            edge.is_back = True
        else:
            if edge.is_back:
                changed += 1
            edge.is_back = False
            adjacency.setdefault(edge.caller, []).append(edge.callee)
    return changed


def _reaches(
    adjacency: Dict[FunctionId, List[FunctionId]],
    source: FunctionId,
    target: FunctionId,
) -> bool:
    if source == target:
        return True
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for successor in adjacency.get(node, ()):
            if successor == target:
                return True
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return False
