"""Incremental dynamic call graph.

DACCE starts with a call graph containing only ``main`` and grows it one
edge at a time as the runtime handler observes first invocations
(Section 3).  The graph is a *multigraph*: two different call sites in the
same caller targeting the same callee are two distinct edges, because each
call site gets its own encoding.

Back edges — edges that would close a cycle among the currently *encoded*
(non-back) edges — are detected incrementally when the edge is added and
are never encoded (Section 3.3: "the recursive calls will not be encoded
while re-encoding the call graph").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import CallGraphError
from .events import CallKind, CallSiteId, FunctionId


@dataclass(eq=False)  # identity semantics: edges are unique objects
class CallEdge:
    """A call-graph edge ``<caller, callee, callsite>``.

    ``invocations`` is the dynamic frequency counter the adaptive encoder
    uses to order in-edges (hot edge gets encoding 0).  ``is_back`` marks
    recursive edges which are handled through the ccStack and never
    receive a static encoding.
    """

    caller: FunctionId
    callee: FunctionId
    callsite: CallSiteId
    kind: CallKind = CallKind.NORMAL
    is_back: bool = False
    invocations: int = 0
    #: True when the edge entered the graph through static warm-start
    #: seeding rather than runtime discovery (Section 3 handler).
    seeded: bool = False

    def key(self) -> Tuple[CallSiteId, FunctionId]:
        """Identity of the edge: a call site plus a concrete target.

        A direct call site has exactly one edge; an indirect call site has
        one edge per dynamic target identified so far.
        """
        return (self.callsite, self.callee)


@dataclass
class CallNode:
    """A function in the call graph with its adjacency."""

    function: FunctionId
    in_edges: List[CallEdge] = field(default_factory=list)
    out_edges: List[CallEdge] = field(default_factory=list)


class CallGraph:
    """A dynamically growing call multigraph with back-edge detection.

    The graph maintains the invariant that the subset of non-back edges is
    acyclic.  ``add_edge`` checks — before inserting — whether the new edge
    would close a cycle through non-back edges and, if so, marks it as a
    back edge.  This mirrors how DACCE classifies a newly discovered
    recursive call the first time it fires.

    Notes on complexity: the reachability check is a DFS over non-back
    edges, O(V+E) worst case per insertion.  Call graphs are small (a few
    thousand nodes, Table 1) and edges are only inserted once each, so
    this is cheap in practice; a positive-result cache short-circuits
    repeated queries between insertions.
    """

    def __init__(self, root: FunctionId = 0):
        self._nodes: Dict[FunctionId, CallNode] = {}
        self._edges: Dict[Tuple[CallSiteId, FunctionId], CallEdge] = {}
        self._root = root
        #: Call site → containing function; grow-only, read live by the
        #: engine's decoder.
        self.callsite_owners: Dict[CallSiteId, FunctionId] = {}
        # Monotone generation counter; bumped on every structural change so
        # dependent caches (encoder output, reachability) can be validated.
        self.generation = 0
        self.add_node(root)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def root(self) -> FunctionId:
        """The program entry function (``main``)."""
        return self._root

    def add_node(self, function: FunctionId) -> CallNode:
        """Insert ``function`` if absent and return its node."""
        node = self._nodes.get(function)
        if node is None:
            node = CallNode(function)
            self._nodes[function] = node
            self.generation += 1
        return node

    def add_edge(
        self,
        caller: FunctionId,
        callee: FunctionId,
        callsite: CallSiteId,
        kind: CallKind = CallKind.NORMAL,
        force_back: bool = False,
        classify: bool = True,
    ) -> CallEdge:
        """Insert the edge ``<caller, callee, callsite>`` and classify it.

        Returns the existing edge if the same (callsite, callee) pair was
        already added.  The edge is marked as a back edge when
        ``force_back`` is set or when callee already reaches caller
        through non-back edges (adding it would create a cycle).  Self
        recursion (``caller == callee``) is always a back edge.

        ``classify=False`` skips the (DFS-based) cycle check — used by
        bulk static-graph construction, which classifies all edges in a
        single pass afterwards (:func:`dfs_classify_back_edges`).
        """
        key = (callsite, callee)
        existing = self._edges.get(key)
        if existing is not None:
            if existing.caller != caller:
                raise CallGraphError(
                    "call site %d already belongs to caller %d, not %d"
                    % (callsite, existing.caller, caller)
                )
            return existing

        caller_node = self.add_node(caller)
        callee_node = self.add_node(callee)
        is_back = force_back or caller == callee
        if not is_back and classify:
            is_back = self.reaches(callee, caller, encoded_only=True)
        edge = CallEdge(caller, callee, callsite, kind=kind, is_back=is_back)
        caller_node.out_edges.append(edge)
        callee_node.in_edges.append(edge)
        self._edges[key] = edge
        self.callsite_owners[callsite] = caller
        self.generation += 1
        return edge

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, function: FunctionId) -> CallNode:
        """The node for ``function``; raises if absent."""
        try:
            return self._nodes[function]
        except KeyError:
            raise CallGraphError("unknown function %r" % (function,)) from None

    def has_node(self, function: FunctionId) -> bool:
        return function in self._nodes

    def edge(self, callsite: CallSiteId, callee: FunctionId) -> CallEdge:
        """The edge at ``callsite`` targeting ``callee``; raises if absent."""
        try:
            return self._edges[(callsite, callee)]
        except KeyError:
            raise CallGraphError(
                "no edge at callsite %d to function %d" % (callsite, callee)
            ) from None

    def find_edge(
        self, callsite: CallSiteId, callee: FunctionId
    ) -> Optional[CallEdge]:
        """Like :meth:`edge` but returns ``None`` when absent.

        This is ``getEdge`` in Algorithm 1.
        """
        return self._edges.get((callsite, callee))

    def edges(self) -> Iterator[CallEdge]:
        return iter(self._edges.values())

    def nodes(self) -> Iterator[CallNode]:
        return iter(self._nodes.values())

    def functions(self) -> Iterator[FunctionId]:
        return iter(self._nodes.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def in_edges(self, function: FunctionId) -> List[CallEdge]:
        return self.node(function).in_edges

    def out_edges(self, function: FunctionId) -> List[CallEdge]:
        return self.node(function).out_edges

    def reaches(
        self,
        source: FunctionId,
        target: FunctionId,
        encoded_only: bool = True,
    ) -> bool:
        """DFS reachability from ``source`` to ``target``.

        With ``encoded_only`` the search only follows non-back edges — the
        acyclic skeleton over which context encodings are computed.
        """
        if source not in self._nodes or target not in self._nodes:
            return False
        if source == target:
            return True
        seen: Set[FunctionId] = {source}
        stack = [source]
        while stack:
            fn = stack.pop()
            for edge in self._nodes[fn].out_edges:
                if encoded_only and edge.is_back:
                    continue
                nxt = edge.callee
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def topological_order(self) -> List[FunctionId]:
        """Topological order of nodes over non-back edges.

        Raises :class:`CallGraphError` if the non-back subset is cyclic —
        which would indicate a bug in back-edge classification.
        """
        in_degree: Dict[FunctionId, int] = {fn: 0 for fn in self._nodes}
        for edge in self._edges.values():
            if not edge.is_back:
                in_degree[edge.callee] += 1
        ready = sorted(fn for fn, deg in in_degree.items() if deg == 0)
        order: List[FunctionId] = []
        # Use a list as a stack; determinism comes from the initial sort
        # plus insertion order of out-edges.
        while ready:
            fn = ready.pop()
            order.append(fn)
            for edge in self._nodes[fn].out_edges:
                if edge.is_back:
                    continue
                in_degree[edge.callee] -= 1
                if in_degree[edge.callee] == 0:
                    ready.append(edge.callee)
        if len(order) != len(self._nodes):
            raise CallGraphError("non-back edge subset is cyclic")
        return order

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------
    def copy(self) -> "CallGraph":
        """A deep structural copy (fresh edge objects, counters kept).

        Back-edge flags are copied verbatim, not re-derived: the source
        graph already satisfies the acyclic-skeleton invariant.
        """
        clone = CallGraph(self._root)
        for fn in self._nodes:
            clone.add_node(fn)
        for edge in self._edges.values():
            new = clone.add_edge(
                edge.caller,
                edge.callee,
                edge.callsite,
                kind=edge.kind,
                force_back=edge.is_back,
                classify=False,
            )
            new.invocations = edge.invocations
            new.seeded = edge.seeded
        return clone

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[FunctionId, FunctionId, CallSiteId]],
        root: FunctionId = 0,
    ) -> "CallGraph":
        """Convenience constructor for tests and examples."""
        graph = CallGraph(root)
        for caller, callee, callsite in edges:
            graph.add_edge(caller, callee, callsite)
        return graph

    def __contains__(self, function: FunctionId) -> bool:
        return function in self._nodes

    def __repr__(self) -> str:
        return "CallGraph(nodes=%d, edges=%d)" % (self.num_nodes, self.num_edges)


def dfs_classify_back_edges(graph: CallGraph) -> int:
    """Classify every edge of ``graph`` in one DFS pass.

    An edge whose target is *gray* (on the current DFS stack) is a back
    edge; every other edge (tree/forward/cross) is not.  Removing the
    back edges leaves a DAG — the classic DFS argument.  This is the
    frequency-blind classification static tools use (and is what lets
    never-executed edges turn *hot* edges into back edges in PCCE's
    complete graphs, Section 6.4 of the paper).

    Runs in O(V + E); returns the number of back edges.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[FunctionId, int] = {fn: WHITE for fn in graph.functions()}
    back = 0
    for start in sorted(graph.functions()):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[FunctionId, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, position = stack.pop()
            out_edges = graph.out_edges(node)
            descended = False
            while position < len(out_edges):
                edge = out_edges[position]
                position += 1
                target_color = color[edge.callee]
                if target_color == GRAY:
                    if not edge.is_back:
                        graph.generation += 1
                    edge.is_back = True
                    back += 1
                else:
                    if edge.is_back:
                        graph.generation += 1
                    edge.is_back = False
                    if target_color == WHITE:
                        color[edge.callee] = GRAY
                        stack.append((node, position))
                        stack.append((edge.callee, 0))
                        descended = True
                        break
            if not descended:
                color[node] = BLACK
    return back
