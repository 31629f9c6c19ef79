"""Unit tests for the incremental call graph."""

import pytest

from repro.core.callgraph import CallGraph, dfs_classify_back_edges
from repro.core.errors import CallGraphError
from repro.core.events import CallKind


def test_root_node_exists():
    graph = CallGraph(7)
    assert graph.root == 7
    assert graph.has_node(7)
    assert graph.num_nodes == 1
    assert graph.num_edges == 0


def test_add_edge_creates_nodes():
    graph = CallGraph(0)
    edge = graph.add_edge(0, 1, 10)
    assert graph.has_node(1)
    assert not edge.is_back
    assert graph.num_edges == 1


def test_add_edge_idempotent():
    graph = CallGraph(0)
    first = graph.add_edge(0, 1, 10)
    second = graph.add_edge(0, 1, 10)
    assert first is second
    assert graph.num_edges == 1


def test_callsite_owner_conflict_rejected():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10)
    graph.add_edge(0, 2, 11)
    with pytest.raises(CallGraphError):
        graph.add_edge(2, 1, 10)  # same callsite, different caller


def test_multigraph_same_pair_different_sites():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10)
    graph.add_edge(0, 1, 11)
    assert graph.num_edges == 2
    assert len(graph.in_edges(1)) == 2


def test_self_edge_is_back():
    graph = CallGraph(0)
    graph.add_edge(0, 0, 10)
    assert graph.edge(10, 0).is_back


def test_cycle_closing_edge_is_back():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10)
    graph.add_edge(1, 2, 11)
    edge = graph.add_edge(2, 0, 12)
    assert edge.is_back


def test_non_cycle_backward_looking_edge_is_not_back():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10)
    graph.add_edge(0, 2, 11)
    # 2 -> 1 closes no cycle (1 does not reach 2).
    assert not graph.add_edge(2, 1, 12).is_back


def test_force_back():
    graph = CallGraph(0)
    assert graph.add_edge(0, 1, 10, force_back=True).is_back


def test_classify_false_skips_cycle_check():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10, classify=False)
    graph.add_edge(1, 0, 11, classify=False)
    # Neither marked back (no classification ran)...
    assert not graph.edge(11, 0).is_back
    # ...until the one-shot DFS pass.
    back = dfs_classify_back_edges(graph)
    assert back == 1
    backs = [e for e in graph.edges() if e.is_back]
    assert len(backs) == 1


def test_dfs_classification_leaves_dag():
    graph = CallGraph(0)
    edges = [(0, 1), (1, 2), (2, 3), (3, 1), (2, 0), (0, 3), (3, 3)]
    for index, (u, v) in enumerate(edges):
        graph.add_edge(u, v, 100 + index, classify=False)
    dfs_classify_back_edges(graph)
    # Removing back edges must leave an acyclic graph.
    order = graph.topological_order()
    assert len(order) == graph.num_nodes


def test_reaches_encoded_only_ignores_back_edges():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10)
    graph.add_edge(1, 0, 11)  # back
    assert graph.reaches(0, 1)
    assert not graph.reaches(1, 0, encoded_only=True)
    assert graph.reaches(1, 0, encoded_only=False)


def test_topological_order_respects_edges():
    graph = CallGraph(0)
    graph.add_edge(0, 1, 10)
    graph.add_edge(0, 2, 11)
    graph.add_edge(1, 3, 12)
    graph.add_edge(2, 3, 13)
    order = graph.topological_order()
    position = {fn: i for i, fn in enumerate(order)}
    for edge in graph.edges():
        if not edge.is_back:
            assert position[edge.caller] < position[edge.callee]


def test_find_edge_none_for_missing():
    graph = CallGraph(0)
    assert graph.find_edge(99, 1) is None


def test_edge_lookup_raises_for_missing():
    graph = CallGraph(0)
    with pytest.raises(CallGraphError):
        graph.edge(99, 1)
    with pytest.raises(CallGraphError):
        graph.node(42)


def test_copy_preserves_structure_and_counts():
    graph = CallGraph(0)
    edge = graph.add_edge(0, 1, 10, kind=CallKind.INDIRECT)
    edge.invocations = 5
    graph.add_edge(1, 1, 11)
    clone = graph.copy()
    assert clone.num_nodes == graph.num_nodes
    assert clone.num_edges == graph.num_edges
    assert clone.edge(10, 1).invocations == 5
    assert clone.edge(10, 1).kind is CallKind.INDIRECT
    assert clone.edge(11, 1).is_back
    # Independent objects.
    clone.edge(10, 1).invocations = 9
    assert graph.edge(10, 1).invocations == 5


def test_from_edges_builder():
    graph = CallGraph.from_edges([(0, 1, 10), (1, 2, 11)])
    assert graph.num_edges == 2
    assert 2 in graph
