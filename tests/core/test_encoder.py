"""Encoder tests, including the paper's Figure 1 worked example."""

import pytest

from repro.core.callgraph import CallGraph
from repro.core.encoder import Encoder, encode_graph, frequency_order, insertion_order
from tests.conftest import A, B, C, D, E, F


def path_id(dictionary, edges):
    """Sum of edge encodings along a path given as (callsite, callee)."""
    total = 0
    for callsite, callee in edges:
        encoding = dictionary.encoding(callsite, callee)
        assert encoding is not None
        total += encoding
    return total


class TestFigure1:
    """Figure 1: only edge CD needs instrumentation (+1)."""

    def test_numcc_values(self, diamond_graph, diamond_dictionary):
        d = diamond_dictionary
        assert d.numcc(A) == 1
        assert d.numcc(B) == 1
        assert d.numcc(C) == 1
        assert d.numcc(D) == 2
        assert d.numcc(E) == 2
        assert d.numcc(F) == 2

    def test_only_cd_instrumented(self, diamond_dictionary):
        d = diamond_dictionary
        nonzero = [
            (info.caller, info.callee)
            for info in d.edges()
            if info.encoding not in (0, None)
        ]
        assert nonzero == [(C, D)]
        assert d.encoding(4, D) == 1

    def test_context_ids_match_paper(self, diamond_dictionary):
        d = diamond_dictionary
        assert path_id(d, [(1, B), (3, D), (5, E)]) == 0  # ABDE
        assert path_id(d, [(2, C), (4, D), (5, E)]) == 1  # ACDE
        assert path_id(d, [(1, B), (3, D), (6, F)]) == 0  # ABDF
        assert path_id(d, [(2, C), (4, D), (6, F)]) == 1  # ACDF
        assert path_id(d, [(1, B), (3, D)]) == 0  # ABD
        assert path_id(d, [(2, C), (4, D)]) == 1  # ACD

    def test_maxid(self, diamond_dictionary):
        assert diamond_dictionary.max_id == 1


class TestBasicProperties:
    def test_single_node_graph(self):
        d = encode_graph(CallGraph(0))
        assert d.max_id == 0
        assert d.numcc(0) == 1

    def test_back_edges_not_encoded(self):
        graph = CallGraph(0)
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 0, 2)  # back
        d = encode_graph(graph)
        assert d.encoding(2, 0) is None
        assert d.find_edge(2, 0).is_back

    def test_chain_has_maxid_zero(self):
        graph = CallGraph.from_edges([(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        d = encode_graph(graph)
        assert d.max_id == 0
        for info in d.edges():
            assert info.encoding == 0

    def test_intervals_partition_numcc(self):
        """In-edge intervals [En, En+numCC(p)) must tile [0, numCC(n))."""
        graph = CallGraph(0)
        sites = iter(range(1, 100))
        graph.add_edge(0, 1, next(sites))
        graph.add_edge(0, 2, next(sites))
        for parent in (1, 2):
            for child in (3, 4):
                graph.add_edge(parent, child, next(sites))
        graph.add_edge(3, 5, next(sites))
        graph.add_edge(4, 5, next(sites))
        d = encode_graph(graph)
        for fn in (1, 2, 3, 4, 5):
            intervals = sorted(
                (info.encoding, info.encoding + d.numcc(info.caller))
                for info in d.encoded_in_edges(fn)
            )
            expected_start = 0
            for low, high in intervals:
                assert low == expected_start
                expected_start = high
            assert expected_start == d.numcc(fn)

    def test_nodes_without_encoded_inedges_have_numcc_one(self):
        graph = CallGraph(0)
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 1, 2)  # self back edge: 1's only extra in-edge
        graph.add_node(9)        # orphan (e.g. a thread entry)
        d = encode_graph(graph)
        assert d.numcc(9) == 1

    def test_overflow_flagged_not_raised(self):
        # A ladder of diamonds doubles numCC at every level: 2^70 paths.
        graph = CallGraph(0)
        site = iter(range(1, 100_000))
        current = 0
        next_fn = 1
        for _ in range(70):
            left, right, join = next_fn, next_fn + 1, next_fn + 2
            next_fn += 3
            graph.add_edge(current, left, next(site))
            graph.add_edge(current, right, next(site))
            graph.add_edge(left, join, next(site))
            graph.add_edge(right, join, next(site))
            current = join
        d = encode_graph(graph, id_bits=64)
        assert d.overflowed
        assert d.max_id >= (1 << 64)
        wide = encode_graph(graph, id_bits=128)
        assert not wide.overflowed


class TestOrderingPolicies:
    def _two_parent_graph(self):
        graph = CallGraph(0)
        graph.add_edge(0, 1, 1)
        graph.add_edge(0, 2, 2)
        cold = graph.add_edge(1, 3, 3)
        hot = graph.add_edge(2, 3, 4)
        cold.invocations = 10
        hot.invocations = 1000
        return graph

    def test_insertion_order_first_edge_free(self):
        d = encode_graph(self._two_parent_graph(), order_policy=insertion_order)
        assert d.encoding(3, 3) == 0  # first inserted
        assert d.encoding(4, 3) == 1

    def test_frequency_order_hot_edge_free(self):
        d = encode_graph(self._two_parent_graph(), order_policy=frequency_order)
        assert d.encoding(4, 3) == 0  # hottest
        assert d.encoding(3, 3) == 1

    def test_policy_must_preserve_edges(self):
        graph = self._two_parent_graph()
        encoder = Encoder(order_policy=lambda edges: edges[:-1])
        with pytest.raises(Exception):
            encoder.encode(graph)


def test_reencoding_timestamp_recorded(diamond_graph):
    d = encode_graph(diamond_graph, timestamp=4)
    assert d.timestamp == 4


def test_frequency_order_encodes_every_edge_of_a_large_graph():
    """A random forward graph: every edge gets an encoding."""
    import random

    rng = random.Random(3)
    graph = CallGraph(0)
    site = 1
    for node in range(1, 500):
        graph.add_edge(rng.randrange(node), node, site, classify=False)
        site += 1
    for _ in range(1_200):
        caller = rng.randrange(499)
        graph.add_edge(caller, rng.randrange(caller + 1, 500), site,
                       classify=False)
        site += 1
    dictionary = Encoder(order_policy=frequency_order).encode(graph)
    assert dictionary.num_edges == graph.num_edges == 1_699
