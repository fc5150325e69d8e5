"""Unit tests for the Graph data structure."""

import pytest

from repro.errors import GraphError
from repro.graph import Graph


def test_from_edges_basic():
    graph = Graph.from_edges([(0, 1), (1, 2)])
    assert graph.num_vertices == 3
    assert graph.num_edges == 2
    assert graph.has_edge(0, 1)
    assert graph.has_edge(1, 0)
    assert not graph.has_edge(0, 2)


def test_from_edges_drops_duplicates_and_self_loops():
    graph = Graph.from_edges([(0, 1), (1, 0), (0, 0), (0, 1)])
    assert graph.num_vertices == 2
    assert graph.num_edges == 1


def test_from_edges_with_labels():
    graph = Graph.from_edges([("a", "b"), ("b", "c")], vertices=["a", "b", "c", "isolated"])
    assert graph.num_vertices == 4
    assert graph.label(0) == "a"
    assert graph.index_of("c") == 2
    assert graph.degree(graph.index_of("isolated")) == 0


def test_index_of_unknown_label_raises():
    graph = Graph.from_edges([("a", "b")])
    with pytest.raises(GraphError):
        graph.index_of("zzz")


def test_duplicate_labels_rejected():
    with pytest.raises(GraphError):
        Graph([set(), set()], labels=["x", "x"])


def test_asymmetric_adjacency_rejected():
    with pytest.raises(GraphError):
        Graph([{1}, set()])


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph([{0}])


def test_out_of_range_neighbour_rejected():
    with pytest.raises(GraphError):
        Graph([{5}])


def test_degrees_and_max_degree():
    graph = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    assert graph.degrees() == [3, 1, 1, 1]
    assert graph.max_degree() == 3
    assert Graph.empty(0).max_degree() == 0


def test_edges_iteration_unique():
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
    edges = sorted(graph.edges())
    assert edges == [(0, 1), (0, 2), (1, 2)]


def test_two_hop_neighbors():
    # Path 0 - 1 - 2 - 3: the vertices at distance two are the two-hop
    # neighbourhood minus the vertex and its neighbours.
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    assert graph.neighborhood_within_two_hops(0) == frozenset({0, 1, 2})
    assert graph.neighborhood_within_two_hops(0) - graph.neighbors(0) - {0} == {2}
    assert graph.neighborhood_within_two_hops(1) == frozenset({0, 1, 2, 3})
    assert graph.neighborhood_within_two_hops(1) - graph.neighbors(1) - {1} == {3}


def test_common_neighbors():
    graph = Graph.from_edges([(0, 2), (1, 2), (0, 3), (1, 3), (0, 1)], vertices=range(4))
    assert graph.common_neighbors(0, 1) == frozenset({2, 3})


def test_induced_subgraph_preserves_labels():
    graph = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
    sub, mapping = graph.induced_subgraph([graph.index_of("a"), graph.index_of("b"), graph.index_of("c")])
    assert sub.num_vertices == 3
    assert sub.num_edges == 3
    assert sorted(sub.labels()) == ["a", "b", "c"]
    assert [graph.label(v) for v in mapping] == [sub.label(i) for i in range(3)]


def test_complete_and_empty_constructors():
    complete = Graph.complete(5)
    assert complete.num_edges == 10
    empty = Graph.empty(4)
    assert empty.num_edges == 0
    assert len(empty) == 4


def test_contains_and_repr():
    graph = Graph.from_edges([(0, 1)])
    assert 0 in graph
    assert 5 not in graph
    assert "Graph(n=2, m=1)" == repr(graph)


def test_equality():
    first = Graph.from_edges([(0, 1), (1, 2)])
    second = Graph.from_edges([(0, 1), (1, 2)])
    third = Graph.from_edges([(0, 1), (0, 2)])
    assert first == second
    assert first != third
