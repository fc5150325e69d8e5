"""Unit tests for the Graph data structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    assert_same_graph,
    reference_disjoint_union,
    reference_from_edges,
    reference_induced_subgraph,
)
from repro.errors import GraphError
from repro.graph import Graph, generators
from repro.graph.bitset import bits_to_list
from repro.graph.dense import DenseSubgraph


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


@pytest.mark.parametrize(
    "edges, vertices, named",
    [
        ([[1, 2, 3]], None, "[1, 2, 3]"),
        ([[1]], None, "[1]"),
        ([[[1], 2]], None, "[[1], 2]"),
        ([1, 2], None, "edge 1"),
        ([], 5, "5"),
        ([], [[1]], "[1]"),
        ([(0, 1)], [0, {2}], "{2}"),
    ],
)
def test_from_edges_rejects_malformed_input_with_graph_error(edges, vertices, named):
    with pytest.raises(GraphError, match="malformed") as excinfo:
        Graph.from_edges(edges, vertices=vertices)
    assert named in str(excinfo.value)


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


LABELS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.sampled_from(["a", "b", "c", "d"]),
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
)
BUILDER_SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def edge_lists(draw):
    """Edge lists with repeats, reversed repeats and self-loops mixed in."""
    edges = draw(st.lists(st.tuples(LABELS, LABELS), max_size=60))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    loops = draw(st.lists(LABELS, max_size=3))
    edges += [(v, u) for u, v in repeats] + [(label, label) for label in loops]
    return draw(st.permutations(edges))


@given(edge_lists(), st.one_of(st.none(), st.lists(LABELS, max_size=12)))
@BUILDER_SETTINGS
def test_from_edges_matches_the_reference_builder(edges, vertices):
    assert_same_graph(
        Graph.from_edges(edges, vertices=vertices), reference_from_edges(edges, vertices)
    )


@given(edge_lists(), st.data())
@BUILDER_SETTINGS
def test_induced_subgraph_matches_the_reference_builder(edges, data):
    graph = reference_from_edges(edges)
    chosen = data.draw(st.lists(st.sampled_from(range(graph.num_vertices)))) if len(graph) else []
    sub, kept = graph.induced_subgraph(chosen)
    expected, expected_kept = reference_induced_subgraph(graph, chosen)
    assert kept == expected_kept
    assert_same_graph(sub, expected)


@given(st.lists(edge_lists(), max_size=4))
@BUILDER_SETTINGS
def test_disjoint_union_matches_the_reference_builder(edge_sets):
    graphs = [reference_from_edges(edges) for edges in edge_sets]
    assert_same_graph(generators.disjoint_union(graphs), reference_disjoint_union(graphs))


def test_builders_match_the_references_on_generated_graphs():
    """The same checks at sizes where neighbour-set hash slots collide."""
    social = generators.barabasi_albert(300, 5, seed=1)
    caveman = generators.relaxed_caveman(6, 12, rewire_probability=0.2, seed=2)
    edges = list(social.edges())[::-1] + [(7, 7), (3, 4), (4, 3)]
    assert_same_graph(Graph.from_edges(edges), reference_from_edges(edges))
    assert_same_graph(
        generators.disjoint_union([social, caveman, social]),
        reference_disjoint_union([social, caveman, social]),
    )
    chosen = range(0, 300, 2)
    sub, _kept = social.induced_subgraph(chosen)
    assert_same_graph(sub, reference_induced_subgraph(social, chosen)[0])
    dense = DenseSubgraph(caveman, list(range(40, 5, -1)))
    materialised, vertex_map = dense.to_graph()
    assert vertex_map == list(range(40, 5, -1))
    assert_same_graph(
        materialised,
        Graph(
            [bits_to_list(row) for row in dense.adjacency],
            [caveman.label(v) for v in vertex_map],
        ),
    )
