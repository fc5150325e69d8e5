"""Shared non-fixture helpers for the test-suite.

Imported explicitly (``from _helpers import ...``) rather than living in
``conftest.py``: ``conftest`` is a special module name pytest also assigns to
``benchmarks/conftest.py``, so importing helpers *from* it resolves to
whichever conftest was loaded first.  Fixtures stay in ``tests/conftest.py``
where pytest injects them by name.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Hashable, List

from repro.core.kplex import is_kplex
from repro.graph import Graph, generators, set_backed_core_decomposition


def random_graph_cases(count: int, max_vertices: int = 13, seed: int = 0) -> List[Graph]:
    """Deterministic list of small random graphs for oracle comparisons."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(5, max_vertices)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        graphs.append(generators.erdos_renyi(n, p, seed=seed * 1000 + index))
    return graphs


def vertex_sets(plexes) -> set:
    """Convert KPlex results to a comparable set of frozensets."""
    return {frozenset(plex.vertices) for plex in plexes}


def assert_matches_reference_core(graph: Graph, level: int, core: Graph, vertex_map) -> None:
    """Check a shrunk ``level``-core against the bucket-queue core numbers.

    The ``level``-core is exactly the vertices of core number ``>= level``
    with their induced edges and labels; the core numbers come from a
    different algorithm than the stack-based peel behind ``shrink_to_core``,
    so this is an independent oracle.
    """
    core_numbers = set_backed_core_decomposition(graph).core_numbers
    expected = [v for v in graph.vertices() if core_numbers[v] >= level]
    assert list(vertex_map) == expected
    assert core.labels() == [graph.label(v) for v in expected]
    kept = set(expected)
    assert {frozenset((vertex_map[u], vertex_map[v])) for u, v in core.edges()} == {
        frozenset(edge) for edge in graph.edges() if kept.issuperset(edge)
    }


def corollary_52_fixpoint(graph: Graph, seed: int, vertices, k: int, q: int) -> set:
    """Corollary 5.2 iterated to its full fixpoint, with no early exit.

    A plain restatement of the rule (``q - 2k`` common seed-neighbours for a
    seed neighbour, ``q - 2k + 2`` for a two-hop vertex, applied in rounds),
    kept as the oracle for ``corollary_52_keep``'s contract.
    """
    kept = set(vertices) | {seed}
    while True:
        seed_neighbors = graph.neighbors(seed) & kept
        removable = {
            u
            for u in kept
            if u != seed
            and len(graph.neighbors(u) & seed_neighbors)
            < (q - 2 * k if u in seed_neighbors else q - 2 * k + 2)
        }
        if not removable:
            return kept
        kept -= removable


def corollary_52_rejects(graph: Graph, seed: int, fixpoint: set, k: int, q: int) -> bool:
    """Whether ``corollary_52_keep`` returns fewer than ``q`` vertices.

    Its contract: exactly when the full ``fixpoint`` has fewer than ``q``
    vertices or fewer than ``q - k`` seed neighbours.
    """
    return len(fixpoint) < q or len(fixpoint & graph.neighbors(seed)) < q - k


def dominates(graph: Graph, vertex: int, members, k: int) -> bool:
    """Whether ``vertex`` extends every k-plex of ``members``, in set form.

    ``vertex`` misses at most ``k - 1`` of ``members``, and each member it
    misses misses at most ``k - 1`` of ``members``, itself included.
    """
    members = set(members)
    missed = members - graph.neighbors(vertex)
    return len(missed) <= k - 1 and all(
        len(members - graph.neighbors(u)) <= k - 1 for u in missed
    )


def seed_in_large_kplex(graph: Graph, seed: int, vertices, k: int, q: int) -> bool:
    """Brute force: does some k-plex of ``>= q`` of ``vertices`` hold ``seed``?

    k-plexes are hereditary, so it suffices to try the ``q``-subsets.
    """
    others = sorted(set(vertices) - {seed})
    return any(
        is_kplex(graph, (seed,) + rest, k) for rest in itertools.combinations(others, q - 1)
    )


def reference_from_edges(edges, vertices=None) -> Graph:
    """A plain edge-list builder, the oracle for ``Graph.from_edges``.

    Interns labels through a closure and hands the neighbour sets to the
    validating ``Graph(adjacency, labels)`` constructor.
    """
    labels: List[Hashable] = []
    index: Dict[Hashable, int] = {}
    adjacency: List[set] = []

    def intern(label: Hashable) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
            adjacency.append(set())
        return index[label]

    if vertices is not None:
        for label in vertices:
            intern(label)
    for u_label, v_label in edges:
        u = intern(u_label)
        v = intern(v_label)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return Graph(adjacency, labels)


def reference_induced_subgraph(graph: Graph, vertices):
    """``Graph.induced_subgraph`` through the validating constructor."""
    kept = sorted(set(vertices))
    position = {vertex: index for index, vertex in enumerate(kept)}
    adjacency = [{position[w] for w in graph.neighbors(v) if w in position} for v in kept]
    return Graph(adjacency, [graph.label(v) for v in kept]), kept


def reference_disjoint_union(graphs) -> Graph:
    """``generators.disjoint_union`` as an edge-list round trip."""
    edges = []
    offset = 0
    for graph in graphs:
        edges.extend((u + offset, v + offset) for u, v in graph.edges())
        offset += graph.num_vertices
    return reference_from_edges(edges, vertices=range(offset))


def assert_same_graph(graph: Graph, reference: Graph) -> None:
    """Equal labels, neighbour sets, edge count, label index and edge order."""
    assert graph.labels() == reference.labels()
    assert [graph.neighbors(v) for v in graph.vertices()] == [
        reference.neighbors(v) for v in reference.vertices()
    ]
    assert graph.num_edges == reference.num_edges
    assert [graph.index_of(label) for label in reference.labels()] == list(
        reference.vertices()
    )
    assert list(graph.edges()) == list(reference.edges())
