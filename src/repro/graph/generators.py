"""Synthetic graph generators.

The original evaluation runs on SNAP and LAW graphs that are not shipped with
this repository (and are far too large for a pure-Python branch-and-bound).
These generators produce deterministic synthetic graphs with the structural
features that matter for k-plex enumeration: skewed degree distributions,
degeneracy much smaller than ``n``, and planted dense substructures that give
rise to large maximal k-plexes.  They are used by :mod:`repro.datasets` to
build scaled surrogates for every dataset in Table 2 and by the test suite to
produce randomised inputs.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ParameterError
from .graph import Graph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# --------------------------------------------------------------------------- #
# Classic random graph models
# --------------------------------------------------------------------------- #
def erdos_renyi(num_vertices: int, probability: float, seed: Optional[int] = None) -> Graph:
    """Generate a G(n, p) Erdős–Rényi graph."""
    if not 0.0 <= probability <= 1.0:
        raise ParameterError("probability must lie in [0, 1]")
    rng = _rng(seed)
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(num_vertices), 2)
        if rng.random() < probability
    ]
    return Graph.from_edges(edges, vertices=range(num_vertices))


def gnm_random(num_vertices: int, num_edges: int, seed: Optional[int] = None) -> Graph:
    """Generate a G(n, m) random graph with exactly ``num_edges`` edges."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ParameterError(f"cannot place {num_edges} edges in a {num_vertices}-vertex graph")
    rng = _rng(seed)
    chosen: Set[Tuple[int, int]] = set()
    while len(chosen) < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return Graph.from_edges(chosen, vertices=range(num_vertices))


def barabasi_albert(num_vertices: int, attachments: int, seed: Optional[int] = None) -> Graph:
    """Generate a preferential-attachment graph (Barabási–Albert model).

    Every new vertex attaches to ``attachments`` existing vertices chosen with
    probability proportional to their current degree, producing the heavy-tail
    degree distribution typical of the social and web graphs in Table 2.
    """
    if attachments < 1 or attachments >= num_vertices:
        raise ParameterError("attachments must satisfy 1 <= attachments < num_vertices")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    # Repeated-targets list: each endpoint occurrence acts as a degree token.
    repeated: List[int] = list(range(attachments))
    for new_vertex in range(attachments, num_vertices):
        targets: Set[int] = set()
        while len(targets) < attachments:
            targets.add(rng.choice(repeated) if repeated else rng.randrange(new_vertex))
        for target in targets:
            edges.append((new_vertex, target))
            repeated.append(target)
            repeated.append(new_vertex)
    return Graph.from_edges(edges, vertices=range(num_vertices))


def powerlaw_configuration(
    num_vertices: int,
    exponent: float = 2.5,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    seed: Optional[int] = None,
) -> Graph:
    """Generate a graph with a power-law degree sequence via the configuration model.

    Self-loops and parallel edges produced by the stub matching are discarded,
    so realised degrees are close to (not exactly equal to) the sampled
    sequence — the standard simplification for benchmark generation.
    """
    if max_degree is None:
        max_degree = max(min_degree + 1, int(num_vertices ** 0.5))
    if min_degree < 1 or max_degree < min_degree:
        raise ParameterError("degree bounds must satisfy 1 <= min_degree <= max_degree")
    rng = _rng(seed)
    # Sample degrees from a discrete power law by inverse-transform sampling.
    weights = [d ** (-exponent) for d in range(min_degree, max_degree + 1)]
    total = sum(weights)
    cumulative = list(itertools.accumulate(w / total for w in weights))

    def sample_degree() -> int:
        u = rng.random()
        for offset, bound in enumerate(cumulative):
            if u <= bound:
                return min_degree + offset
        return max_degree

    degrees = [sample_degree() for _ in range(num_vertices)]
    if sum(degrees) % 2 == 1:
        degrees[rng.randrange(num_vertices)] += 1
    stubs: List[int] = []
    for vertex, degree in enumerate(degrees):
        stubs.extend([vertex] * degree)
    rng.shuffle(stubs)
    edges = []
    for position in range(0, len(stubs) - 1, 2):
        u, v = stubs[position], stubs[position + 1]
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(edges, vertices=range(num_vertices))


# --------------------------------------------------------------------------- #
# Structured / community models
# --------------------------------------------------------------------------- #
def relaxed_caveman(
    num_communities: int,
    community_size: int,
    rewire_probability: float = 0.1,
    seed: Optional[int] = None,
) -> Graph:
    """Generate a relaxed caveman graph (cliques with randomly rewired edges)."""
    rng = _rng(seed)
    num_vertices = num_communities * community_size
    edges: List[Tuple[int, int]] = []
    for community in range(num_communities):
        members = range(community * community_size, (community + 1) * community_size)
        for u, v in itertools.combinations(members, 2):
            if rng.random() < rewire_probability:
                w = rng.randrange(num_vertices)
                if w not in (u, v):
                    edges.append((u, w))
                    continue
            edges.append((u, v))
    return Graph.from_edges(edges, vertices=range(num_vertices))


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Generate ``num_cliques`` cliques connected in a ring by single edges."""
    if num_cliques < 1 or clique_size < 1:
        raise ParameterError("num_cliques and clique_size must be positive")
    edges: List[Tuple[int, int]] = []
    for clique in range(num_cliques):
        base = clique * clique_size
        members = range(base, base + clique_size)
        edges.extend(itertools.combinations(members, 2))
        if num_cliques > 1:
            next_base = ((clique + 1) % num_cliques) * clique_size
            edges.append((base, next_base))
    return Graph.from_edges(edges, vertices=range(num_cliques * clique_size))


def planted_kplex(
    num_vertices: int,
    background_probability: float,
    plex_size: int,
    k: int,
    num_plexes: int = 1,
    seed: Optional[int] = None,
) -> Graph:
    """Generate a sparse background graph with planted k-plexes.

    Each planted structure is a clique on ``plex_size`` vertices from which at
    most ``k - 1`` incident edges per vertex are removed, so the planted set is
    guaranteed to remain a k-plex.  Planted sets are vertex-disjoint; the
    remaining vertices form an Erdős–Rényi background.
    """
    if plex_size * num_plexes > num_vertices:
        raise ParameterError("planted structures do not fit into the requested vertex count")
    if plex_size < 2:
        raise ParameterError("plex_size must be at least 2")
    rng = _rng(seed)
    edges: Set[Tuple[int, int]] = set()
    for u, v in itertools.combinations(range(num_vertices), 2):
        if rng.random() < background_probability:
            edges.add((u, v))

    for plex_index in range(num_plexes):
        members = list(range(plex_index * plex_size, (plex_index + 1) * plex_size))
        plex_edges = {(min(u, v), max(u, v)) for u, v in itertools.combinations(members, 2)}
        # Remove up to k-1 edges per vertex while keeping the removal budget.
        removable_budget = {vertex: k - 1 for vertex in members}
        removable = sorted(plex_edges)
        rng.shuffle(removable)
        removed = set()
        for u, v in removable:
            if removable_budget[u] > 0 and removable_budget[v] > 0 and rng.random() < 0.3:
                removed.add((u, v))
                removable_budget[u] -= 1
                removable_budget[v] -= 1
        edges.update(plex_edges - removed)
        edges.difference_update(removed)
    return Graph.from_edges(edges, vertices=range(num_vertices))


def watts_strogatz(
    num_vertices: int,
    neighbours: int,
    rewire_probability: float,
    seed: Optional[int] = None,
) -> Graph:
    """Generate a Watts–Strogatz small-world graph.

    Vertices start on a ring lattice connected to their ``neighbours`` nearest
    neighbours (``neighbours`` must be even); each lattice edge is rewired to
    a uniformly random endpoint with probability ``rewire_probability``.
    Small-world graphs exercise the enumerator on inputs with high clustering
    but no planted dense blocks.
    """
    if neighbours % 2 != 0 or neighbours < 2:
        raise ParameterError("neighbours must be an even integer >= 2")
    if neighbours >= num_vertices:
        raise ParameterError("neighbours must be smaller than num_vertices")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ParameterError("rewire_probability must lie in [0, 1]")
    rng = _rng(seed)
    edges: Set[Tuple[int, int]] = set()
    half = neighbours // 2
    for vertex in range(num_vertices):
        for offset in range(1, half + 1):
            target = (vertex + offset) % num_vertices
            if rng.random() < rewire_probability:
                rewired = rng.randrange(num_vertices)
                if rewired != vertex:
                    target = rewired
            if target != vertex:
                edges.add((min(vertex, target), max(vertex, target)))
    return Graph.from_edges(edges, vertices=range(num_vertices))


def grid_graph(rows: int, columns: int) -> Graph:
    """Generate the ``rows x columns`` two-dimensional grid graph."""
    if rows < 1 or columns < 1:
        raise ParameterError("rows and columns must be positive")
    edges = []
    for row in range(rows):
        for column in range(columns):
            vertex = row * columns + column
            if column + 1 < columns:
                edges.append((vertex, vertex + 1))
            if row + 1 < rows:
                edges.append((vertex, vertex + columns))
    return Graph.from_edges(edges, vertices=range(rows * columns))


def planted_partition(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: Optional[int] = None,
) -> Graph:
    """Generate a planted-partition (stochastic block model) graph."""
    rng = _rng(seed)
    num_vertices = num_communities * community_size
    community = [vertex // community_size for vertex in range(num_vertices)]
    edges = []
    for u, v in itertools.combinations(range(num_vertices), 2):
        probability = p_in if community[u] == community[v] else p_out
        if rng.random() < probability:
            edges.append((u, v))
    return Graph.from_edges(edges, vertices=range(num_vertices))


# --------------------------------------------------------------------------- #
# Deterministic small graphs (useful in unit tests and examples)
# --------------------------------------------------------------------------- #
def path_graph(num_vertices: int) -> Graph:
    """Return the path on ``num_vertices`` vertices."""
    edges = [(v, v + 1) for v in range(num_vertices - 1)]
    return Graph.from_edges(edges, vertices=range(num_vertices))


def cycle_graph(num_vertices: int) -> Graph:
    """Return the cycle on ``num_vertices`` vertices."""
    if num_vertices < 3:
        raise ParameterError("a cycle needs at least three vertices")
    edges = [(v, (v + 1) % num_vertices) for v in range(num_vertices)]
    return Graph.from_edges(edges, vertices=range(num_vertices))


def star_graph(num_leaves: int) -> Graph:
    """Return the star with one hub (vertex 0) and ``num_leaves`` leaves."""
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return Graph.from_edges(edges, vertices=range(num_leaves + 1))


def complete_graph(num_vertices: int) -> Graph:
    """Return the complete graph on ``num_vertices`` vertices."""
    return Graph.complete(num_vertices)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Return the complete multipartite graph with the given part sizes."""
    offsets = [0]
    for size in part_sizes:
        offsets.append(offsets[-1] + size)
    edges = []
    for a in range(len(part_sizes)):
        for b in range(a + 1, len(part_sizes)):
            for u in range(offsets[a], offsets[a + 1]):
                for v in range(offsets[b], offsets[b + 1]):
                    edges.append((u, v))
    return Graph.from_edges(edges, vertices=range(offsets[-1]))


def paper_figure3_graph() -> Graph:
    """Return the toy graph of Figure 3 in the paper.

    Vertices are labelled ``v1 .. v7`` (internally 0..6).  The edge set is the
    one used by the running examples for pivot selection (Example 4.1) and the
    upper bounds (Examples 5.4 and 5.6): ``P = {v1, v3}``, ``C = {v2, v5, v7}``
    with ``k = 2``.

    The exact drawing is not reproduced in the text, so the edge set below is
    reconstructed to satisfy every fact the running examples state: ``N(v1) =
    {v2, v5, v7}``, ``d(v3) = 2`` with ``v3`` adjacent to ``v2`` only inside
    ``P ∪ C``, ``v7`` adjacent to ``v5`` but not ``v2`` or ``v3``, and ``v5``
    adjacent to ``v1`` but not ``v3``.
    """
    labels = [f"v{i}" for i in range(1, 8)]
    edges = [
        ("v1", "v2"),
        ("v1", "v5"),
        ("v1", "v7"),
        ("v2", "v3"),
        ("v2", "v5"),
        ("v3", "v4"),
        ("v5", "v7"),
        ("v6", "v7"),
        ("v4", "v6"),
    ]
    return Graph.from_edges(edges, vertices=labels)


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Return the disjoint union of the given graphs (labels are re-assigned)."""
    adjacency: List[Set[int]] = []
    for graph in graphs:
        offset = len(adjacency)
        for u in graph.vertices():
            # Add the neighbours in the order ``from_edges`` over ``edges()``
            # would, so each set (and so ``edges()``) iterates as it did.
            neigh = graph.neighbors(u)
            row = sorted(v + offset for v in neigh if v < u)
            row.extend(v + offset for v in neigh if v > u)
            adjacency.append(set(row))
    return Graph._trusted(adjacency, list(range(len(adjacency))))
