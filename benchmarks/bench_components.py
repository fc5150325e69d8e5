"""Micro-benchmarks of the individual building blocks.

These benches are not tied to a specific table of the paper; they track the
cost of the substrates the enumeration relies on (degeneracy ordering, seed
subgraph construction, the upper-bound computation and the pair matrix), so
regressions in any of them are visible independently of the end-to-end
tables.
"""

import pytest

from repro.core import EnumerationConfig, iter_seed_contexts
from repro.core.bounds import support_bound
from repro.core.pruning import build_pair_matrix
from repro.core.seeds import iter_subtasks
from repro.core.stats import SearchStatistics
from repro.datasets import load_dataset
from repro.graph import Graph, read_edge_list
from repro.graph.core_decomposition import core_decomposition, shrink_to_core
from repro.graph.generators import barabasi_albert
from repro.graph.prepared import prepare


def _first_context(graph, k, q):
    config = EnumerationConfig.ours()
    core, _ = shrink_to_core(graph, q - k)
    stats = SearchStatistics()
    for _seed, context in iter_seed_contexts(core, k, q, config, stats):
        if context is not None and context.candidate_mask.bit_count() >= 6:
            return context
    raise AssertionError("no usable seed context found")


@pytest.fixture(scope="module")
def sparse_edge_list(tmp_path_factory):
    """A Barabási–Albert graph (10^5 vertices, 3 attachments) as edges and file."""
    graph = barabasi_albert(100_000, 3, seed=1)
    edges = graph.edges()
    path = tmp_path_factory.mktemp("ingest") / "ba-100k.txt"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# Undirected graph: Barabasi-Albert n=100000 m=3\n# FromNodeId\tToNodeId\n")
        handle.writelines(f"{u}\t{v}\n" for u, v in edges)
    return edges, path


@pytest.mark.parametrize("source", ["from_edges", "read_edge_list"])
def test_bench_graph_ingest(benchmark, sparse_edge_list, source):
    """Build the sparse graph from its edge list, or read it from a SNAP file.

    The scale of the sparse SNAP graphs; no time bound, the counts pin the
    work.
    """
    edges, path = sparse_edge_list
    if source == "from_edges":
        graph = benchmark(Graph.from_edges, edges)
    else:
        graph = benchmark(read_edge_list, path)
    assert (graph.num_vertices, graph.num_edges) == (100_000, len(edges))


def test_bench_degeneracy_ordering(benchmark):
    graph = load_dataset("enwiki-2021")
    result = benchmark(core_decomposition, graph)
    assert len(result.order) == graph.num_vertices


def test_bench_seed_context_construction(benchmark):
    """Algorithm 2 over every seed of enwiki-2021 at k=2, q=8.

    Most seeds are rejected on Corollary 5.2; the 112 kept ones select their
    seed subgraph and external set from the prepared index's neighbour rows,
    then build the dense subgraph and pair matrix.
    """
    graph = load_dataset("enwiki-2021")
    config = EnumerationConfig.ours()
    core, _ = shrink_to_core(graph, 8 - 2)

    def build_all():
        contexts = iter_seed_contexts(core, 2, 8, config, SearchStatistics())
        return sum(context is not None for _seed, context in contexts)

    kept = benchmark(build_all)
    assert kept == 112


def test_bench_seed_context_construction_sparse_core(benchmark):
    """Algorithm 2 over every seed of a sparse 10,000-vertex core at k=1, q=3.

    The core (a Barabási–Albert graph with 3 attachments) is far too sparse
    for neighbour rows, so the index builds none and the 409 kept seeds
    select their seed subgraph and external set from neighbour sets (one
    more seed is selected, then dropped because an earlier vertex
    dominates its seed subgraph).
    """
    core, _ = shrink_to_core(barabasi_albert(10_000, 3, seed=1), 3 - 1)
    config = EnumerationConfig.ours()
    prepare(core).position

    def build_all():
        contexts = iter_seed_contexts(core, 1, 3, config, SearchStatistics())
        return sum(context is not None for _seed, context in contexts)

    kept = benchmark(build_all)
    assert kept == 409
    assert prepare(core).rows is None


def test_bench_seed_context_construction_large_q(benchmark):
    """Algorithm 2 over every seed of a dense 4,000-vertex core at k=2, q=20.

    The core (a Barabási–Albert graph with 32 attachments, ``n²/128m`` about
    0.98) is on the row side of the index's density gate; at this ``q``
    all but 3 seeds are rejected.  The first solve builds the rows, so the
    first round includes their build.
    """
    core, _ = shrink_to_core(barabasi_albert(4_000, 32, seed=1), 20 - 2)
    config = EnumerationConfig.ours()
    prepare(core).position

    def build_all():
        contexts = iter_seed_contexts(core, 2, 20, config, SearchStatistics())
        return sum(context is not None for _seed, context in contexts)

    kept = benchmark(build_all)
    assert kept == 3
    assert prepare(core).rows is not None


def test_bench_subtask_enumeration(benchmark):
    graph = load_dataset("soc-epinions")
    context = _first_context(graph, 3, 8)

    def enumerate_tasks():
        return sum(1 for _ in iter_subtasks(context, 3, 8, EnumerationConfig.ours(), SearchStatistics()))

    count = benchmark(enumerate_tasks)
    assert count >= 1


def test_bench_support_upper_bound(benchmark):
    graph = load_dataset("soc-epinions")
    context = _first_context(graph, 2, 8)
    pivot = (context.candidate_mask & -context.candidate_mask).bit_length() - 1
    p_mask = 1 << context.seed_local
    c_mask = context.candidate_mask

    value = benchmark(support_bound, context.subgraph, p_mask, c_mask, pivot, 2)
    assert value >= 1


def test_bench_pair_matrix(benchmark):
    graph = load_dataset("soc-epinions")
    context = _first_context(graph, 2, 8)

    def build():
        return build_pair_matrix(
            context.subgraph,
            context.seed_local,
            context.candidate_mask,
            context.two_hop_mask,
            2,
            8,
        )

    rows = benchmark(build)
    assert len(rows) == context.subgraph.size
