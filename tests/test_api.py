"""Tests for the engine facade: requests, responses, registry, streaming."""

from typing import Iterator, List

import pytest

from repro import (
    EnumerationConfig,
    EnumerationRequest,
    Graph,
    KPlexEngine,
    ParallelConfig,
    count_maximal_kplexes,
    enumerate_maximal_kplexes,
    parallel_enumerate_maximal_kplexes,
)
from repro.api import (
    TERMINATION_CANCELLED,
    TERMINATION_COMPLETED,
    TERMINATION_RESULT_LIMIT,
    TERMINATION_TIMEOUT,
    CancellationToken,
    Solver,
    SolverRun,
    get_solver,
    register_solver,
    solver_names,
    solver_table,
    unregister_solver,
)
from repro.baselines import brute_force_vertex_sets
from repro.core.kplex import KPlex
from repro.errors import ParameterError
from repro.graph import generators

from _helpers import random_graph_cases, vertex_sets

REQUIRED_SOLVERS = ("ours", "fp", "listplex", "bron-kerbosch", "brute-force", "parallel")


@pytest.fixture
def engine() -> KPlexEngine:
    return KPlexEngine()


@pytest.fixture
def caveman() -> Graph:
    """A graph with several seed groups, so streaming has many stops."""
    return generators.relaxed_caveman(4, 7, rewire_probability=0.25, seed=9)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_every_required_solver_is_registered():
    names = solver_names()
    for name in REQUIRED_SOLVERS:
        assert name in names


def test_unknown_solver_raises_parameter_error():
    with pytest.raises(ParameterError, match="unknown solver"):
        get_solver("definitely-not-a-solver")


def test_unknown_solver_at_solve_time(engine, diamond):
    request = EnumerationRequest(graph=diamond, k=2, q=3, solver="nope")
    with pytest.raises(ParameterError, match="unknown solver"):
        engine.solve(request)


def test_aliases_resolve_to_primary_solver():
    assert get_solver("bk") is get_solver("bron-kerbosch")
    assert get_solver("OURS") is get_solver("ours")  # case-insensitive


def test_register_and_unregister_custom_solver(diamond):
    @register_solver("test-static")
    class StaticSolver(Solver):
        description = "returns a canned result"
        requires_diameter_bound = False

        def start(self, request) -> SolverRun:
            plex = KPlex.from_vertices(request.graph, [0, 1, 2], request.k)
            return SolverRun(results=iter([plex]))

    try:
        assert "test-static" in solver_names()
        response = KPlexEngine().solve(
            EnumerationRequest(graph=diamond, k=2, q=3, solver="test-static")
        )
        assert response.vertex_sets() == [(0, 1, 2)]
        assert response.solver == "test-static"
    finally:
        unregister_solver("test-static")
    assert "test-static" not in solver_names()


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):

        @register_solver("ours")
        class Clash(Solver):
            def start(self, request):  # pragma: no cover - never called
                raise NotImplementedError


def test_solver_table_lists_capabilities():
    rows = {row["solver"]: row for row in solver_table()}
    assert rows["ours"]["supports_query"] is True
    assert rows["bron-kerbosch"]["requires_diameter_bound"] is False
    assert rows["parallel"]["streaming"] == "eager"


# --------------------------------------------------------------------------- #
# Request validation (the single validation path)
# --------------------------------------------------------------------------- #
def test_request_rejects_bad_parameters(diamond):
    with pytest.raises(ParameterError):
        EnumerationRequest(graph=diamond, k=0, q=3)
    with pytest.raises(ParameterError):
        EnumerationRequest(graph=diamond, k=2, q=0)
    with pytest.raises(ParameterError):
        EnumerationRequest(graph="not a graph", k=2, q=3)
    with pytest.raises(ParameterError):
        EnumerationRequest(graph=diamond, k=2, q=3, timeout_seconds=-1)
    with pytest.raises(ParameterError):
        EnumerationRequest(graph=diamond, k=2, q=3, max_results=0)
    with pytest.raises(ParameterError, match="unknown variant"):
        EnumerationRequest(graph=diamond, k=2, q=3, variant="bogus")
    with pytest.raises(ParameterError, match="not both"):
        EnumerationRequest(
            graph=diamond, k=2, q=3, variant="basic", config=EnumerationConfig.ours()
        )


def test_request_rejects_bad_query(diamond):
    with pytest.raises(ParameterError, match="not in the graph"):
        EnumerationRequest(graph=diamond, k=2, q=3, query_vertices=(99,))
    with pytest.raises(ParameterError, match="at least one query vertex"):
        EnumerationRequest(graph=diamond, k=2, q=3, query_vertices=())
    with pytest.raises(ParameterError, match="larger than q"):
        EnumerationRequest(graph=diamond, k=2, q=3, query_vertices=(0, 1, 2, 3))


def test_diameter_bound_is_solver_specific(engine, diamond):
    # q < 2k - 1 is invalid for the decomposed algorithms ...
    request = EnumerationRequest(graph=diamond, k=3, q=2, solver="ours")
    with pytest.raises(ParameterError, match="2k - 1"):
        engine.solve(request)
    # ... but fine for the Bron-Kerbosch and brute-force oracles.
    bk = engine.solve(EnumerationRequest(graph=diamond, k=3, q=2, solver="bron-kerbosch"))
    oracle = engine.solve(EnumerationRequest(graph=diamond, k=3, q=2, solver="brute-force"))
    assert vertex_sets(bk.kplexes) == vertex_sets(oracle.kplexes)


def test_query_unsupported_by_baseline_solvers(engine, diamond):
    request = EnumerationRequest(
        graph=diamond, k=2, q=3, solver="fp", query_vertices=(0,)
    )
    with pytest.raises(ParameterError, match="query"):
        engine.solve(request)


# --------------------------------------------------------------------------- #
# solve() and the response contract
# --------------------------------------------------------------------------- #
def test_solve_matches_legacy_api(engine, caveman):
    response = engine.solve(EnumerationRequest(graph=caveman, k=2, q=5))
    legacy = enumerate_maximal_kplexes(caveman, 2, 5)
    assert vertex_sets(response.kplexes) == vertex_sets(legacy)
    assert response.count == len(legacy)
    assert response.termination == TERMINATION_COMPLETED
    assert response.completed
    assert response.k == 2 and response.q == 5
    assert response.elapsed_seconds >= 0
    assert response.statistics.branch_calls > 0
    assert response.solver_metadata["variant"] == "Ours"


def test_response_as_dict_is_json_friendly(engine, diamond):
    import json

    response = engine.solve(EnumerationRequest(graph=diamond, k=2, q=3))
    payload = response.as_dict()
    assert payload["count"] == response.count
    assert payload["termination"] == "completed"
    assert payload["statistics"]["outputs"] == response.count
    json.dumps(payload)  # must not raise


def test_solve_with_variant_override(engine, caveman):
    ours = engine.solve(EnumerationRequest(graph=caveman, k=2, q=5))
    basic = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5, solver="ours", variant="basic")
    )
    assert vertex_sets(ours.kplexes) == vertex_sets(basic.kplexes)
    assert basic.solver_metadata["variant"] == "Basic"
    # The ablation variant explores at least as many branch nodes.
    assert basic.statistics.branch_calls >= ours.statistics.branch_calls


def test_query_through_engine(engine, caveman):
    from repro import enumerate_kplexes_containing

    response = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5, query_vertices=(0,))
    )
    direct = enumerate_kplexes_containing(caveman, [0], 2, 5)
    assert vertex_sets(response.kplexes) == vertex_sets(direct)
    assert all(0 in plex.vertices for plex in response.kplexes)


def test_count_matches_solve(engine, caveman):
    request = EnumerationRequest(graph=caveman, k=2, q=5)
    assert engine.count(request) == engine.solve(request).count
    assert count_maximal_kplexes(caveman, 2, 5) == engine.count(request)


# --------------------------------------------------------------------------- #
# stream(): laziness, cancellation, timeout, budget, progress
# --------------------------------------------------------------------------- #
def _probe_solver(pulls: List[int]):
    """Register a solver that records how far its generator has been driven."""

    @register_solver("test-probe", replace=True)
    class ProbeSolver(Solver):
        requires_diameter_bound = False

        def start(self, request) -> SolverRun:
            def generate() -> Iterator[KPlex]:
                for index in range(10):
                    pulls.append(index)
                    yield KPlex.from_vertices(request.graph, [0, 1, 2], request.k)

            return SolverRun(results=generate())

    return ProbeSolver


def test_stream_is_lazy(engine, diamond):
    pulls: List[int] = []
    _probe_solver(pulls)
    try:
        request = EnumerationRequest(graph=diamond, k=2, q=3, solver="test-probe")
        stream = engine.stream(request)
        assert pulls == []  # creating the stream does no work
        next(stream)
        assert pulls == [0]  # exactly one result was produced
        next(stream)
        assert pulls == [0, 1]
    finally:
        unregister_solver("test-probe")


def test_stream_early_cancellation(engine, diamond):
    pulls: List[int] = []
    _probe_solver(pulls)
    try:
        request = EnumerationRequest(graph=diamond, k=2, q=3, solver="test-probe")
        cancel = CancellationToken()
        collected = []
        for plex in engine.stream(request, cancel=cancel):
            collected.append(plex)
            cancel.cancel()
        assert len(collected) == 1
        assert pulls == [0]  # the generator was never driven past the first result
    finally:
        unregister_solver("test-probe")


def test_solve_reports_cancellation(engine, caveman):
    cancel = CancellationToken()
    cancel.cancel()  # cancelled before it even starts
    response = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5), cancel=cancel
    )
    assert response.termination == TERMINATION_CANCELLED
    assert response.count == 0


def test_zero_timeout_stops_immediately(engine, caveman):
    response = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5, timeout_seconds=0.0)
    )
    assert response.termination == TERMINATION_TIMEOUT
    assert response.count == 0


def test_timeout_uses_injected_clock(caveman):
    # A fake clock that advances one second per reading: the deadline passes
    # right after the first result is yielded.
    ticks = iter(range(1000))
    engine = KPlexEngine(clock=lambda: float(next(ticks)))
    response = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5, timeout_seconds=1.5)
    )
    assert response.termination == TERMINATION_TIMEOUT
    assert response.count <= 1


def test_max_results_budget(engine, caveman):
    response = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5, max_results=2)
    )
    assert response.count == 2
    assert response.termination == TERMINATION_RESULT_LIMIT
    total = engine.count(EnumerationRequest(graph=caveman, k=2, q=5))
    assert total > 2


def test_progress_callback(engine, caveman):
    events = []
    response = engine.solve(
        EnumerationRequest(graph=caveman, k=2, q=5), on_progress=events.append
    )
    assert len(events) == response.count
    assert [event.count for event in events] == list(range(1, response.count + 1))
    assert all(event.elapsed_seconds >= 0 for event in events)
    assert vertex_sets(event.latest for event in events) == vertex_sets(response.kplexes)


# --------------------------------------------------------------------------- #
# solve_batch()
# --------------------------------------------------------------------------- #
def test_solve_batch_preserves_request_order(engine, caveman):
    requests = [
        EnumerationRequest(graph=caveman, k=2, q=q, solver=solver)
        for q, solver in ((7, "ours"), (5, "listplex"), (6, "ours"), (5, "fp"))
    ]
    responses = engine.solve_batch(requests)
    assert len(responses) == len(requests)
    for request, response in zip(requests, responses):
        assert response.request is request
        assert response.solver == request.solver
        expected = engine.solve(request)
        assert vertex_sets(response.kplexes) == vertex_sets(expected.kplexes)


def test_solve_batch_threaded_matches_sequential(engine, caveman):
    requests = [EnumerationRequest(graph=caveman, k=2, q=q) for q in (5, 6, 7)]
    sequential = engine.solve_batch(requests)
    threaded = engine.solve_batch(requests, max_workers=3)
    for one, two in zip(sequential, threaded):
        assert vertex_sets(one.kplexes) == vertex_sets(two.kplexes)


# --------------------------------------------------------------------------- #
# Cross-solver equivalence: every registered backend agrees with the oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("k,q", [(2, 3), (2, 4), (3, 5)])
def test_all_solvers_agree_on_small_graphs(engine, k, q):
    solvers = {
        "ours": {},
        "ours_p": {},
        "basic": {},
        "fp": {},
        "listplex": {},
        "bron-kerbosch": {},
        "parallel": {"options": {"num_workers": 2, "use_processes": False}},
    }
    for graph in random_graph_cases(4, max_vertices=11, seed=k * 100 + q):
        oracle = brute_force_vertex_sets(graph, k, q)
        for solver, extra in solvers.items():
            response = engine.solve(
                EnumerationRequest(graph=graph, k=k, q=q, solver=solver, **extra)
            )
            assert vertex_sets(response.kplexes) == oracle, (
                f"solver {solver} disagrees with the oracle on k={k}, q={q}"
            )
            assert response.termination == TERMINATION_COMPLETED


# --------------------------------------------------------------------------- #
# Legacy shims route through the engine
# --------------------------------------------------------------------------- #
def test_parallel_shim_matches_engine(engine, caveman):
    config = ParallelConfig(num_workers=2, use_processes=False)
    legacy = parallel_enumerate_maximal_kplexes(caveman, 2, 5, config)
    direct = engine.solve(
        EnumerationRequest(
            graph=caveman, k=2, q=5, solver="parallel", options={"parallel": config}
        )
    )
    assert vertex_sets(legacy.kplexes) == vertex_sets(direct.kplexes)
    assert legacy.statistics.outputs == direct.count
    assert direct.solver_metadata["num_workers"] == 2


def test_shims_validate_through_single_path(caveman):
    with pytest.raises(ParameterError):
        enumerate_maximal_kplexes(caveman, 0, 5)
    with pytest.raises(ParameterError):
        parallel_enumerate_maximal_kplexes(caveman, 3, 2)  # violates q >= 2k - 1


def test_fixed_config_solvers_reject_variant_override(engine, diamond):
    for solver in ("fp", "bron-kerbosch", "brute-force"):
        with pytest.raises(ParameterError, match="fixed configuration"):
            engine.solve(
                EnumerationRequest(graph=diamond, k=2, q=3, solver=solver, variant="basic")
            )


def test_early_stopped_runs_still_record_elapsed_time(engine, caveman):
    for solver in ("ours", "fp"):
        response = engine.solve(
            EnumerationRequest(graph=caveman, k=2, q=5, solver=solver, max_results=1)
        )
        assert response.count == 1
        assert response.statistics.elapsed_seconds > 0


def test_parallel_solver_rejects_unknown_options(engine, caveman):
    request = EnumerationRequest(
        graph=caveman, k=2, q=5, solver="parallel", options={"num_worker": 8}
    )
    with pytest.raises(ParameterError, match="unknown parallel solver options"):
        engine.solve(request)
