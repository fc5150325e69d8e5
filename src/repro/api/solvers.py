"""Built-in solver adapters.

Each adapter wraps one existing implementation — the configurable
branch-and-bound engine (``ours`` and its ablation variants, ``listplex``),
the FP-style baseline, the Bron–Kerbosch reference, the brute-force oracle,
and the task-parallel executor — behind the :class:`~repro.api.registry.Solver`
interface and registers it by name.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..baselines.bron_kerbosch import BronKerboschKPlex
from ..baselines.brute_force import MAX_BRUTE_FORCE_VERTICES, brute_force_maximal_kplexes
from ..baselines.fp import FPLike
from ..baselines.listplex import listplex_config
from ..core.config import EnumerationConfig, config_by_name
from ..core.enumerator import KPlexEnumerator
from ..core.kplex import KPlex, validate_parameters
from ..core.query import enumerate_kplexes_containing
from ..core.stats import SearchStatistics
from ..errors import ParameterError
from ..parallel.executor import ParallelConfig, _enumerate_parallel
from .registry import Solver, SolverRun, register_solver
from .request import EnumerationRequest


def _reject_config_override(request: EnumerationRequest, solver_name: str) -> None:
    """Fixed-strategy solvers must not silently ignore variant/config."""
    if request.resolved_config() is not None:
        raise ParameterError(
            f"solver {solver_name!r} has a fixed configuration and does not accept "
            f"variant/config overrides; use the 'ours' solver for variants"
        )


class _ConfigurableSolver(Solver):
    """Base adapter for the shared branch-and-bound engine.

    Subclasses fix a default :class:`EnumerationConfig`; the request's
    ``variant`` / ``config`` override it, so ``solver="ours"`` +
    ``variant="basic"`` runs the Basic ablation through the same adapter.
    """

    requires_diameter_bound = True
    supports_query = True
    incremental = True

    #: Name of the default configuration variant.
    default_variant: str = "ours"

    def _effective_config(self, request: EnumerationRequest) -> EnumerationConfig:
        return request.resolved_config() or config_by_name(self.default_variant)

    def start(self, request: EnumerationRequest) -> SolverRun:
        validate_parameters(request.k, request.q)
        config = self._effective_config(request)
        if request.query_vertices is not None:
            return self._start_query(request, config)
        enumerator = KPlexEnumerator(request.graph, request.k, request.q, config)
        return SolverRun(
            results=enumerator.iter_results(),
            statistics=lambda: enumerator.statistics,
            metadata={"variant": config.label},
        )

    def _start_query(
        self, request: EnumerationRequest, config: EnumerationConfig
    ) -> SolverRun:
        stats = SearchStatistics()

        def generate() -> Iterator[KPlex]:
            results = enumerate_kplexes_containing(
                request.graph,
                request.query_vertices,
                request.k,
                request.q,
                config,
            )
            stats.outputs = len(results)
            yield from results

        return SolverRun(
            results=generate(),
            statistics=lambda: stats,
            metadata={"variant": config.label, "query": list(request.query_vertices)},
        )


@register_solver("ours", aliases=("paper", "default"))
class OursSolver(_ConfigurableSolver):
    description = "The paper's algorithm with every pruning technique (Ours)."
    default_variant = "ours"


@register_solver("ours_p")
class OursPSolver(_ConfigurableSolver):
    description = "Ours with FaPlexen-style multi-branching (Ours_P)."
    default_variant = "ours_p"


@register_solver("basic")
class BasicSolver(_ConfigurableSolver):
    description = "Ours without the R1/R2 pruning rules (Basic ablation)."
    default_variant = "basic"


@register_solver("listplex")
class ListPlexSolver(_ConfigurableSolver):
    description = "ListPlex-style baseline (FaPlexen branching, no upper bounds)."

    def _effective_config(self, request: EnumerationRequest) -> EnumerationConfig:
        return request.resolved_config() or listplex_config()


@register_solver("fp")
class FPSolver(Solver):
    description = "FP-style baseline (single task per seed, sorting upper bound)."
    requires_diameter_bound = True
    supports_query = False
    incremental = True

    def start(self, request: EnumerationRequest) -> SolverRun:
        _reject_config_override(request, self.name)
        baseline = FPLike(request.graph, request.k, request.q)
        return SolverRun(
            results=baseline.iter_results(),
            statistics=lambda: baseline.statistics,
            metadata={"variant": "FP"},
        )


@register_solver("bron-kerbosch", aliases=("bk",))
class BronKerboschSolver(Solver):
    description = "Bron-Kerbosch reference (Algorithm 1); accepts any q >= 1."
    requires_diameter_bound = False
    supports_query = False
    incremental = False

    def start(self, request: EnumerationRequest) -> SolverRun:
        _reject_config_override(request, self.name)
        baseline = BronKerboschKPlex(request.graph, request.k, request.q)

        def generate() -> Iterator[KPlex]:
            yield from baseline.run()

        return SolverRun(
            results=generate(),
            statistics=lambda: baseline.statistics,
            metadata={"variant": "Bron-Kerbosch"},
        )


@register_solver("brute-force", aliases=("oracle",))
class BruteForceSolver(Solver):
    description = (
        f"Exhaustive oracle for tiny graphs (n <= {MAX_BRUTE_FORCE_VERTICES})."
    )
    requires_diameter_bound = False
    supports_query = False
    incremental = False

    def start(self, request: EnumerationRequest) -> SolverRun:
        _reject_config_override(request, self.name)
        stats = SearchStatistics()

        def generate() -> Iterator[KPlex]:
            results = brute_force_maximal_kplexes(request.graph, request.k, request.q)
            stats.outputs = len(results)
            yield from results

        return SolverRun(
            results=generate(),
            statistics=lambda: stats,
            metadata={"variant": "BruteForce"},
        )


@register_solver("parallel", aliases=("ours-parallel",))
class ParallelSolver(Solver):
    description = "Task-parallel executor (Section 6): process or thread pool."
    requires_diameter_bound = True
    supports_query = False
    incremental = False

    @staticmethod
    def _parallel_config(request: EnumerationRequest) -> ParallelConfig:
        options = dict(request.options)
        explicit = options.pop("parallel", None)
        if explicit is not None:
            if not isinstance(explicit, ParallelConfig):
                raise ParameterError(
                    "options['parallel'] must be a ParallelConfig, got "
                    f"{type(explicit).__name__}"
                )
            return explicit
        kwargs = {}
        for option, target in (
            ("num_workers", "num_workers"),
            ("use_processes", "use_processes"),
            ("straggler_timeout", "timeout_seconds"),
        ):
            if option in options:
                kwargs[target] = options.pop(option)
        if options:
            raise ParameterError(
                f"unknown parallel solver options {sorted(options)}; expected "
                f"'parallel', 'num_workers', 'use_processes', 'straggler_timeout'"
            )
        config = request.resolved_config()
        if config is not None:
            kwargs["enumeration"] = config
        return ParallelConfig(**kwargs)

    def start(self, request: EnumerationRequest) -> SolverRun:
        validate_parameters(request.k, request.q)
        parallel = self._parallel_config(request)
        stats_holder: List[Optional[SearchStatistics]] = [None]

        def generate() -> Iterator[KPlex]:
            result = _enumerate_parallel(request.graph, request.k, request.q, parallel)
            stats_holder[0] = result.statistics
            yield from result.kplexes

        return SolverRun(
            results=generate(),
            statistics=lambda: stats_holder[0] or SearchStatistics(),
            metadata={
                "variant": parallel.enumeration.label,
                "num_workers": parallel.num_workers,
                "use_processes": parallel.use_processes,
            },
        )
